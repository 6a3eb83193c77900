# Local mirror of .github/workflows/ci.yml: `make check` runs exactly what
# CI runs (gofmt, vet, the plain tier-1 tests, race tests, bench smoke +
# figure smoke), so local runs and CI cannot diverge. Individual targets
# match the CI job steps.

SHELL := /bin/bash
GO ?= go

.PHONY: check build fmt vet mdcheck smoke-names examples test race cover fuzz-smoke bench-smoke fig-smoke shards-smoke saturation-smoke durability-smoke migration-fig-smoke bench-json bench-compare bench-compare-strict bench-e2e bench-pairs clean

## check: everything CI gates a PR on
check: fmt vet mdcheck smoke-names examples test race fuzz-smoke bench-smoke fig-smoke shards-smoke saturation-smoke durability-smoke migration-fig-smoke bench-compare-strict

build:
	$(GO) build ./...

## mdcheck: markdown link check over README.md/DESIGN.md/examples/README.md
## and friends (CI "lint" job; the checker is docs_test.go)
mdcheck:
	$(GO) test -run 'TestMarkdownLinks' .

## smoke-names: the smoke targets below select tests with hand-written -run
## regexes, and a regex that names a renamed test still passes — it just runs
## less. For every `go test` command in this file with such a regex (the
## match-nothing '^$$' of the bench targets aside) this lists the tests of the
## packages that command passes, with its -tags, and fails on an alternative
## that matches none of them (CI "lint" job).
smoke-names:
	@fail=0; \
	while IFS=';' read -r tags pkgs names; do \
		list="$$($(GO) test $$tags -list . $$pkgs)" || exit 1; \
		for name in $${names//|/ }; do \
			grep -Eq -- "$$name" <<<"$$list" || { echo "smoke-names: $$name matches no test in" $$pkgs >&2; fail=1; }; \
		done; \
	done < <(awk '/\\$$/ { sub(/\\$$/, ""); cmd = cmd $$0; next } \
		{ cmd = cmd $$0 } \
		cmd !~ /^#/ && match(cmd, /-run \047[^^\047][^\047]*\047/) { \
			names = substr(cmd, RSTART + 6, RLENGTH - 7); pkgs = substr(cmd, RSTART + RLENGTH); \
			tags = match(cmd, /-tags [a-z]+/) ? substr(cmd, RSTART, RLENGTH) : ""; \
			print tags ";" pkgs ";" names } \
		{ cmd = "" }' Makefile); \
	exit $$fail

## examples: build every example program (CI "lint" job; keeps examples
## from rotting — go build discards the binaries)
examples:
	$(GO) build ./examples/...

## fmt: fail if any file needs gofmt (CI "lint" job)
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

## vet: static checks (CI "lint" job)
vet:
	$(GO) vet ./...

## test: the plain tier-1 run, every test of the tree once at full speed
## (CI "test" job): a timing-sensitive failure the -race pass hides shows
## here, and no hand-kept list of test names can fall behind the tree
test:
	$(GO) test -count=1 ./...

## race: the CI "test" job. -shuffle=on randomizes test order every run so
## inter-test state dependencies surface instead of hiding behind file order.
## The packages that pool per-message objects (deadline phases, the pending
## calls whose done callbacks deliver, hang-ups and Close race for, the
## broadcast rounds whose legs' callbacks were bound once and answer from
## the read loops, the completion list) then run five more times: a
## reuse race that needs an unlucky interleaving gets more than one chance
## per run. So do the dispatcher's tests: its pooled request item is
## released by the goroutine it started. So do the votes': on a memory
## store they run on the caller's goroutine, beside the drain's ApplyBatch. So do core.KV's and the scans':
## their fan-out runs the legs of a round concurrently, and each leg writes
## its own slots of the shared result. So do the positioned reads': a
## transaction's fetch and a KV read leg send through one request helper, and
## the serving replica names its rows in a pooled buffer. So do the read
## batches': a client's batch payload and a replica's reply buffer are
## pooled, and a batch's requests decode into one pooled decoder. So do the
## submit pipeline's: its
## in-flight window holds each entry's bytes, placed by the dispatcher and
## read by admission while replication goroutines resolve positions. So do
## the UDP submit tests: a submit's transaction is a view of one copy of
## the pooled datagram it arrived in, and its entry is spliced from it, so a
## missing copy would be a datagram-pool reuse race.
## So does kvstore: ApplyBatch pins rows, and re-resolves one a concurrent
## Delete took, without creating it before the batch is validated.
## The fencing and multi-group nemeses run twice more: under Sim they drive
## the pooled decoder, replier and pending calls through their storms.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=5 ./internal/deadline ./internal/network ./internal/paxos ./internal/replog
	$(GO) test -race -count=5 -run 'Dispatch|AsyncHandler|Vote|KV|Scan|ReadMulti|Batch|Pipeline|MasterCommitDatagrams|MasterCombines|UDPEndToEnd' ./internal/core
	$(GO) test -race -count=5 ./internal/kvstore
	$(GO) test -race -count=2 -run 'MasterLeaseFencingNemesis|MultiGroupNemesis' ./internal/cluster

## cover: per-package coverage summary (cover.txt; the CI test job appends it
## to $GITHUB_STEP_SUMMARY)
cover:
	set -o pipefail; $(GO) test -count=1 -cover ./... | tee cover.txt

## fuzz-smoke: every fuzzer the tree holds — found with `go test -list`, no
## list kept here — run for FUZZTIME each on top of its seed corpus (CI "test"
## job). What they cover reads bytes from outside the process: the wire
## codec, the WAL and its records, the packed value, the snapshot stream, and
## the resume tokens a client hands the paged handlers.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -o pipefail; \
	$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { names = names " " $$1 } \
		/^ok/ { n = split(names, f, " "); for (i = 1; i <= n; i++) print $$2, f[i]; names = "" }' | \
	while read -r pkg name; do \
		echo "fuzz-smoke: $$pkg $$name"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

## bench-smoke: one iteration of every benchmark + BENCH_ci.json (CI "bench" job)
bench-smoke:
	set -o pipefail; $(GO) test -bench . -benchtime 1x -run '^$$' ./... | tee bench.out
	$(GO) run ./cmd/paxosbench -benchjson bench.out -o BENCH_ci.json -context local

## fig-smoke: scaled-down full figure regeneration (CI "bench" job), then
## §5's cost claim over the msgs figure: Basic and CP send the same messages
## per try of a Paxos instance — per ballot, within 2 %, and neither runs
## a kind of ballot the other never does; also in tier-1
fig-smoke:
	$(GO) run ./cmd/paxosbench -fig all -scale 0.01 -txns 60 -q
	$(GO) test -count=1 -run 'TestMessageParityPerInstance' ./internal/bench

## shards-smoke: the horizontal-scaling sweep at smoke scale (CI "bench" job;
## the speedup column is informational at this scale), then the pinned
## 8-groups >= 2.5x floor: TestShardsScaling's wall-clock ratio is enforced
## only under -tags perfgate, i.e. here, not in tier-1 `go test ./...`
shards-smoke:
	$(GO) run ./cmd/paxosbench -fig shards -scale 0.01 -txns 240 -q
	$(GO) test -tags perfgate -count=1 -run 'TestShardsScaling' ./internal/bench

## saturation-smoke: the overload sweep at smoke scale (CI "bench" job;
## every run ends with the quiesce-aware serializability check), then
## TestSaturationPlateau with its plateau/p99 wall-clock ratios enforced
## (-tags perfgate)
saturation-smoke:
	$(GO) run ./cmd/paxosbench -fig saturation -scale 0.01 -txns 240 -q
	$(GO) test -tags perfgate -count=1 -run 'TestSaturationPlateau' ./internal/bench

## durability-smoke: the writer sweep on the disk engine's group commit (CI
## "bench" job; runs at real fsync cost, no sim scaling), then
## TestDurabilityBatchAbsorption with its w=16 >= 3x w=1 throughput ratio
## enforced (-tags perfgate; its fsync-count checks run in tier-1 too)
durability-smoke:
	$(GO) run ./cmd/paxosbench -fig durability -txns 240 -q
	$(GO) test -tags perfgate -count=1 -run 'TestDurabilityBatchAbsorption' ./internal/bench

## migration-fig-smoke: the online 8->12 grow under routed load at smoke
## scale (CI "bench" job; the bounded-pause and never-stalls assertions are
## TestMigrationQuick, which `test` runs)
migration-fig-smoke:
	$(GO) run ./cmd/paxosbench -fig migration -scale 0.01 -q

## bench-json: convert existing go-bench output (BENCH_IN) to JSON
bench-json:
	$(GO) run ./cmd/paxosbench -benchjson $(or $(BENCH_IN),bench.out) -o BENCH_ci.json -context local

## bench-compare: rerun the hot-path benchmarks and diff against the
## committed BENCH_6.json baseline, flagging >20% regressions. Pass
## STRICT=1 to make regressions fail (what CI and `make check` gate on;
## bench-compare-strict is the alias both use). Time-based benchtime, not
## a fixed iteration count: the codec and store micro-benchmarks need
## ~10^5 iterations before their ns/op is stable enough to gate on.
bench-compare:
	set -o pipefail; $(GO) test -run '^$$' -bench 'BenchmarkReadThroughput|BenchmarkMessageCodec$$|BenchmarkReadMulti' \
		-benchtime 0.5s . ./internal/network ./internal/kvstore | tee bench-compare.out
	$(GO) run ./cmd/paxosbench -benchjson bench-compare.out -o BENCH_compare.json -context compare
	$(GO) run ./cmd/paxosbench -compare BENCH_6.json -against BENCH_compare.json $(if $(STRICT),-strict)

bench-compare-strict:
	$(MAKE) bench-compare STRICT=1

## bench-e2e: the end-to-end benchmark BENCHMARK.json declares
## (benchmarks/README.md): four workloads on the real stack, each printing
## the seven gated metrics and passing its own correctness gate or exiting
## nonzero. 15 s is the run length the gate uses; CI passes E2E_SECONDS=2 to get
## the correctness gate alone. Build outputs land in .bench_build/.
E2E_SECONDS ?= 15
bench-e2e:
	bash benchmarks/run.sh --workload commit-mem --seed 1 --seconds $(E2E_SECONDS) --trace 0
	bash benchmarks/run.sh --workload commit-durable --seed 1 --seconds $(E2E_SECONDS) --trace 0
	bash benchmarks/run.sh --workload read-scan --seed 1 --seconds $(E2E_SECONDS) --trace 0
	bash benchmarks/run.sh --workload wan-contended --seed 1 --seconds $(E2E_SECONDS) --trace 0

## bench-pairs: the measurement a perf claim rests on (ROADMAP: "no gain is
## claimed without the named metric moving past its NOISE.md spread"): PAIRS
## alternating pairs of bench-e2e's command per workload, on PARENT and on
## the working tree, summarised into BENCH_$(N).json — per metric each side's
## median and quartiles, the change of the medians, the pairs the change won.
## PARENT's files are extracted under .bench_build/pairs/parent and built
## there. TRACE=1 runs the traced benchmark and fills the file's
## traced_<workload> sections; everything else already in the file is kept.
## Ten pairs of all four workloads take about 40 minutes.
PARENT ?= HEAD
PAIRS ?= 10
WORKLOADS ?= commit-mem commit-durable read-scan wan-contended
TRACE ?= 0
N ?= pairs
bench-pairs:
	$(GO) run ./cmd/paxosbench -pairs $(PAIRS) -parent $(PARENT) -workloads "$(WORKLOADS)" \
		$(if $(filter 1,$(TRACE)),-trace) -o BENCH_$(N).json

clean:
	rm -f bench.out BENCH_ci.json bench-compare.out BENCH_compare.json BENCH_pairs.json cover.txt
	rm -rf .bench_build
