#!/usr/bin/env bash
# Flake census: how often does each test fail under CPU load?
#
#   scripts/flakecensus.sh [-n COUNT] [-run REGEX] PKG...
#
# Builds each package's test binary first (compiling is not measured), then
# starts one busy loop (`yes > /dev/null`) per core and runs every binary with
# -test.count=COUNT (default 10) and -test.cpu=1,2, so each test runs
# 2 x COUNT times. Prints one row per test that failed at least once — test,
# failures/runs, the first failure's first line — and a total row per
# package. A binary that dies part-way (a panic, a fatal error) runs none of
# its remaining tests: its total row then says "binary aborted" and how many
# runs were expected. Exits 1 if any test failed or any binary aborted.
set -euo pipefail

count=10 run=.
while [[ $# -gt 0 ]]; do
	case $1 in
	-n) count=$2; shift 2 ;;
	-run) run=$2; shift 2 ;;
	-*) echo "flakecensus: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
[[ $# -gt 0 ]] || { echo "usage: $0 [-n COUNT] [-run REGEX] PKG..." >&2; exit 2; }

bin=$(mktemp -d)
burners=()
cleanup() {
	[[ ${#burners[@]} -eq 0 ]] || kill "${burners[@]}" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

pkgs=("$@")
for i in "${!pkgs[@]}"; do
	go test -c -o "$bin/$i.test" "${pkgs[$i]}"
done
for ((i = 0; i < $(nproc); i++)); do
	yes >/dev/null &
	burners+=($!)
done

failed=0
printf '%-48s %9s  %s\n' test fail/runs "first failure line"
for i in "${!pkgs[@]}"; do
	# A test binary runs in its package directory, as under go test.
	dir=$(go list -f '{{.Dir}}' "${pkgs[$i]}")
	# Every listed test and fuzz target runs (or skips) once per count and
	# per -cpu value, an example once in all; benchmarks do not run.
	list=$(cd "$dir" && "$bin/$i.test" -test.list="$run")
	ntests=$(grep -c '^\(Test\|Fuzz\)' <<<"$list" || true)
	nexamples=$(grep -c '^Example' <<<"$list" || true)
	(cd "$dir" && go tool test2json -t "$bin/$i.test" -test.v=test2json \
		-test.count="$count" -test.cpu=1,2 -test.run="$run" -test.timeout=0 || true) |
		jq -r 'select(.Test != null) | [.Action, .Test, (.Output // "" | rtrimstr("\n"))] | @tsv' |
		awk -F'\t' -v pkg="${pkgs[$i]}" -v expect=$((ntests * count * 2 + nexamples)) '
			{ top = $2; sub(/\/.*/, "", top) }
			$1 == "run" && top == $2 { line[top] = "" }
			$1 == "output" && line[top] == "" && $3 ~ /^ *([^ ]+_test\.go:[0-9]+:|panic:)/ {
				l = $3; sub(/^ +/, "", l); line[top] = l
			}
			($1 == "pass" || $1 == "fail") && top == $2 { runs[top]++; total++ }
			$1 == "skip" && top == $2 { skipped++ }
			$1 == "fail" && top == $2 {
				fails[top]++; nfail++
				if (!(top in first)) first[top] = line[top]
			}
			END {
				for (t in fails) printf "%-48s %4d/%-4d  %s\n", t, fails[t], runs[t], first[t] | "sort -k2,2nr"
				close("sort -k2,2nr")
				note = ""
				if (total + skipped < expect) note = sprintf(", binary aborted: %d of %d runs", total + skipped, expect)
				printf "%-48s %4d/%-4d  %d tests%s\n", "(" pkg ")", nfail, total, length(runs), note
				exit nfail > 0 || note != ""
			}' || failed=1
done
exit "$failed"
