// Command txkvctl is a client for a txkvd cluster: it executes transactions
// over UDP against the multi-datacenter datastore.
//
// Usage (against the txkvd example deployment):
//
//	txkvctl -local V1 -peers V1=127.0.0.1:7001,V2=127.0.0.1:7002,V3=127.0.0.1:7003 get mykey
//	txkvctl -local V1 -peers ... set mykey hello
//	txkvctl -local V1 -peers ... -protocol cp txn "get a" "set b 1" "get c"
//	txkvctl -local V1 -peers ... status
//
// Subcommands:
//
//	get KEY...         read keys (read-only transaction; several keys are
//	                   fetched in one batched round trip at one snapshot)
//	set KEY VALUE      write one key (read/write transaction)
//	txn OP...          run a multi-operation transaction; each OP is
//	                   "get KEY" or "set KEY VALUE"
//	scan PREFIX        ordered range scan: every key with the prefix, in key
//	                   order, at one snapshot per group (DESIGN.md §16). With
//	                   -groups it merges one scan per owning group and follows
//	                   live-migration hints; without, it pages one group
//	                   (-group) directly
//	status             print every replica's view of the group (applied and
//	                   compaction horizons, log/data sizes, computed leader,
//	                   and the full group set the replica serves)
//	compact HORIZON    scavenge log state below HORIZON on every replica
//	grow TARGET        rescale a -groups deployment online to TARGET groups:
//	                   drives the live-migration coordinator (DESIGN.md §15)
//	                   against the daemons — backfill, delta rounds, fenced
//	                   cutover per range — printing each handoff as it
//	                   commits; afterwards invoke clients with -groups TARGET
//	migrations         print every group's applied handoff records (the
//	                   operator-facing migration status), one group per line
//
// With -groups N the keyspace is sharded over N transaction groups
// (g0..gN-1, DESIGN.md §12) and get/set route each key to its owning group
// through the same rendezvous placement every other process computes: get
// fans out one batched read per owning group (per-group snapshot positions
// are printed), set commits on the key's owning group, -protocol master
// spreads per-group masterships across the sorted peer list, and status
// probes the first placement group (its reply lists every group the replica
// serves). grow and migrations also require -groups: -groups names the
// current placement, grow's TARGET the new one. txn and compact stay
// group-scoped: cross-group transactions do not exist in the data model
// (§2.1), and group logs have independent compaction horizons — use -group
// for both.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

func main() {
	var (
		local    = flag.String("local", "", "local datacenter name (required)")
		peers    = flag.String("peers", "", "comma-separated name=addr peer list (required)")
		group    = flag.String("group", "default", "transaction group key (single-group mode)")
		groups   = flag.Int("groups", 0, "shard the keyspace over N groups (g0..gN-1) and route get/set by key; 0 = single-group mode")
		protocol = flag.String("protocol", "cp", "commit protocol: basic | cp | master")
		masterDC = flag.String("master", "", "master datacenter for -protocol master (default: first peer)")
		clientID = flag.Int("id", os.Getpid()%10000, "unique client id")
		timeout  = flag.Duration("timeout", network.DefaultTimeout, "message timeout")
	)
	flag.Parse()
	args := flag.Args()
	if *local == "" || *peers == "" || len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	peerMap := map[string]string{}
	for _, part := range strings.Split(*peers, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			log.Fatalf("txkvctl: bad peer entry %q", part)
		}
		peerMap[kv[0]] = kv[1]
	}
	// The sorted peer list is the deterministic datacenter order every routed
	// client computes master spreads over (DESIGN.md §12); grow seeds the
	// migration coordinator's master lookups from the same order.
	dcs := make([]string, 0, len(peerMap))
	for name := range peerMap {
		dcs = append(dcs, name)
	}
	sort.Strings(dcs)

	transport, err := network.NewUDP(fmt.Sprintf("%s-client-%d", *local, *clientID),
		"127.0.0.1:0", peerMap, func(string, network.Message) network.Message {
			return network.Status(false, "client endpoint")
		})
	if err != nil {
		log.Fatalf("txkvctl: %v", err)
	}
	defer transport.Close()

	cfg := core.Config{Timeout: *timeout}
	var place *placement.Placement
	if *groups > 0 {
		place = placement.NewN(*groups)
	}
	switch strings.ToLower(*protocol) {
	case "basic":
	case "cp":
		cfg.Protocol = core.CP
	case "master":
		cfg.Protocol = core.Master
		cfg.MasterDC = *masterDC
		if place != nil && *masterDC == "" {
			// Routed mode spreads per-group masterships across the sorted
			// peer list, the same deterministic spread every routed client
			// computes (DESIGN.md §12).
			cfg.MasterFor = func(group string) string {
				if i := place.IndexOf(group); i >= 0 {
					return dcs[i%len(dcs)]
				}
				return ""
			}
		}
	default:
		log.Fatalf("txkvctl: unknown protocol %q (basic | cp | master)", *protocol)
	}
	client := core.NewClient(*clientID, *local, transport, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	switch args[0] {
	case "get":
		if len(args) < 2 {
			log.Fatal("txkvctl: get KEY...")
		}
		if place != nil {
			runRoutedGet(ctx, core.NewKV(client, place), args[1:])
			return
		}
		runGet(ctx, client, *group, args[1:])
	case "set":
		if len(args) != 3 {
			log.Fatal("txkvctl: set KEY VALUE")
		}
		if place != nil {
			runRoutedSet(ctx, core.NewKV(client, place), args[1], args[2])
			return
		}
		runTxn(ctx, client, *group, []string{"set " + args[1] + " " + args[2]})
	case "txn":
		runTxn(ctx, client, *group, args[1:])
	case "scan":
		if len(args) != 2 {
			log.Fatal("txkvctl: scan PREFIX")
		}
		if place != nil {
			runRoutedScan(ctx, core.NewKV(client, place), args[1])
			return
		}
		runScan(ctx, client, *group, args[1])
	case "status":
		// In routed mode, probe a real placement group: querying the
		// single-group default would lazily materialize a phantom "default"
		// group on every replica and pollute the discovery output.
		statusGroup := *group
		if place != nil {
			statusGroup = place.Groups()[0]
		}
		for name := range peerMap {
			cctx, cancel := context.WithTimeout(ctx, *timeout)
			resp, err := transport.Send(cctx, name, network.Message{Kind: network.KindStats, Group: statusGroup})
			cancel()
			if err != nil || !resp.OK {
				fmt.Printf("%-6s unreachable (%v%s)\n", name, err, resp.Err)
				continue
			}
			st, err := core.ParseGroupStatus(resp.Payload)
			if err != nil {
				log.Fatalf("txkvctl: bad status payload: %v", err)
			}
			lease := ""
			if st.Master != "" {
				lease = fmt.Sprintf(" epoch=%d master=%s lease=%v", st.Epoch, st.Master, st.LeaseValid)
			}
			discovered := ""
			if len(st.Groups) > 1 {
				discovered = fmt.Sprintf(" groups=%d[%s]", len(st.Groups), strings.Join(st.Groups, ","))
			}
			// Engine health: a faulted replica serves reads but refuses
			// every mutation (fail-stop); scrub findings are rot detected
			// in sealed files that recovery would otherwise hit first.
			// Applied handoff records mean the group has migrated ranges in
			// or out; the migrations subcommand prints the full records.
			migs := ""
			if len(st.Migrations) > 0 {
				migs = fmt.Sprintf(" migrations=%d", len(st.Migrations))
			}
			health := ""
			if st.Fault != "" {
				health = fmt.Sprintf(" FAULT=%q", st.Fault)
			}
			if len(st.ScrubCorrupt) > 0 {
				health += fmt.Sprintf(" SCRUB-CORRUPT=[%s]", strings.Join(st.ScrubCorrupt, ","))
			} else if st.ScrubRuns > 0 {
				health += fmt.Sprintf(" scrubs=%d", st.ScrubRuns)
			}
			fmt.Printf("%-6s applied=%-6d compacted=%-6d logEntries=%-6d dataKeys=%-6d leader=%s%s%s%s%s\n",
				st.DC, st.LastApplied, st.CompactedTo, st.LogEntries, st.DataKeys, st.Leader, lease, discovered, migs, health)
		}
	case "grow":
		if place == nil {
			log.Fatal("txkvctl: grow requires -groups N (the current group count)")
		}
		if len(args) != 2 {
			log.Fatal("txkvctl: grow TARGET")
		}
		target, err := strconv.Atoi(args[1])
		if err != nil || target <= 0 {
			log.Fatalf("txkvctl: bad target group count %q", args[1])
		}
		runGrow(place, target, dcs, func(cfg core.Config) *core.Client {
			cfg.Timeout = *timeout
			return core.NewClient(*clientID, *local, transport, cfg)
		})
	case "migrations":
		if place == nil {
			log.Fatal("txkvctl: migrations requires -groups N")
		}
		runMigrations(ctx, transport, dcs, place, *timeout)
	case "compact":
		if len(args) != 2 {
			log.Fatal("txkvctl: compact HORIZON")
		}
		if place != nil {
			// Group logs have independent heights, so one horizon cannot
			// apply across a sharded deployment; compaction stays group-
			// scoped (and must not materialize the single-group default).
			log.Fatal("txkvctl: compact is group-scoped; use -group GROUP (without -groups)")
		}
		horizon, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			log.Fatalf("txkvctl: bad horizon %q", args[1])
		}
		for name := range peerMap {
			cctx, cancel := context.WithTimeout(ctx, *timeout)
			resp, err := transport.Send(cctx, name, network.Message{
				Kind: network.KindCompact, Group: *group, TS: horizon,
			})
			cancel()
			if err != nil || !resp.OK {
				fmt.Printf("%-6s compact failed (%v%s)\n", name, err, resp.Err)
				continue
			}
			fmt.Printf("%-6s compacted to %d\n", name, resp.TS)
		}
	default:
		log.Fatalf("txkvctl: unknown subcommand %q", args[0])
	}
}

// runGrow rescales a sharded deployment online (DESIGN.md §15): it drives
// the live-migration coordinator against the daemons, one growth step per
// added group — snapshot backfill at a pinned position, delta rounds, then
// the four fenced handoff entries per (from → added) range — printing each
// handoff as it commits. Routing is client-side, so the grow changes no
// daemon configuration: once it completes, clients invoked with -groups
// TARGET route through the new placement, and stragglers still passing the
// old count are redirected by the protocol's moved verdicts.
func runGrow(place *placement.Placement, target int, dcs []string, newClient func(core.Config) *core.Client) {
	have := len(place.Groups())
	if target <= have {
		log.Fatalf("txkvctl: grow to %d groups: already have %d", target, have)
	}
	extras := placement.GroupNames(target)[have:]
	// A grow is long-running by design: backfill is paced by range size, and
	// the coordinator stalls through fault windows instead of aborting.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for _, step := range place.Plan(extras...) {
		step := step
		fmt.Printf("step %s: migrating %d ranges\n", step.Added, len(step.Pairs))
		mig := &core.Migrator{
			// Seed master lookups from the post-step spread over the sorted
			// peer list — the spread routed clients will compute once they
			// adopt the grown placement. A stale seed only costs redirect
			// hops: the coordinator follows not-master hints.
			Client: newClient(core.Config{Protocol: core.Master, MasterFor: func(group string) string {
				if i := step.To.IndexOf(group); i >= 0 {
					return dcs[i%len(dcs)]
				}
				return ""
			}}),
			OnPhase: func(h wal.Handoff, pos int64) {
				fmt.Printf("  %-9s %s->%s v%d @%d\n", h.Phase, h.From, h.To, h.Version, pos)
			},
		}
		if err := mig.Step(ctx, step); err != nil {
			log.Fatalf("txkvctl: grow step %s: %v", step.Added, err)
		}
	}
	fmt.Printf("grown to %d groups; invoke clients with -groups %d\n", target, target)
}

// runMigrations prints every placement group's applied handoff records — the
// operator-facing live-migration status — as served by the first reachable
// replica per group (the records are replicated log contents, identical on
// every caught-up replica).
func runMigrations(ctx context.Context, transport network.Transport, dcs []string, place *placement.Placement, timeout time.Duration) {
	for _, g := range place.Groups() {
		line := "(no replica reachable)"
		for _, dc := range dcs {
			cctx, cancel := context.WithTimeout(ctx, timeout)
			resp, err := transport.Send(cctx, dc, network.Message{Kind: network.KindStats, Group: g})
			cancel()
			if err != nil || !resp.OK {
				continue
			}
			st, perr := core.ParseGroupStatus(resp.Payload)
			if perr != nil {
				log.Fatalf("txkvctl: bad status payload: %v", perr)
			}
			if len(st.Migrations) == 0 {
				line = "(none)"
			} else {
				line = strings.Join(st.Migrations, "; ")
			}
			line += fmt.Sprintf("  [from %s]", dc)
			break
		}
		fmt.Printf("%-5s %s\n", g, line)
	}
}

// runRoutedGet reads keys across their owning groups: one batched read per
// group, concurrent legs, results in input order with the per-group
// snapshot positions printed.
func runRoutedGet(ctx context.Context, kv *core.KV, keys []string) {
	res, err := kv.ReadMulti(ctx, keys...)
	if err != nil {
		log.Fatalf("txkvctl: read: %v", err)
	}
	for i, k := range keys {
		group := kv.Router().GroupFor(k)
		if res.Founds[i] {
			fmt.Printf("%s = %q (group %s)\n", k, res.Vals[i], group)
		} else {
			fmt.Printf("%s = (unset) (group %s)\n", k, group)
		}
	}
	groups := make([]string, 0, len(res.Positions))
	for g := range res.Positions {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Printf("group %s read position %d\n", g, res.Positions[g])
	}
}

// runRoutedSet writes one key on its owning group.
func runRoutedSet(ctx context.Context, kv *core.KV, key, value string) {
	group := kv.Router().GroupFor(key)
	res, err := kv.Put(ctx, key, value)
	if err != nil {
		log.Fatalf("txkvctl: set %q: %v", key, err)
	}
	switch res.Status {
	case stats.Committed:
		fmt.Printf("committed at %s/%d (round %d, %.0fms)\n",
			group, res.Pos, res.Round, float64(res.Latency)/float64(time.Millisecond))
	default:
		fmt.Printf("%s on group %s after %.0fms\n",
			res.Status, group, float64(res.Latency)/float64(time.Millisecond))
		os.Exit(1)
	}
}

// runRoutedScan reads every key with the prefix across its owning groups:
// one ordered scan per group merged into one ascending key order, following
// migration hints so the scan stays complete during a live grow.
func runRoutedScan(ctx context.Context, kv *core.KV, prefix string) {
	res, err := kv.Scan(ctx, prefix)
	if err != nil {
		log.Fatalf("txkvctl: scan %q: %v", prefix, err)
	}
	for _, e := range res.Entries {
		fmt.Printf("%s = %q\n", e.Key, e.Value)
	}
	groups := make([]string, 0, len(res.Positions))
	for g := range res.Positions {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Printf("group %s scan position %d\n", g, res.Positions[g])
	}
	fmt.Printf("%d keys\n", len(res.Entries))
}

// runScan pages one group's prefix region in a read-only transaction: every
// page is served at the transaction's read position, so the whole scan is one
// snapshot.
func runScan(ctx context.Context, client *core.Client, group, prefix string) {
	tx, err := client.Begin(ctx, group)
	if err != nil {
		log.Fatalf("txkvctl: begin: %v", err)
	}
	defer tx.Abort()
	sc := tx.Scan(prefix)
	n := 0
	for sc.Next(ctx) {
		fmt.Printf("%s = %q\n", sc.Key(), sc.Value())
		n++
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("txkvctl: scan %q: %v", prefix, err)
	}
	fmt.Printf("%d keys at read position %d\n", n, tx.ReadPos())
}

// runGet reads one or more keys in a single read-only transaction; multiple
// keys travel as one batched ReadMulti round trip served at one snapshot.
func runGet(ctx context.Context, client *core.Client, group string, keys []string) {
	tx, err := client.Begin(ctx, group)
	if err != nil {
		log.Fatalf("txkvctl: begin: %v", err)
	}
	vals, found, err := tx.ReadMulti(ctx, keys...)
	if err != nil {
		log.Fatalf("txkvctl: read: %v", err)
	}
	for i, k := range keys {
		if found[i] {
			fmt.Printf("%s = %q\n", k, vals[i])
		} else {
			fmt.Printf("%s = (unset)\n", k)
		}
	}
	fmt.Printf("read position %d\n", tx.ReadPos())
}

func runTxn(ctx context.Context, client *core.Client, group string, ops []string) {
	tx, err := client.Begin(ctx, group)
	if err != nil {
		log.Fatalf("txkvctl: begin: %v", err)
	}
	for _, op := range ops {
		fields := strings.Fields(op)
		switch {
		case len(fields) == 2 && fields[0] == "get":
			v, found, err := tx.Read(ctx, fields[1])
			if err != nil {
				log.Fatalf("txkvctl: read %q: %v", fields[1], err)
			}
			if found {
				fmt.Printf("%s = %q\n", fields[1], v)
			} else {
				fmt.Printf("%s = (unset)\n", fields[1])
			}
		case len(fields) >= 3 && fields[0] == "set":
			tx.Write(fields[1], strings.Join(fields[2:], " "))
		default:
			log.Fatalf("txkvctl: bad operation %q (want \"get KEY\" or \"set KEY VALUE\")", op)
		}
	}
	res, err := tx.Commit(ctx)
	if err != nil {
		log.Fatalf("txkvctl: commit: %v", err)
	}
	switch res.Status {
	case stats.Committed:
		fmt.Printf("committed at position %d (round %d, %.0fms)\n",
			res.Pos, res.Round, float64(res.Latency)/float64(time.Millisecond))
	default:
		fmt.Printf("%s after %.0fms (round %d)\n",
			res.Status, float64(res.Latency)/float64(time.Millisecond), res.Round)
		os.Exit(1)
	}
}
