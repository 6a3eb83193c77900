// Command txkvd runs one datacenter's transaction tier over real UDP: the
// multi-version key-value store, the Paxos acceptor, and the Transaction
// Service, serving the full protocol (prepare/accept/apply, reads, leader
// claims, catch-up) on a UDP socket — the same transport the paper's
// prototype used.
//
// A three-datacenter deployment on one machine:
//
//	txkvd -dc V1 -bind 127.0.0.1:7001 -peers V1=127.0.0.1:7001,V2=127.0.0.1:7002,V3=127.0.0.1:7003
//	txkvd -dc V2 -bind 127.0.0.1:7002 -peers V1=127.0.0.1:7001,V2=127.0.0.1:7002,V3=127.0.0.1:7003
//	txkvd -dc V3 -bind 127.0.0.1:7003 -peers V1=127.0.0.1:7001,V2=127.0.0.1:7002,V3=127.0.0.1:7003
//
// Then run transactions with txkvctl.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/placement"
)

func main() {
	var (
		dc       = flag.String("dc", "", "this datacenter's name (required)")
		bind     = flag.String("bind", "127.0.0.1:0", "UDP address to listen on")
		peers    = flag.String("peers", "", "comma-separated name=addr peer list, including self (required)")
		timeout  = flag.Duration("timeout", network.DefaultTimeout, "message-loss detection timeout")
		dataDir  = flag.String("data-dir", "", "durable data directory: write-ahead log + snapshots; a kill -9'd daemon restarts from it with nothing acknowledged lost (empty = in-memory only)")
		fsyncPol = flag.String("fsync", "batch", "WAL fsync policy when -data-dir is set: sync (fsync per write), batch (group commit), interval (timer-based, may lose the last interval on power loss)")
		window   = flag.Int("submit-window", core.DefaultSubmitWindow, "master submit pipeline depth (positions in flight per group; 1 = serial)")
		combine  = flag.Int("submit-combine", core.DefaultSubmitCombine, "max transactions combined per log entry on the master submit path")
		subQueue = flag.Int("submit-queue", core.DefaultSubmitQueue, "per-group submit admission cap: beyond this queue depth new submits fail fast with the retryable 'overloaded' marker (negative = unbounded)")
		lease    = flag.Duration("lease", 0, "master lease duration for epoch-fenced mastership (0 = 4x timeout)")
		groups   = flag.Int("groups", 0, "pre-open this many sharded transaction groups (g0..gN-1) at startup; 0 opens groups lazily on first traffic")
	)
	flag.Parse()
	if *dc == "" || *peers == "" {
		flag.Usage()
		os.Exit(2)
	}
	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("txkvd: %v", err)
	}
	if _, ok := peerMap[*dc]; !ok {
		log.Fatalf("txkvd: peer list must include this datacenter %q", *dc)
	}

	store := kvstore.New()
	if *dataDir != "" {
		policy, err := disk.ParsePolicy(*fsyncPol)
		if err != nil {
			log.Fatalf("txkvd: %v", err)
		}
		// disk.Open replays the WAL tail over the newest snapshot and logs a
		// "disk: recovered ..." line (docs/OPERATIONS.md explains the fields).
		// Everything above the store — acceptor promises, log entries, applied
		// watermarks, epochs — lives in store rows, so recovering the store
		// recovers the whole replica.
		var engine *disk.Engine
		store, engine, err = disk.Open(*dataDir, disk.Options{
			Fsync: policy,
			Logf:  log.Printf,
			// Background scrub: re-verify sealed segments and snapshots
			// every 10 minutes so bit rot is a health alert (GroupStatus
			// fault/scrub fields, txkvctl status), not a surprise at the
			// next recovery.
			ScrubInterval: 10 * time.Minute,
			// A fail-stopped engine is an operator event, not a log whisper:
			// the engine already prints its two ERROR lines, this adds the
			// daemon-level alert with the operational next step.
			OnFail: func(err error) {
				log.Printf("txkvd: ERROR: STORAGE ENGINE FAILED (fail-stop): %v", err)
				log.Printf("txkvd: ERROR: this replica refuses all mutations with verdict %q; clients fail over once the lease lapses — replace the disk and restart", network.VerdictReplicaFailed)
			},
		})
		if err != nil {
			log.Fatalf("txkvd: %v", err)
		}
		if ferr := engine.Fault(); ferr != nil {
			// Refuse to serve on storage that is already dead: a daemon that
			// came up poisoned would answer reads while silently refusing
			// every write. Exit non-zero so supervisors see the failure.
			store.Close()
			log.Fatalf("txkvd: storage engine poisoned at startup: %v", ferr)
		}
		if lerr := paxos.CheckLayout(store); lerr != nil {
			store.Close()
			log.Fatalf("txkvd: %v", lerr)
		}
		log.Printf("txkvd: %d rows recovered from %s (fsync=%s)", store.Len(), *dataDir, policy)
	}
	// Two-phase wiring: the UDP transport needs the handler, and the
	// service needs the transport (for catch-up). The async registration
	// keeps the UDP read loop non-blocking: requests run on the service's
	// sharded dispatch workers and submits hold no goroutine while their
	// position replicates (DESIGN.md §13).
	var service *core.Service
	transport, err := network.NewUDPAsync(*dc, *bind, peerMap, func(from string, req network.Message, reply func(network.Message)) {
		service.AsyncHandler()(from, req, reply)
	})
	if err != nil {
		log.Fatalf("txkvd: %v", err)
	}
	opts := []core.ServiceOption{
		core.WithServiceTimeout(*timeout),
		core.WithSubmitWindow(*window), core.WithSubmitCombine(*combine),
		core.WithSubmitQueue(*subQueue),
	}
	if *lease > 0 {
		opts = append(opts, core.WithLeaseDuration(*lease))
	}
	service = core.NewService(*dc, store, transport, opts...)
	if *groups > 0 {
		// Pre-open the placement's group logs: recovery state is rebuilt now
		// rather than on first traffic, and status/discovery reports the full
		// group set immediately (DESIGN.md §12).
		service.EnsureGroups(placement.GroupNames(*groups)...)
		log.Printf("txkvd: serving %d sharded groups (%s..%s)",
			*groups, placement.GroupNames(*groups)[0], placement.GroupNames(*groups)[*groups-1])
	}

	log.Printf("txkvd: datacenter %s serving on %s (%d peers, timeout %v)",
		*dc, transport.LocalAddr(), len(peerMap), *timeout)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("txkvd: shutting down")
	transport.Close()
	service.Close()
	// Closing the store flushes and fsyncs the engine's queue; with -data-dir
	// every acknowledged write is already durable per the fsync policy, so a
	// clean shutdown and a kill -9 recover identically (minus the unflushed
	// tail under -fsync interval).
	store.Close()
	if *dataDir != "" {
		log.Printf("txkvd: state durable in %s", *dataDir)
	}
	time.Sleep(50 * time.Millisecond)
}

func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range splitNonEmpty(s, ',') {
		kv := splitNonEmpty(part, '=')
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want name=addr)", part)
		}
		out[kv[0]] = kv[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty peer list")
	}
	return out, nil
}

func splitNonEmpty(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
