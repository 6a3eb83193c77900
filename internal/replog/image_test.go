package replog

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/paxos"
	"paxoscp/internal/wal"
)

// TestReplicaImageBytesPerCommit pins what one commit leaves resident. The
// benchmark's commit-mem shape — 4 writes of 40-byte values over 10 000 keys
// per transaction, 184 B of user data — goes through what each of three
// replicas keeps per position: the position's row — the acceptor's fast-path
// vote, which the apply message's ballot lets stand as the log entry — the
// data versions and the meta row. Nothing is compacted, as in the benchmark.
// Counted with HeapAlloc after a forced GC, so there is no clock in it.
//
// With versions held as maps and a meta version kept per drain this measured
// 9 290 B per commit; packed versions and a one-version meta row 3 180 B; one
// row per position instead of a vote row beside a log row measures 2 355 B
// (±1 %). The ceiling sits a ninth above that, so the gain cannot erode
// quietly.
func TestReplicaImageBytesPerCommit(t *testing.T) {
	const (
		replicas    = 3
		commits     = 10000
		ceilingByte = 2650
	)
	type replica struct {
		acc *paxos.Acceptor
		lg  *Log
	}
	var rs []replica
	for i := 0; i < replicas; i++ {
		store := kvstore.New()
		defer store.Close()
		lg := Open(store, "g0")
		defer lg.Close()
		rs = append(rs, replica{paxos.NewAcceptor(store), lg})
	}
	rng := rand.New(rand.NewSource(1))
	value := func() string {
		b := make([]byte, 40)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	apply := func(from, to int64) {
		for pos := from; pos <= to; pos++ {
			txn := wal.Txn{ID: fmt.Sprintf("c%d-%d", pos%2, pos), Origin: "V1", ReadPos: pos - 1, Writes: map[string]string{}}
			for len(txn.Writes) < 4 {
				txn.Writes[fmt.Sprintf("k%05d", rng.Intn(10000))] = value()
			}
			entry := wal.Encode(wal.NewEntry(txn))
			for _, r := range rs {
				if res, err := r.acc.Accept("g0", pos, paxos.FastBallot, entry); err != nil || !res.OK {
					t.Fatalf("accept %d: %+v %v", pos, res, err)
				}
				if _, err := r.lg.AppendChosen(pos, paxos.FastBallot, entry); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range rs {
			if err := r.lg.WaitApplied(waitCtx(t), to); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	// Warm up past the one-time costs: every data row exists, the decoded
	// entry caches are full, slices have reached their working capacity.
	apply(1, commits)
	before := heap()
	apply(commits+1, 2*commits)
	perCommit := (heap() - before) / commits
	t.Logf("%d B resident per commit across %d replicas", perCommit, replicas)
	if perCommit > ceilingByte {
		t.Fatalf("a commit leaves %d B resident across %d replicas, ceiling %d", perCommit, replicas, ceilingByte)
	}
	runtime.KeepAlive(rs)
}
