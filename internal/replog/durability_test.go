package replog

import (
	"os"
	"strconv"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/kvstore/disk/faultfs"
	"paxoscp/internal/paxos"
)

// reopen simulates power loss and recovery for a disk-backed log: crash the
// engine (discarding anything not yet durable), then recover the directory
// and rebuild the log from the recovered rows.
func reopen(t *testing.T, dir string, eng *disk.Engine, store *kvstore.Store, l *Log) (*Log, *kvstore.Store, *disk.Engine) {
	t.Helper()
	l.Close()
	eng.Crash()
	store.Close()
	store2, eng2, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	l2 := Open(store2, "g")
	t.Cleanup(l2.Close)
	return l2, store2, eng2
}

// TestSnapshotInstallThenCrashReplay exercises the interplay between a peer
// snapshot install (the core.Service catch-up path: data rows via ApplyBatch,
// then InstallSnapshot jumps the watermark and adopts the epoch) and the disk
// engine's own WAL/snapshot recovery. After a power loss, recovery must
// rebuild the installed horizon, the adopted epoch, and everything appended
// above the horizon — the install must be exactly as durable as a normal
// sequence of applies.
func TestSnapshotInstallThenCrashReplay(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")

	// A peer snapshot at horizon 7: data rows land first (ApplyBatch with
	// original version timestamps), then the watermark jumps.
	err = store.ApplyBatch([]kvstore.BatchWrite{
		{Key: "x", Value: kvstore.Value{"v": "7"}, TS: 7},
		{Key: "y", Value: kvstore.Value{"v": "5"}, TS: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := EpochState{Epoch: 3, Master: "B", Pos: 6}
	if err := l.InstallSnapshot(7, epoch, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	// Normal traffic continues above the horizon.
	if _, err := l.Append(8, testEntry("t8", 7, map[string]string{"x": "8"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 8); err != nil {
		t.Fatal(err)
	}

	l2, store2, _ := reopen(t, dir, eng, store, l)
	if got := l2.Applied(); got != 8 {
		t.Fatalf("recovered watermark = %d, want 8 (snapshot horizon 7 + one append)", got)
	}
	if got := l2.CompactedTo(); got != 7 {
		t.Fatalf("recovered compaction horizon = %d, want 7", got)
	}
	if got := l2.Epoch(); got != epoch {
		t.Fatalf("recovered epoch = %+v, want %+v (adopted from the snapshot)", got, epoch)
	}
	if _, ok := l2.Entry(8); !ok {
		t.Fatal("entry appended above the installed horizon lost in recovery")
	}
	for key, want := range map[string]string{"x": "7", "y": "5"} {
		v, _, err := store2.Read(key, 7)
		if err != nil || v["v"] != want {
			t.Fatalf("installed data row %q after recovery = %v (err %v), want v=%s", key, v, err, want)
		}
	}
}

// TestInterruptedInstallRecoversBehindData pins invariant D3 for the install
// path: the data batch is logged before the meta-row watermark jump, so a
// crash between the two recovers with the old watermark and the new data
// rows — watermark ≤ data, never the reverse (a watermark ahead of its data
// would serve phantom log positions). Re-running the install afterwards
// completes it, exactly as the catch-up protocol would on its next attempt.
func TestInterruptedInstallRecoversBehindData(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	// Data rows land... and the power goes out before InstallSnapshot.
	err = store.ApplyBatch([]kvstore.BatchWrite{
		{Key: "x", Value: kvstore.Value{"v": "7"}, TS: 7},
	})
	if err != nil {
		t.Fatal(err)
	}

	l2, store2, _ := reopen(t, dir, eng, store, l)
	if got := l2.Applied(); got != 1 {
		t.Fatalf("recovered watermark = %d, want 1 (the install never committed its meta row)", got)
	}
	if v, _, err := store2.Read("x", 7); err != nil || v["v"] != "7" {
		t.Fatalf("data row from the interrupted install = %v (err %v), want v=7", v, err)
	}
	// The retried install is idempotent over the surviving data rows.
	if err := l2.InstallSnapshot(7, EpochState{Epoch: 2, Master: "B", Pos: 6}, MigrationState{}); err != nil {
		t.Fatalf("retried install: %v", err)
	}
	if got := l2.Applied(); got != 7 {
		t.Fatalf("watermark after retried install = %d, want 7", got)
	}
}

// applyDecided is what core.Service.ApplyDecided does with a Log: append,
// then wait for the batch that makes the entry durable — the watermark when
// pos is contiguous, its log row alone when it sits above a gap.
func applyDecided(t *testing.T, l *Log, pos int64, entry []byte) error {
	t.Helper()
	h, err := l.Append(pos, entry)
	if err != nil {
		return err
	}
	if h < pos {
		return l.WaitLogged(waitCtx(t), pos)
	}
	return l.WaitApplied(waitCtx(t), h)
}

// TestAcknowledgedEntrySurvivesPowerLoss pins invariant R2 where it is
// cashed in: an entry whose apply was acknowledged is in the log a replica
// recovers after losing power, whether it arrived in order or above a gap.
// Append itself writes nothing, so this holds only because the waits release
// after the drain's batch — log row included — is flushed.
func TestAcknowledgedEntrySurvivesPowerLoss(t *testing.T) {
	entry := func(pos int64) []byte {
		return testEntry("t"+strconv.FormatInt(pos, 10), pos-1, map[string]string{"x": strconv.FormatInt(pos, 10)})
	}
	for _, tc := range []struct {
		name        string
		arrival     []int64
		wantApplied int64
	}{
		{"contiguous", []int64{1, 2}, 2},
		{"gapped", []int64{2, 3}, 0},
		{"gap filled last", []int64{2, 3, 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, eng, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			l := Open(store, "g")
			for _, pos := range tc.arrival {
				if err := applyDecided(t, l, pos, entry(pos)); err != nil {
					t.Fatalf("apply %d: %v", pos, err)
				}
			}
			l2, _, _ := reopen(t, dir, eng, store, l)
			snap := l2.Snapshot()
			for _, pos := range tc.arrival {
				if e, ok := snap[pos]; !ok || !e.Contains("t"+strconv.FormatInt(pos, 10)) {
					t.Errorf("acknowledged entry %d missing from the recovered log: %v", pos, snap)
				}
			}
			if got := l2.Applied(); got != tc.wantApplied {
				t.Errorf("recovered watermark = %d, want %d", got, tc.wantApplied)
			}
		})
	}
}

// TestTornBatchRecoversByRedrain tears a drain's batch between its log rows
// and its meta row — the power fails while the kernel copies the buffer —
// and checks the widened D3: what recovers is the old watermark under the new
// log rows, never a watermark over a missing row, and Open re-drains the rows
// to the state the whole batch would have left.
func TestTornBatchRecoversByRedrain(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	store, _, err := disk.Open(dir, disk.Options{FS: inj, Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")
	entry := func(pos int64) []byte {
		return testEntry("t"+strconv.FormatInt(pos, 10), 0, map[string]string{"x": strconv.FormatInt(pos, 10)})
	}
	walBytes := func() int64 {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return n
	}
	if err := applyDecided(t, l, 1, entry(1)); err != nil {
		t.Fatal(err)
	}
	// An entry above the gap at 2 is logged alone: its batch is one log-row
	// record, which sizes the record of the same-shaped entry 2.
	before := walBytes()
	if err := applyDecided(t, l, 3, entry(3)); err != nil {
		t.Fatal(err)
	}
	logRowBytes := int(walBytes() - before)
	if logRowBytes <= 0 {
		t.Fatalf("gapped entry's batch wrote %d bytes", logRowBytes)
	}
	// Entry 2's batch is [log row 2, data of 2 and 3, meta row]: keep the log
	// row and the first bytes of the record after it.
	inj.TornWrite(logRowBytes + 3)
	if err := applyDecided(t, l, 2, entry(2)); err == nil {
		t.Fatal("an apply whose batch was torn was acknowledged")
	}
	l.Close()
	store.Close()

	store2, _, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	row, _, err := store2.ReadPacked(MetaKey("g"), kvstore.Latest)
	if err != nil {
		t.Fatal(err)
	}
	if meta, err := readMeta(row); err != nil || meta.last != 1 {
		t.Fatalf("recovered meta row has watermark %d (%v), want the old one, 1", meta.last, err)
	}
	for pos := int64(2); pos <= 3; pos++ {
		if _, _, err := store2.ReadPacked(paxos.StateKey("g", pos), kvstore.Latest); err != nil {
			t.Fatalf("log row %d did not survive the torn batch: %v", pos, err)
		}
	}
	l2 := Open(store2, "g")
	defer l2.Close()
	if got := l2.Applied(); got != 3 {
		t.Fatalf("watermark after re-drain = %d, want 3", got)
	}
	if v, ts, err := store2.Read(DataKey("g", "x"), kvstore.Latest); err != nil || ts != 3 || v["v"] != "3" {
		t.Fatalf("x after re-drain = %v@%d %v, want 3@3", v, ts, err)
	}
}

// TestVoteIsTheEntryAcrossPowerLoss walks the three states a position's row
// can be recovered in. A standing vote under a durable watermark — no decided
// record was ever written — is the entry. A flushed vote above the watermark
// with no mark is acceptor state: not in the log, and still the acceptor's to
// report. A row marked decided above a gap goes back into the pending set and
// applies when the gap fills.
func TestVoteIsTheEntryAcrossPowerLoss(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{FS: faultfs.New(nil), Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")
	acc := paxos.NewAcceptor(store)
	for pos := int64(1); pos <= 4; pos++ { // each accept returns with its vote flushed
		if res, err := acc.Accept("g", pos, paxos.FastBallot, posEntry(pos)); err != nil || !res.OK {
			t.Fatalf("accept %d: %+v %v", pos, res, err)
		}
	}
	// 1: decided with its vote standing. 2 and 3: voted, never decided here.
	// 4: decided above the gap.
	for _, pos := range []int64{1, 4} {
		h, err := l.AppendChosen(pos, paxos.FastBallot, posEntry(pos))
		if err != nil {
			t.Fatal(err)
		}
		if h >= pos {
			err = l.WaitApplied(waitCtx(t), pos)
		} else {
			err = l.WaitLogged(waitCtx(t), pos)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	l2, store2, _ := reopen(t, dir, eng, store, l)
	if got := l2.Applied(); got != 1 {
		t.Fatalf("recovered watermark = %d, want 1", got)
	}
	if row, _, err := store2.ReadPacked(paxos.StateKey("g", 1), kvstore.Latest); err != nil || paxos.RowDecided(row) {
		t.Fatalf("row 1 = %v %v, want the vote as the acceptor wrote it", row.Unpack(), err)
	}
	snap := l2.Snapshot()
	if !snap[1].Contains("t1") || !snap[4].Contains("t4") || len(snap) != 2 {
		t.Fatalf("recovered log = %v, want entries 1 (the vote under the watermark) and 4 (marked)", snap)
	}
	acc2 := paxos.NewAcceptor(store2)
	for _, pos := range []int64{2, 3} {
		if l2.Has(pos) {
			t.Errorf("a vote above the watermark reads as decided entry %d", pos)
		}
		if bal, val, err := acc2.Vote("g", pos); err != nil || bal != paxos.FastBallot || string(val) != string(posEntry(pos)) {
			t.Errorf("acceptor forgot its vote at %d: %d %q %v", pos, bal, val, err)
		}
	}
	for _, pos := range []int64{2, 3} {
		if _, err := l2.AppendChosen(pos, paxos.FastBallot, posEntry(pos)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.WaitApplied(waitCtx(t), 4); err != nil {
		t.Fatalf("the marked row above the gap did not come back pending: %v", err)
	}
	if v, ts, err := store2.Read(DataKey("g", "x"), kvstore.Latest); err != nil || ts != 4 || v["v"] != "4" {
		t.Fatalf("x after the gap filled = %v@%d %v, want 4@4", v, ts, err)
	}
}
