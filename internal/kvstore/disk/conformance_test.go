package disk_test

import (
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/kvstore/storetest"
)

// TestDiskEngineConformance runs the engine-independent conformance suite
// against a disk-backed store, completing the cross-engine matrix the
// in-memory side runs in internal/kvstore. Tiny segments keep rotation and
// compaction in play during the suite instead of testing only the
// single-segment fast path.
func TestDiskEngineConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) *kvstore.Store {
		s, _, err := disk.Open(t.TempDir(), disk.Options{
			SegmentBytes:    4096,
			CompactSegments: 1,
		})
		if err != nil {
			t.Fatalf("disk.Open: %v", err)
		}
		t.Cleanup(s.Close)
		return s
	})
}

// TestDiskEngineConformanceSyncEvery repeats the suite under the per-write
// fsync policy, whose flush path differs from group commit.
func TestDiskEngineConformanceSyncEvery(t *testing.T) {
	if testing.Short() {
		t.Skip("per-write fsync suite is slow")
	}
	storetest.Run(t, func(t *testing.T) *kvstore.Store {
		s, _, err := disk.Open(t.TempDir(), disk.Options{Fsync: disk.SyncEvery})
		if err != nil {
			t.Fatalf("disk.Open: %v", err)
		}
		t.Cleanup(s.Close)
		return s
	})
}

// TestDiskEngineRecovery runs the restart contracts against the disk
// engine: power loss, then snapshot load plus WAL replay. Tiny segments put
// a snapshot and several compactions behind the replayed tail.
func TestDiskEngineRecovery(t *testing.T) {
	storetest.RunRecovery(t, func(t *testing.T) (*kvstore.Store, func() *kvstore.Store) {
		dir := t.TempDir()
		opts := disk.Options{SegmentBytes: 4096, CompactSegments: 1}
		s, eng, err := disk.Open(dir, opts)
		if err != nil {
			t.Fatalf("disk.Open: %v", err)
		}
		t.Cleanup(s.Close)
		return s, func() *kvstore.Store {
			eng.Crash()
			s.Close()
			s2, _, err := disk.Open(dir, opts)
			if err != nil {
				t.Fatalf("disk.Open after crash: %v", err)
			}
			t.Cleanup(s2.Close)
			return s2
		}
	})
}
