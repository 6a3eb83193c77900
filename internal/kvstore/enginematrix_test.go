package kvstore_test

import (
	"bytes"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/storetest"
)

// TestMemoryEngineConformance runs the engine-independent conformance suite
// against the in-memory backend (nil engine). The disk backend runs the same
// suite in internal/kvstore/disk, so `go test ./...` covers the full
// cross-engine matrix.
func TestMemoryEngineConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) *kvstore.Store {
		s := kvstore.New()
		t.Cleanup(s.Close)
		return s
	})
}

// TestMemoryEngineRecovery runs the restart contracts against the in-memory
// backend, whose restart is a snapshot Save and Load.
func TestMemoryEngineRecovery(t *testing.T) {
	storetest.RunRecovery(t, func(t *testing.T) (*kvstore.Store, func() *kvstore.Store) {
		s := kvstore.New()
		t.Cleanup(s.Close)
		return s, func() *kvstore.Store {
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			s2, err := kvstore.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s2.Close)
			return s2
		}
	})
}
