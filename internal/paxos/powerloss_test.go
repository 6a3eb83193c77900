package paxos

import (
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
)

// TestVoteSurvivesMinorityPowerLoss: A and B vote v at ballot 0, which decides
// v at a majority of three. B then loses power and comes back. A proposer whose
// prepare reaches only B and C must still find v, or it would choose another
// value for a decided position. This holds because the disk engine answers an
// Append only once its record is on disk (group commit; DESIGN.md §14): an
// engine that acknowledged first and flushed later would come back without the
// vote.
func TestVoteSurvivesMinorityPowerLoss(t *testing.T) {
	const g, pos = "g", int64(1)
	open := func(dir string) (*kvstore.Store, *disk.Engine) {
		t.Helper()
		s, e, err := disk.Open(dir, disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, e
	}
	sa, _ := open(t.TempDir())
	dirB := t.TempDir()
	sb, eb := open(dirB)
	sc, _ := open(t.TempDir())
	a, b, c := NewAcceptor(sa), NewAcceptor(sb), NewAcceptor(sc)

	for name, acc := range map[string]*Acceptor{"A": a, "B": b} {
		res, err := acc.Accept(g, pos, FastBallot, []byte("v"))
		if err != nil || !res.OK {
			t.Fatalf("accept at %s: %+v, %v", name, res, err)
		}
	}
	eb.Crash()
	sb, _ = open(dirB)
	b = NewAcceptor(sb)

	best, val := NilBallot, []byte(nil)
	for name, acc := range map[string]*Acceptor{"B": b, "C": c} {
		res, err := acc.Prepare(g, pos, Ballot(1, 1))
		if err != nil || !res.OK {
			t.Fatalf("prepare at %s: %+v, %v", name, res, err)
		}
		if res.VoteBallot > best {
			best, val = res.VoteBallot, res.VoteValue
		}
	}
	if string(val) != "v" {
		t.Fatalf("prepare at {B, C} after B's power loss found %q at %d; want \"v\", decided at {A, B}", val, best)
	}
}
