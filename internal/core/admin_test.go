package core

import (
	"testing"

	"paxoscp/internal/network"
)

func TestStatusReflectsState(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "B"})
	s := services["A"]
	st := s.Status("g")
	if st.DC != "A" || st.Group != "g" || st.LastApplied != 0 || st.LogEntries != 0 || st.DataKeys != 0 {
		t.Fatalf("empty status = %+v", st)
	}
	seedLog(t, services, []string{"A"}, "g", 4)
	st = s.Status("g")
	if st.LastApplied != 4 || st.LogEntries != 4 {
		t.Fatalf("status after 4 entries = %+v", st)
	}
	if st.DataKeys != 5 { // "k" plus u1..u4
		t.Fatalf("dataKeys = %d, want 5", st.DataKeys)
	}
	if st.Leader == "" {
		t.Fatalf("leader missing: %+v", st)
	}
	if _, err := s.Compact("g", 3); err != nil {
		t.Fatal(err)
	}
	if st = s.Status("g"); st.CompactedTo != 3 {
		t.Fatalf("compactedTo = %d, want 3", st.CompactedTo)
	}
}

func TestStatsHandlerJSONRoundTrip(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	seedLog(t, services, []string{"A"}, "g", 2)
	resp := ask(t, services["A"], "op", network.Message{Kind: network.KindStats, Group: "g"})
	if !resp.OK {
		t.Fatalf("stats reply = %+v", resp)
	}
	st, err := ParseGroupStatus(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.DC != "A" || st.LastApplied != 2 {
		t.Fatalf("parsed status = %+v", st)
	}
	if _, err := ParseGroupStatus([]byte("junk")); err == nil {
		t.Fatal("garbage status parsed")
	}
}

func TestCompactHandler(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	seedLog(t, services, []string{"A"}, "g", 6)
	resp := ask(t, services["A"], "op", network.Message{Kind: network.KindCompact, Group: "g", TS: 5})
	if !resp.OK || resp.TS != 5 {
		t.Fatalf("compact reply = %+v", resp)
	}
	if got := services["A"].CompactedTo("g"); got != 5 {
		t.Fatalf("CompactedTo = %d", got)
	}
	// Horizon beyond applied clamps.
	resp = ask(t, services["A"], "op", network.Message{Kind: network.KindCompact, Group: "g", TS: 99})
	if !resp.OK || resp.TS != 6 {
		t.Fatalf("clamped compact reply = %+v", resp)
	}
}
