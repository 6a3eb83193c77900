package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
)

// voteRequests returns, for positions 1…n of group g, a granted prepare and
// accept at ballot 7 and then a prepare at 5 and an accept at 9, both
// refused: four requests a position.
func voteRequests(n int64) []network.Message {
	var reqs []network.Message
	for pos := int64(1); pos <= n; pos++ {
		v := entryBytes(fmt.Sprintf("t%d", pos), 0, map[string]string{"k": "v"})
		reqs = append(reqs,
			network.Message{Kind: network.KindPrepare, Group: "g", Pos: pos, Ballot: 7},
			network.Message{Kind: network.KindAccept, Group: "g", Pos: pos, Ballot: 7, Payload: v},
			network.Message{Kind: network.KindPrepare, Group: "g", Pos: pos, Ballot: 5},
			network.Message{Kind: network.KindAccept, Group: "g", Pos: pos, Ballot: 9, Payload: v},
		)
	}
	return reqs
}

// askInline sends req through ah and returns its reply, failing unless the
// reply came before ah returned.
func askInline(t *testing.T, ah network.AsyncHandler, req network.Message) network.Message {
	t.Helper()
	var got network.Message
	answered := false
	ah("B", req, func(m network.Message) { got, answered = m, true })
	if !answered {
		t.Fatalf("%s %s/%d at ballot %d: not answered before AsyncHandler returned", req.Kind, req.Group, req.Pos, req.Ballot)
	}
	return got
}

// TestVotesHoldNoGoroutine: over a store without an engine, a prepare or an
// accept is answered before AsyncHandler returns, on the caller's goroutine.
// Two hundred of them — granted and refused — leave the goroutine count
// where it was, and each answer equals the one the same request gets from a
// twin service that serves it on a goroutine of its own (the dispatcher's
// spawn), as a service over a disk store does.
func TestVotesHoldNoGoroutine(t *testing.T) {
	inline := NewService("A", kvstore.New(), nil)
	defer inline.Close()
	spawned := NewService("A", kvstore.New(), nil)
	defer spawned.Close()
	reqs := voteRequests(50)

	ah := inline.AsyncHandler()
	base := runtime.NumGoroutine()
	answers := make([]network.Message, len(reqs))
	for i, req := range reqs {
		answers[i] = askInline(t, ah, req)
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("request %d: %d goroutines, %d before the first vote", i, g, base)
		}
	}
	for i, req := range reqs {
		reply, ch := collectReply()
		spawned.disp.spawn(spawned.disp.item("B", req, reply))
		if want := awaitReply(t, ch); !reflect.DeepEqual(answers[i], want) {
			t.Fatalf("%s %s/%d at ballot %d: inline answer %+v, spawned %+v", req.Kind, req.Group, req.Pos, req.Ballot, answers[i], want)
		}
	}
	for i := 0; i < len(answers); i += 4 {
		if !answers[i].OK || !answers[i+1].OK || answers[i+2].OK || answers[i+3].OK {
			t.Fatalf("position %d: answers %+v, want two grants and two refusals", i/4+1, answers[i:i+4])
		}
	}
}

// TestVoteMeetsConcurrentApply: a vote on a memory store runs on the
// caller's goroutine while the drain's ApplyBatch writes the same row. For
// each of 200 positions, the position's apply is started in the background
// and, at once, a prepare and an accept of its decided value are sent: each
// is answered before AsyncHandler returns, and granted — a promise and a
// vote while the row is undecided, the decided value and its
// acknowledgement once it is — and every apply succeeds.
func TestVoteMeetsConcurrentApply(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	s.EnsureGroups("g")
	ah := s.AsyncHandler()
	const n = 200
	entries := make([][]byte, n+1)
	for pos := 1; pos <= n; pos++ {
		entries[pos] = entryBytes(fmt.Sprintf("t%d", pos), 0, map[string]string{"k": fmt.Sprint(pos)})
	}
	apply, applied := make(chan int64), make(chan error)
	defer close(apply)
	go func() {
		for pos := range apply {
			applied <- s.ApplyDecided("g", pos, entries[pos])
		}
	}()
	for pos := int64(1); pos <= n; pos++ {
		apply <- pos
		for _, req := range []network.Message{
			{Kind: network.KindPrepare, Group: "g", Pos: pos, Ballot: 7},
			{Kind: network.KindAccept, Group: "g", Pos: pos, Ballot: 7, Payload: entries[pos]},
		} {
			if got := askInline(t, ah, req); !got.OK {
				t.Fatalf("%s at %d: %+v, want it granted", req.Kind, pos, got)
			}
		}
		if err := <-applied; err != nil {
			t.Fatalf("apply %d: %v", pos, err)
		}
	}
	if got := s.LastApplied("g"); got != n {
		t.Fatalf("watermark %d, want %d", got, n)
	}
}
