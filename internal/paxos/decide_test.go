package paxos

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/network"
)

// scripted is a transport to three acceptors that answer from a script: reply
// maps each request to its answer, and every request sent is recorded, so the
// driver's tests watch the ballots it proposes without a network or a store.
type scripted struct {
	reply func(to string, req network.Message) (network.Message, error)

	mu     sync.Mutex
	events []network.Kind // the kind of each send, paused per Pause call
	sent   []network.Message
}

func (s *scripted) Send(_ context.Context, to string, req network.Message) (network.Message, error) {
	s.mu.Lock()
	s.events = append(s.events, req.Kind)
	s.sent = append(s.sent, req)
	s.mu.Unlock()
	return s.reply(to, req)
}

func (s *scripted) Local() string   { return "A" }
func (s *scripted) Peers() []string { return []string{"A", "B", "C"} }
func (s *scripted) Close() error    { return nil }

// paused marks a Pause call among the sends.
const paused network.Kind = "pause"

// pause records a Pause call and returns at once.
func (s *scripted) pause(ctx context.Context, attempt int) error {
	s.mu.Lock()
	s.events = append(s.events, paused)
	s.mu.Unlock()
	return ctx.Err()
}

// ballots returns the distinct ballots sent in requests of kind, in order.
func (s *scripted) ballots(kind network.Kind) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for _, m := range s.sent {
		if m.Kind == kind && (len(out) == 0 || out[len(out)-1] != m.Ballot) {
			out = append(out, m.Ballot)
		}
	}
	return out
}

func (s *scripted) count(event network.Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e == event {
			n++
		}
	}
	return n
}

// grant answers a prepare with a null-vote promise and an accept with a vote.
func grant(req network.Message) network.Message {
	if req.Kind == network.KindPrepare {
		return network.Message{Kind: network.KindLastVote, OK: true, Ballot: req.Ballot, TS: NilBallot}
	}
	return network.Message{Kind: network.KindStatus, OK: true, Ballot: req.Ballot}
}

// refuse answers with a refusal that reports promised as the acceptor's
// promise.
func refuse(promised int64) network.Message {
	return network.Message{Kind: network.KindStatus, OK: false, Ballot: promised}
}

func ownValue(PrepareOutcome) ([]byte, error) { return []byte("v"), nil }

// TestDecideRefusalsMoveAboveMaxSeen: a refused prepare and a refused accept
// each move the run to NextBallot(max(MaxSeen, ballot), ID) — above what the
// refusal reported, above the refused ballot itself when the refusal reported
// less — and every ballot the run proposes is owned by ID.
func TestDecideRefusalsMoveAboveMaxSeen(t *testing.T) {
	const id = 7
	b1 := Ballot(1, id)
	promisedHigh := Ballot(5, 3)
	b2 := NextBallot(b1, id)           // prepare refused reporting nothing higher
	b3 := NextBallot(promisedHigh, id) // prepare refused reporting promisedHigh
	acceptHigh := Ballot(9, 2)
	b4 := NextBallot(acceptHigh, id) // accept refused reporting acceptHigh
	tr := &scripted{reply: func(to string, req network.Message) (network.Message, error) {
		switch {
		case req.Ballot == b1:
			return refuse(0), nil
		case req.Ballot == b2:
			return refuse(promisedHigh), nil
		case req.Ballot == b3 && req.Kind == network.KindAccept:
			return refuse(acceptHigh), nil
		}
		return grant(req), nil
	}}
	p := &Proposer{Transport: tr, Timeout: time.Second}
	value, chosenAt, err := p.Decide(context.Background(), Instance{
		Group: "g", Pos: 4, ID: id, Rounds: 8, Choose: ownValue, Pause: tr.pause,
	})
	if err != nil || string(value) != "v" || chosenAt != b4 {
		t.Fatalf("Decide = %q at %d, %v; want v at %d", value, chosenAt, err, b4)
	}
	if got, want := tr.ballots(network.KindPrepare), []int64{b1, b2, b3, b4}; !slices.Equal(got, want) {
		t.Fatalf("prepare ballots %v, want %v", got, want)
	}
	if got, want := tr.ballots(network.KindAccept), []int64{b3, b4}; !slices.Equal(got, want) {
		t.Fatalf("accept ballots %v, want %v", got, want)
	}
	for _, b := range []int64{b2, b3, b4} {
		if b%MaxClients != id {
			t.Fatalf("ballot %d is not owned by %d", b, id)
		}
	}
	if b2 <= b1 || b3 <= promisedHigh || b4 <= acceptHigh {
		t.Fatalf("ballots %d %d %d do not climb above %d, %d, %d", b2, b3, b4, b1, promisedHigh, acceptHigh)
	}
}

// TestDecidePausesBetweenRoundsOnly: a run that never decides pauses
// rounds−1 times — before rounds 2…n, with their index, never before the first
// round or after the last — and returns an ErrUndecided naming the instance.
func TestDecidePausesBetweenRoundsOnly(t *testing.T) {
	tr := &scripted{reply: func(string, network.Message) (network.Message, error) { return refuse(0), nil }}
	var attempts []int
	p := &Proposer{Transport: tr, Timeout: time.Second}
	const rounds = 5
	_, _, err := p.Decide(context.Background(), Instance{
		Group: "g", Pos: 9, ID: 1, Rounds: rounds, Choose: ownValue,
		Pause: func(ctx context.Context, attempt int) error {
			attempts = append(attempts, attempt)
			return tr.pause(ctx, attempt)
		},
	})
	var undecided ErrUndecided
	if !errors.As(err, &undecided) || undecided != (ErrUndecided{Group: "g", Pos: 9, Rounds: rounds}) {
		t.Fatalf("err = %v, want ErrUndecided{g 9 %d}", err, rounds)
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
	if !slices.Equal(attempts, []int{1, 2, 3, 4}) {
		t.Fatalf("Pause called with %v, want [1 2 3 4]", attempts)
	}
	if tr.events[0] != network.KindPrepare || tr.events[len(tr.events)-1] == paused {
		t.Fatalf("events %v: a run opens with a prepare and ends with no pause", tr.events)
	}
	if n := tr.count(network.KindPrepare); n != rounds*3 {
		t.Fatalf("%d prepares sent, want %d", n, rounds*3)
	}
}

// TestDecideChooseErrorSendsNoAccept: a Choose error ends the run after the
// prepare round, with no accept sent, and Decide returns it.
func TestDecideChooseErrorSendsNoAccept(t *testing.T) {
	tr := &scripted{reply: func(_ string, req network.Message) (network.Message, error) { return grant(req), nil }}
	errUndecidedHere := errors.New("undecided")
	p := &Proposer{Transport: tr, Timeout: time.Second}
	_, _, err := p.Decide(context.Background(), Instance{
		Group: "g", Pos: 1, ID: 1, Rounds: 4, WaitAll: true, Pause: tr.pause,
		Choose: func(PrepareOutcome) ([]byte, error) { return nil, errUndecidedHere },
	})
	if !errors.Is(err, errUndecidedHere) {
		t.Fatalf("err = %v, want the Choose error", err)
	}
	if n := tr.count(network.KindAccept); n != 0 {
		t.Fatalf("%d accepts sent after a Choose error", n)
	}
}

// TestDecideCancelledDuringPause: a context that ends during a pause ends the
// run with its error, and nothing more is sent.
func TestDecideCancelledDuringPause(t *testing.T) {
	tr := &scripted{reply: func(string, network.Message) (network.Message, error) { return refuse(0), nil }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &Proposer{Transport: tr, Timeout: time.Second}
	_, _, err := p.Decide(ctx, Instance{
		Group: "g", Pos: 1, ID: 1, Rounds: 4, Choose: ownValue,
		Pause: func(ctx context.Context, attempt int) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := tr.count(network.KindPrepare); n != 3 {
		t.Fatalf("%d prepares sent, want the first round's 3 only", n)
	}
}

// TestDecideSeenOpensAboveFastRound: the first round proposes at
// NextBallot(Seen, ID) — Ballot(1, ID) for a fresh instance, above a failed
// fast round's MaxSeen for a master.
func TestDecideSeenOpensAboveFastRound(t *testing.T) {
	for _, seen := range []int64{0, Ballot(3, 9)} {
		tr := &scripted{reply: func(_ string, req network.Message) (network.Message, error) { return grant(req), nil }}
		p := &Proposer{Transport: tr, Timeout: time.Second}
		if _, _, err := p.Decide(context.Background(), Instance{
			Group: "g", Pos: 1, ID: 4, Seen: seen, Rounds: 1, Choose: ownValue, Pause: tr.pause,
		}); err != nil {
			t.Fatal(err)
		}
		first := tr.ballots(network.KindPrepare)[0]
		if first != NextBallot(seen, 4) || first <= seen || first%MaxClients != 4 {
			t.Fatalf("Seen %d: first prepare at %d, want %d", seen, first, NextBallot(seen, 4))
		}
		if seen == 0 && first != Ballot(1, 4) {
			t.Fatalf("a fresh instance opens at %d, want Ballot(1, 4)", first)
		}
	}
}

// TestAcceptStopsWhenMajorityImpossible: a majority accept whose sends to two
// of three peers fail returns as soon as they have — the third, silent, peer
// is not waited for — with the failures counted unreachable.
func TestAcceptStopsWhenMajorityImpossible(t *testing.T) {
	silent := make(chan struct{})
	defer close(silent)
	tr := &scripted{reply: func(to string, req network.Message) (network.Message, error) {
		if to == "A" {
			<-silent // answers only once the test is over
			return grant(req), nil
		}
		return network.Message{}, network.ErrTimeout
	}}
	p := &Proposer{Transport: tr, Timeout: 10 * time.Second}
	start := time.Now()
	out := p.Accept(context.Background(), "g", 1, Ballot(1, 1), []byte("v"))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Accept took %v: it waited for the silent peer", elapsed)
	}
	if out.Quorum() || out.Unreachable != 2 {
		t.Fatalf("outcome %+v, want no quorum and 2 unreachable", out)
	}
}
