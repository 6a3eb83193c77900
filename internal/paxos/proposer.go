package paxos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/deadline"
	"paxoscp/internal/network"
)

// Vote is one acceptor's last vote as reported in a prepare response.
type Vote struct {
	// DC is the responding datacenter.
	DC string
	// Ballot is the ballot the vote was cast at; NilBallot means the
	// acceptor had not voted (a null vote).
	Ballot int64
	// Value is the voted value (encoded wal.Entry), nil for a null vote.
	Value []byte
}

// IsNull reports whether the vote is a null vote.
func (v Vote) IsNull() bool { return v.Ballot == NilBallot }

// PrepareOutcome aggregates the responses of one prepare round across all
// datacenters.
type PrepareOutcome struct {
	// D is the total number of datacenters messaged.
	D int
	// Acks counts successful promises.
	Acks int
	// Votes holds the last votes of the acceptors that promised (one per
	// acking datacenter, null votes included).
	Votes []Vote
	// MaxSeen is the highest ballot observed in any response (granted or
	// refused); the proposer's next proposal number must exceed it.
	MaxSeen int64
}

// Quorum reports whether a majority of datacenters promised.
func (o PrepareOutcome) Quorum() bool { return o.Acks >= Majority(o.D) }

// AcceptOutcome aggregates the responses of one accept round.
type AcceptOutcome struct {
	D       int
	Acks    int
	MaxSeen int64
	// ChosenAt is the ballot to send the decision out under (Apply): the
	// round's own while every ack counted was a vote cast at it — then a
	// quorum of Acks means the value was chosen at this ballot, and a replica
	// whose promise is at or above it may keep its vote as the log entry
	// (VoteStands). An ack from a row already decided is no vote — that
	// acceptor may have promised higher before the decision — so with one
	// counted ChosenAt is DecidedBallot, which no promise reaches.
	ChosenAt int64
	// Refused and Unreachable count the acceptors heard from before the round
	// stopped that refused the vote (a per-position race — the masters' fast
	// path is still healthy) versus whose sends failed or went unanswered (a
	// peer is unreachable — unanimity is impossible until it returns).
	Refused     int
	Unreachable int
	// unsent is the first failed send's error that was not a timeout: the
	// transport refused the request itself (a datagram over its size limit,
	// a closed transport), so no later round can do better.
	unsent error
}

// Quorum reports whether a majority of datacenters voted for the proposal.
func (o AcceptOutcome) Quorum() bool { return o.Acks >= Majority(o.D) }

// ack counts one acceptor's OK.
func (o *AcceptOutcome) ack(resp network.Message) {
	o.Acks++
	if resp.Found {
		o.ChosenAt = DecidedBallot
	}
}

// Unanimous reports whether every datacenter voted for the proposal. It is
// the decision rule of the masters' fast ballot (core/master.go), and of
// nobody else: masters share ballot 0 with no one arbitrating between them,
// and with a majority-sized fast quorum two of them racing one position can
// each assemble a majority view containing both ballot-0 votes, so collision
// recovery cannot tell which value (if either) was chosen. With a unanimous
// fast quorum, a fast-chosen value appears in every majority view with no
// competing ballot-0 vote, so recovery is unambiguous — the Fast Paxos
// fast-quorum condition instantiated for our acceptor counts. A client
// holding the position's leader grant is the only ballot-0 proposer its
// position will ever have, so its ballot 0 is an ordinary ballot and decides
// at Quorum (DESIGN.md §11, "Who may use ballot 0").
func (o AcceptOutcome) Unanimous() bool { return o.D > 0 && o.Acks == o.D }

// Proposer drives the messaging of Algorithm 2: it fans each phase out to
// every datacenter in parallel ("Loop iterations may be executed in
// parallel") and tallies responses until the timeout, and Decide runs the
// algorithm's rounds — for a Transaction Client, and for a Transaction Service
// that falls back from its fast round or learns a missing position.
type Proposer struct {
	// Transport connects to every datacenter's Transaction Service.
	Transport network.Transport
	// Timeout bounds each phase's message round (the paper's 2 s loss
	// detection timeout, scaled in experiments). Zero means
	// network.DefaultTimeout.
	Timeout time.Duration
}

func (p *Proposer) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return network.DefaultTimeout
}

// broadcast sends req to every datacenter and streams the responses to
// collect until all datacenters answered or the phase timeout expires, when
// every datacenter not heard from is reported with ErrTimeout. collect
// returns true to stop early (e.g. majority reached and waiting longer cannot
// change the decision); the calls still out are then hung up.
func (p *Proposer) broadcast(ctx context.Context, req network.Message, collect func(dc string, resp network.Message, err error) (stop bool)) {
	r := p.startRound(req)
	r.phase = deadline.Start(ctx, p.timeout())
	r.issue("")
	defer r.end()
	expired := r.phase.Done()
	for heard := 0; heard < len(r.dcs); heard++ {
		var rep roundReply
		select {
		case rep = <-r.ch:
		case <-expired:
			r.expire()
			expired = nil
			rep = <-r.ch
		}
		r.legs[rep.slot].heard = true
		if collect(r.dcs[rep.slot], rep.resp, rep.err) {
			return
		}
	}
}

// round is one fan-out of a request to every datacenter (but one, for
// Notify), one asynchronous call (network.Transport.Go) per destination and
// no goroutine. Rounds are pooled, and nothing in one is made per message:
// each destination slot has a leg whose done was bound when the leg was
// first made, a collected round's phase timeout is a pooled deadline.Phase,
// and its channel has a slot per destination and is reused while it is big
// enough.
//
// A collected round (broadcast) belongs to its collector, which reads the
// legs' replies from ch, hangs up the calls it no longer waits for, and
// pools the round. A forgotten round (Notify) has no collector: its legs
// each hold a reference, and so does its issuer until every call is out;
// the last to let go — the last leg to be answered, or the round's expiry,
// which hangs up the calls still out — pools it. Either way a round is
// pooled exactly once, with no callback left to run.
type round struct {
	transport network.Transport
	req       network.Message
	dcs       []string
	legs      []*leg // one per slot of dcs, and more: legs are kept as made

	// A collected round's.
	phase *deadline.Phase
	ch    chan roundReply

	// A forgotten round's.
	forgotten bool
	skip      string // the datacenter it does not send to
	refs      atomic.Int32
	// when is the current use's expiry on roundClock, MaxInt64 until its
	// calls are out and while the round is idle, so a late Expire — for an
	// earlier use, or its own after the last leg pooled the round — finds
	// nothing due.
	when   atomic.Int64
	expiry deadline.Entry
}

// leg is one destination slot of a round: its call, and the done that
// answers into the round.
type leg struct {
	r    *round
	slot int
	call network.Call
	// answered is set by done; heard, by the collector when it takes the
	// reply from ch.
	answered, heard bool
	done            func(network.Message, error) // l.answer
}

// roundReply is one destination's answer.
type roundReply struct {
	slot int
	resp network.Message
	err  error
}

// rounds holds the pooled rounds; startRound makes one when it is empty.
var rounds sync.Pool

// roundPooled, when set, is called with the transport of every round
// returned to the pool: the tests of the one-release rule count with it.
var roundPooled atomic.Pointer[func(network.Transport)]

// roundEpoch anchors roundClock, the monotonic clock of a round's when.
var roundEpoch = time.Now()

func roundClock() int64 { return int64(time.Since(roundEpoch)) }

// startRound takes a pooled round for req over every datacenter, with a leg
// for each.
func (p *Proposer) startRound(req network.Message) *round {
	r, _ := rounds.Get().(*round)
	if r == nil {
		r = new(round)
		r.when.Store(math.MaxInt64)
	}
	r.transport, r.req, r.dcs = p.Transport, req, p.Transport.Peers()
	for len(r.legs) < len(r.dcs) {
		l := &leg{r: r, slot: len(r.legs)}
		l.done = l.answer
		r.legs = append(r.legs, l)
	}
	if cap(r.ch) < len(r.dcs) {
		r.ch = make(chan roundReply, len(r.dcs))
	}
	return r
}

// issue sends the round's request to every datacenter but skip: the remote
// ones first, then the transport's own, whose handler may answer on this
// goroutine before Go returns.
func (r *round) issue(skip string) {
	local, self := r.transport.Local(), -1
	for i, dc := range r.dcs {
		switch dc {
		case skip:
		case local:
			self = i
		default:
			r.legs[i].call = r.transport.Go(dc, r.req, r.legs[i].done)
		}
	}
	if self >= 0 {
		r.legs[self].call = r.transport.Go(local, r.req, r.legs[self].done)
	}
}

// answer is a leg's done: a collected round's reply goes to the collector,
// a forgotten round's leg lets go of the round.
func (l *leg) answer(resp network.Message, err error) {
	r := l.r
	l.answered = true
	if r.forgotten {
		r.release()
		return
	}
	r.ch <- roundReply{l.slot, resp, err}
}

// expire is a collected round's phase expiry: it hangs up every call not yet
// heard and, for each destination whose call went unanswered, leaves an
// ErrTimeout in ch after the replies already there.
func (r *round) expire() {
	for _, l := range r.legs[:len(r.dcs)] {
		if !l.heard {
			l.call.HangUp()
			l.call = network.Call{}
		}
	}
	for _, l := range r.legs[:len(r.dcs)] {
		if !l.heard && !l.answered {
			r.ch <- roundReply{l.slot, network.Message{}, network.ErrTimeout}
		}
	}
}

// end is the collector's last word: it hangs up the calls it did not hear,
// ends the phase, and pools the round.
func (r *round) end() {
	for _, l := range r.legs[:len(r.dcs)] {
		if !l.heard {
			l.call.HangUp()
		}
	}
	r.phase.End()
	for len(r.ch) > 0 {
		<-r.ch
	}
	r.pool()
}

// forget issues the round to every datacenter but skip and leaves it to end
// itself, timeout from now at the latest.
func (r *round) forget(skip string, timeout time.Duration) {
	r.forgotten, r.skip = true, skip
	r.when.Store(math.MaxInt64)
	n := int32(1) // the issuer's reference
	for _, dc := range r.dcs {
		if dc != skip {
			n++
		}
	}
	r.refs.Store(n)
	r.issue(skip)
	r.when.Store(roundClock() + int64(timeout))
	r.expiry.Arm(timeout, (*roundExpiry)(r))
	r.release()
}

// release drops one reference to a forgotten round; the last pools it.
func (r *round) release() {
	if r.refs.Add(-1) == 0 {
		r.expiry.Stop()
		r.pool()
	}
}

// roundExpiry is a forgotten round as its expiry's Expirer.
type roundExpiry round

// Expire hangs up the calls of a forgotten round still out at its expiry,
// and lets go of the reference of each leg left unanswered. It holds a
// reference of its own meanwhile, taken only while the round is in use, and
// acts only if the use's expiry is due and it is the one to take when back
// to MaxInt64: a late call finds the round idle, or in a later use whose
// when is still ahead, or that use's expiry already taken.
func (x *roundExpiry) Expire() {
	r := (*round)(x)
	for {
		n := r.refs.Load()
		if n == 0 {
			return
		}
		if r.refs.CompareAndSwap(n, n+1) {
			break
		}
	}
	if w := r.when.Load(); roundClock() >= w && r.when.CompareAndSwap(w, math.MaxInt64) {
		for i, l := range r.legs[:len(r.dcs)] {
			if r.dcs[i] == r.skip {
				continue
			}
			l.call.HangUp()
			if !l.answered {
				r.release()
			}
		}
	}
	r.release()
}

// pool returns the round to the pool holding no request, response or call.
func (r *round) pool() {
	for _, l := range r.legs[:len(r.dcs)] {
		l.call, l.answered, l.heard = network.Call{}, false, false
	}
	if f := roundPooled.Load(); f != nil {
		(*f)(r.transport)
	}
	r.when.Store(math.MaxInt64)
	r.transport, r.phase, r.req, r.dcs, r.forgotten, r.skip = nil, nil, network.Message{}, nil, false, ""
	rounds.Put(r)
}

// Instance is one Paxos instance as Decide runs it: a log position, the
// identity its ballots are owned by, and the rules that differ between the
// callers (DESIGN.md §3, "One driver").
type Instance struct {
	Group string
	Pos   int64
	// ID is the proposer identity every ballot of the run is owned by.
	ID int
	// Seen is the highest ballot already observed for the position: the
	// first round proposes at NextBallot(Seen, ID) — Ballot(1, ID) for a
	// fresh instance, above a failed fast round's MaxSeen for a master.
	Seen int64
	// WaitAll selects the prepare collection mode (prepare).
	WaitAll bool
	// Rounds caps the prepare → accept rounds.
	Rounds int
	// Choose picks the value to propose from a granted prepare round
	// (findWinningVal or a variant). An error ends the run with no accept
	// sent, and Decide returns it.
	Choose func(PrepareOutcome) ([]byte, error)
	// Pause is called before rounds 2…Rounds with the round's index (1 for
	// the second) — never before the first or after the last. An error (the
	// context ending during the pause) ends the run, and Decide returns it.
	Pause func(ctx context.Context, attempt int) error
}

// ErrUndecided reports a run of Decide that used all its rounds without a
// majority promising and then voting for one of its proposals. The position's
// outcome is unknown: a later round, anyone's, may still decide it.
type ErrUndecided struct {
	Group  string
	Pos    int64
	Rounds int
}

func (e ErrUndecided) Error() string {
	return fmt.Sprintf("paxos: no majority for %s/%d after %d rounds", e.Group, e.Pos, e.Rounds)
}

// Decide runs Algorithm 2's classic rounds for the instance: prepare, choose
// the value, accept; on a refusal in either phase pick the next proposal
// number above every ballot seen, pause, go again. An accept round short of
// a majority because the transport would not send it (AcceptOutcome.unsent)
// ends the run with that error. It returns the decided
// value and the ballot to announce it under (AcceptOutcome.ChosenAt).
// Announcing is the caller's: a Transaction Client notifies (Notify), a
// service applies (Apply).
func (p *Proposer) Decide(ctx context.Context, in Instance) (value []byte, chosenAt int64, err error) {
	ballot := NextBallot(in.Seen, in.ID)
	for round := 0; round < in.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if round > 0 {
			if err := in.Pause(ctx, round); err != nil {
				return nil, 0, err
			}
		}
		prep := p.prepare(ctx, in.Group, in.Pos, ballot, in.WaitAll)
		if !prep.Quorum() {
			ballot = NextBallot(max(prep.MaxSeen, ballot), in.ID)
			continue
		}
		value, err := in.Choose(prep)
		if err != nil {
			return nil, 0, err
		}
		acc := p.Accept(ctx, in.Group, in.Pos, ballot, value)
		if !acc.Quorum() {
			if acc.unsent != nil {
				return nil, 0, acc.unsent
			}
			ballot = NextBallot(max(acc.MaxSeen, ballot), in.ID)
			continue
		}
		return value, acc.ChosenAt, nil
	}
	return nil, 0, ErrUndecided{Group: in.Group, Pos: in.Pos, Rounds: in.Rounds}
}

// prepare runs one prepare phase (Algorithm 2 lines 24–41) with the given
// ballot. When waitAll is false the phase ends as soon as a majority has
// promised ("if ackCount > D/2 then keepTrying ← false"); when true it
// keeps collecting until every datacenter answered or the timeout fires —
// Paxos-CP benefits from extra votes ("In practice, when a Transaction
// Client sends a prepare message, it will receive responses from more than
// a simple majority", §5).
func (p *Proposer) prepare(ctx context.Context, group string, pos int64, ballot int64, waitAll bool) PrepareOutcome {
	req := network.Message{Kind: network.KindPrepare, Group: group, Pos: pos, Ballot: ballot}
	out := PrepareOutcome{D: len(p.Transport.Peers()), MaxSeen: ballot}
	maj := Majority(out.D)
	p.broadcast(ctx, req, func(dc string, resp network.Message, err error) bool {
		if err != nil {
			return false
		}
		if resp.Ballot > out.MaxSeen {
			out.MaxSeen = resp.Ballot
		}
		if resp.OK {
			out.Acks++
			v := Vote{DC: dc, Ballot: resp.TS, Value: resp.Payload}
			if len(resp.Payload) == 0 && resp.TS < 0 {
				v.Value = nil
			}
			out.Votes = append(out.Votes, v)
		}
		return !waitAll && out.Acks >= maj
	})
	return out
}

// Accept runs one accept phase (Algorithm 2 lines 42–57), proposing value at
// the given ballot, that aims for a majority.
func (p *Proposer) Accept(ctx context.Context, group string, pos int64, ballot int64, value []byte) AcceptOutcome {
	return p.accept(ctx, group, pos, ballot, value, Majority(len(p.Transport.Peers())))
}

// AcceptUnanimous runs an accept phase that aims for unanimity (the masters'
// fast-ballot path): a single refusal or send failure ends it — a doomed fast
// round must fall back to classic Paxos quickly, not sit out the timeout.
func (p *Proposer) AcceptUnanimous(ctx context.Context, group string, pos int64, ballot int64, value []byte) AcceptOutcome {
	return p.accept(ctx, group, pos, ballot, value, len(p.Transport.Peers()))
}

// accept is the one accept tally: it stops as soon as need acceptors voted,
// or as soon as refusals and failed sends leave fewer than need that still
// could, so a doomed round does not sit out the timeout. A send that times
// out counts as unreachable, so a round that stopped on neither condition
// heard from everyone.
func (p *Proposer) accept(ctx context.Context, group string, pos int64, ballot int64, value []byte, need int) AcceptOutcome {
	req := network.Message{Kind: network.KindAccept, Group: group, Pos: pos, Ballot: ballot, Payload: value}
	out := AcceptOutcome{D: len(p.Transport.Peers()), MaxSeen: ballot, ChosenAt: ballot}
	p.broadcast(ctx, req, func(dc string, resp network.Message, err error) bool {
		if err != nil {
			out.Unreachable++
			if out.unsent == nil && !errors.Is(err, network.ErrTimeout) {
				out.unsent = err
			}
		} else {
			out.MaxSeen = max(out.MaxSeen, resp.Ballot)
			if resp.OK {
				out.ack(resp)
			} else {
				out.Refused++
			}
		}
		return out.Acks >= need || out.D-out.Refused-out.Unreachable < need
	})
	return out
}

// Apply tells every datacenter the decided value and returns once a majority
// including the proposer's own datacenter has stored the entry. It is the
// apply phase as a proposer inside a Transaction Service runs it — the master
// pipeline, a learner — whose acknowledgement promises a majority of durable
// log entries (invariant R2); the protocol itself asks for less, and the
// Transaction Clients use Notify. It never waits out the timeout for
// unreachable minorities. ballot is the accept round's ChosenAt: what lets a
// replica that voted in the round keep its vote as the log entry.
func (p *Proposer) Apply(ctx context.Context, group string, pos int64, ballot int64, value []byte) int {
	req := network.Message{Kind: network.KindApply, Group: group, Pos: pos, Ballot: ballot, Payload: value}
	acks := 0
	responses := 0
	localAcked := false
	local := p.Transport.Local()
	d := len(p.Transport.Peers())
	maj := Majority(d)
	p.broadcast(ctx, req, func(dc string, resp network.Message, err error) bool {
		responses++
		if err == nil && resp.OK {
			acks++
			if dc == local {
				localAcked = true
			}
		}
		return responses == d || (acks >= maj && localAcked)
	})
	return acks
}

// Notify runs the apply phase as Algorithm 2 has it (lines 58–61): a
// notification sent after the decision, which the votes of a majority have
// already made durable. It tells every datacenter the decided value and
// waits for home only, the proposing client's own datacenter — whose replica
// then serves the client's next read position at or above this one. A
// datacenter the notification never reaches learns the value by catch-up
// (§4.1). The other datacenters' calls go out first, on a forgotten round
// that ends itself at its last answer or one message timeout from now, not
// under ctx: the caller's round is over once Notify returns, and its context
// with it. Home's is sent from the caller's goroutine, so its answer wakes
// the caller with no hand-off between.
func (p *Proposer) Notify(ctx context.Context, home, group string, pos int64, ballot int64, value []byte) {
	req := network.Message{Kind: network.KindApply, Group: group, Pos: pos, Ballot: ballot, Payload: value}
	// Nobody waits for the other legs; a lost notification is catch-up's.
	p.startRound(req).forget(home, p.timeout())
	hctx := deadline.Start(ctx, p.timeout())
	defer hctx.End()
	_, _ = p.Transport.Send(hctx, home, req)
}
