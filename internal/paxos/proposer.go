package paxos

import (
	"context"
	"fmt"
	"time"

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

// broadcast sends req to every datacenter in parallel and streams responses
// to collect until all datacenters answered or the phase timeout expires.
// collect returns true to stop early (e.g. majority reached and waiting
// longer cannot change the decision); the senders still out then have their
// Sends cancelled and leave their replies in the channel, which has a slot
// for each of them.
func (p *Proposer) broadcast(ctx context.Context, req network.Message, collect func(dc string, resp network.Message, err error) (stop bool)) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout())
	defer cancel()

	dcs := p.Transport.Peers()
	type reply struct {
		dc   string
		resp network.Message
		err  error
	}
	ch := make(chan reply, len(dcs))
	for _, dc := range dcs {
		go func(dc string) {
			resp, err := p.Transport.Send(ctx, dc, req)
			ch <- reply{dc, resp, err}
		}(dc)
	}
	for range dcs {
		if r := <-ch; collect(r.dc, r.resp, r.err) {
			return
		}
	}
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
// number above every ballot seen, pause, go again. It returns the decided
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
// (§4.1). The other sends run under a deadline of their own, one message
// timeout from now, not under ctx: the caller's round is over once Notify
// returns, and its context with it.
func (p *Proposer) Notify(ctx context.Context, home, group string, pos int64, ballot int64, value []byte) {
	req := network.Message{Kind: network.KindApply, Group: group, Pos: pos, Ballot: ballot, Payload: value}
	for _, dc := range p.Transport.Peers() {
		if dc == home {
			continue
		}
		go func(dc string) {
			rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.timeout())
			defer cancel()
			// Nobody waits for the answer; a lost notification is catch-up's.
			_, _ = p.Transport.Send(rctx, dc, req)
		}(dc)
	}
	hctx, cancel := context.WithTimeout(ctx, p.timeout())
	defer cancel()
	_, _ = p.Transport.Send(hctx, home, req)
}
