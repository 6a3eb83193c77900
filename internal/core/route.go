package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"paxoscp/internal/deadline"
	"paxoscp/internal/network"
)

// Routing a request to a replica that will serve it. The paper's client has
// one rule for a service that will not — "If the local Transaction Service is
// not available, the library contacts Transaction Services in other
// datacenters until a response is received" (§4) — and §7's leader design adds
// one: submit to the master, wherever it now is. A service says why it will
// not serve with a network.Verdict; what a client does about each verdict is
// verdictRules, and the one loop that does it is sender. The transaction
// client and the migration coordinator both send through it. One other path
// follows a refusal to another replica: Client.claimFastPath retries a
// refused leader claim once at the hinted leader. It stays outside
// verdictRules because a refused or failed grant costs only the fast path:
// the client falls back to prepare/accept, which needs no grant.

// Refusal is a service's refusal as the caller sees it: the verdict, who gave
// it, and the reply fields that carry the verdict's hint.
type Refusal struct {
	Verdict network.Verdict // never VerdictNone: an uncoded refusal is VerdictFailed
	From    string          // the replica that refused
	Hint    string          // the reply's Value: moved → the destination group, not master → the holder
	Keys    []string        // moved: the keys the refusal named (may be empty on commits)
	Pos     int64           // the reply's TS: overloaded → the queue depth, compacted → the horizon
	Epoch   int64           // not master: the prevailing epoch
	Detail  string          // the reply's Err: text for people
}

func newRefusal(from string, resp network.Message) *Refusal {
	v := resp.Verdict
	if v == network.VerdictNone {
		v = network.VerdictFailed
	}
	return &Refusal{
		Verdict: v, From: from, Hint: resp.Value, Keys: append([]string(nil), resp.Keys...),
		Pos: resp.TS, Epoch: resp.Epoch, Detail: resp.Err,
	}
}

func (r *Refusal) Error() string {
	s := "core: " + r.From + " refused: " + r.Verdict.String()
	if r.Hint != "" {
		s += " (" + r.Hint + ")"
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// action is what a sender to the master does with a refusal.
type action uint8

const (
	// handBack: the refusal is the caller's to act on — it ends the
	// transaction (conflict), re-routes it (moved), or is retried at the
	// caller's own pace (overloaded, migrating, duplicate in flight).
	handBack action = iota
	// followHint: the replica the hint names serves the request.
	followHint
	// elsewhere: definitive at this replica and nothing reached the log, so
	// another replica serves it — as master, once this one's lease lapses.
	// The sender remembers that the replica refused.
	elsewhere
)

// verdictRules is, per verdict, what a sender may do. master is for a request
// only the group's master serves. everywhere is for one any replica serves:
// set, every replica that has applied the same log answers the same, so the
// refusal goes back to the caller; unset, it is about the replica, and the
// sender asks the next.
var verdictRules = [...]struct {
	master     action
	everywhere bool
}{
	network.VerdictFailed:            {master: handBack},
	network.VerdictConflict:          {master: handBack},
	network.VerdictOverloaded:        {master: handBack},
	network.VerdictMoved:             {master: handBack, everywhere: true},
	network.VerdictMigrating:         {master: handBack, everywhere: true},
	network.VerdictNotMaster:         {master: followHint},
	network.VerdictReplicaFailed:     {master: elsewhere},
	network.VerdictShutdown:          {master: elsewhere},
	network.VerdictCompacted:         {master: handBack},
	network.VerdictDuplicateInFlight: {master: handBack},
	network.VerdictDeposed:           {master: handBack},
}

const (
	// masterAttempts bounds a bounded sender's search for the master: each
	// attempt costs at most one send round trip or one lease-lapse wait, so
	// the dance around a replica that refuses for good ends even if no
	// replica ever claims.
	masterAttempts = 12
	// masterHops bounds how many not-master hints a bounded sender follows.
	masterHops = 3
)

// errAllServicesUnavailable reports that no datacenter answered a request any
// of them could have served.
var errAllServicesUnavailable = errors.New("core: no transaction service reachable")

// sender carries one request to a replica that serves it, following refusals
// as verdictRules says. Bounded (the zero value), it gives up within a fixed
// budget and hands back what the table says is the caller's. Persistent, it
// returns an answer or the context's error and nothing else: where a bounded
// sender would hand back or give up, it waits a timeout and asks again — so
// what it carries must be safe to deliver twice.
//
// Every answer a sender returns was served at the log position in its TS,
// which noteShown keeps.
type sender struct {
	c       *Client
	persist bool
}

// ask is one send under its own deadline.
func (s sender) ask(ctx context.Context, dc string, req network.Message, d time.Duration) (network.Message, error) {
	cctx := deadline.Start(ctx, d)
	defer cctx.End()
	return s.c.transport.Send(cctx, dc, req)
}

// pause waits one message timeout; it fails only with the context, naming the
// last thing that went wrong.
func (s sender) pause(ctx context.Context, last error) error {
	if err := sleepCtx(ctx, s.c.cfg.timeout()); err != nil {
		return fmt.Errorf("%w (last: %v)", err, last)
	}
	return nil
}

// toAny sends a request any replica can serve — a read position, a read, a
// scan or snapshot page — to the local service first and then to the other
// datacenters in order. The order is precomputed at NewClient: this runs on
// the per-read hot path, and peer sets are fixed for a client's lifetime
// (cluster topology changes mint new clients).
func (s sender) toAny(ctx context.Context, req network.Message) (network.Message, error) {
	return s.toAnyFrom(ctx, req, 0, errAllServicesUnavailable)
}

// toAnyFrom is toAny whose first pass starts at sendOrder[from], with last
// the failure so far: the walk of a routed read's leg that its batch did not
// settle (KV.readLegs).
func (s sender) toAnyFrom(ctx context.Context, req network.Message, from int, last error) (network.Message, error) {
	for {
		for _, dc := range s.c.sendOrder[from:] {
			resp, err := s.ask(ctx, dc, req, s.c.cfg.timeout())
			done, err := s.anyAnswer(dc, req.Group, resp, err)
			switch {
			case done && err == nil:
				return resp, nil
			case done:
				return network.Message{}, err
			}
			last = err
		}
		if !s.persist {
			return network.Message{}, last
		}
		if err := s.pause(ctx, last); err != nil {
			return network.Message{}, err
		}
		from = 0
	}
}

// anyAnswer is the rule toAny applies to what dc answered a request of group
// any replica serves, and to each reply in a batch (KV.readLegs): an answer
// ends the walk (done, with a nil error), and the client notes the position
// it was served at (noteShown). A refusal every replica would give ends a
// bounded walk too, handed back as the error. Anything else — a send error,
// a refusal about this replica — is the walk's latest failure, and the
// sender asks the next datacenter.
func (s sender) anyAnswer(dc, group string, resp network.Message, err error) (done bool, _ error) {
	switch {
	case err != nil:
		return false, err
	case resp.OK:
		s.c.noteShown(group, resp.TS)
		return true, nil
	}
	ref := newRefusal(dc, resp)
	return verdictRules[ref.Verdict].everywhere && !s.persist, ref
}

// toMaster sends a request only group's master serves — a submit, a handoff
// entry — starting at the configured master (Config.MasterFor, MasterDC, else
// the first datacenter) and following refusals to wherever mastership now is:
// the retry-to-new-master path after an epoch-fenced failover (DESIGN.md
// §11). Each send gets two message timeouts, since the answer covers the
// master's replication work. A bounded sender fails on a send error (the
// request may have been placed; whether to resubmit is the caller's call); a
// persistent one asks another replica, holding nothing against this one.
func (s sender) toMaster(ctx context.Context, group string, req network.Message) (network.Message, error) {
	c := s.c
	peers := c.transport.Peers()
	target := c.cfg.MasterDC
	if c.cfg.MasterFor != nil {
		if m := c.cfg.MasterFor(group); m != "" {
			target = m
		}
	}
	if target == "" {
		target = peers[0]
	}
	var refused []string // replicas that answered with an elsewhere verdict
	var last error
	hops := 0
	for attempt := 0; s.persist || attempt < masterAttempts; attempt++ {
		resp, err := s.ask(ctx, target, req, 2*c.cfg.timeout())
		var ref *Refusal
		act := elsewhere // what a persistent sender does with a send error
		switch {
		case err != nil && !s.persist:
			return network.Message{}, fmt.Errorf("core: submit to master %s: %w", target, err)
		case err != nil:
			last = err
		case resp.OK:
			c.noteShown(group, resp.TS)
			return resp, nil
		default:
			ref = newRefusal(target, resp)
			last, act = ref, verdictRules[ref.Verdict].master
			if act == elsewhere {
				refused = append(refused, target)
			}
		}
		switch act {
		case handBack:
			if !s.persist {
				return network.Message{}, ref
			}
		case followHint:
			switch {
			case slices.Contains(refused, ref.Hint):
				// Stand by: the holder will not serve and this replica still
				// honours its lease. Wait for the lease to lapse, then ask this
				// replica again so that it claims.
			case ref.Hint != "" && ref.Hint != target && (s.persist || hops < masterHops):
				hops++
				target = ref.Hint
				continue
			case !s.persist:
				return network.Message{}, ref // no holder named, or this replica, or the hops are spent
			}
		case elsewhere:
			i := slices.IndexFunc(peers, func(dc string) bool { return dc != target && !slices.Contains(refused, dc) })
			switch {
			case i >= 0 && !s.persist:
				target = peers[i]
				continue // the move costs a bounded sender an attempt, not a wait
			case i >= 0:
				target = peers[i]
			case !s.persist:
				return network.Message{}, fmt.Errorf("%w; no healthy replica left", ref)
			default:
				refused = nil // every replica refused: start over
			}
		}
		if err := s.pause(ctx, last); err != nil {
			return network.Message{}, err
		}
	}
	return network.Message{}, fmt.Errorf("core: no master for %s after %d attempts (last asked %s): %w", group, masterAttempts, target, last)
}
