package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// Epoch-fenced master leases (DESIGN.md §11). Mastership of a transaction
// group is a monotonically increasing epoch claimed *through the group's own
// Paxos log*: a claim entry at position p establishes "epoch e, master m,
// from position p+1 on". Because the claim is totally ordered with every
// transaction entry, the prevailing epoch at any position is a deterministic
// function of the log prefix, and replog's apply path fences accordingly —
// a transaction entry stamped with a superseded epoch commits nothing,
// at every replica identically (invariant F2, replog.Log).
//
// The lease is the liveness half: a prospective claimant waits until the
// prevailing holder's lease has been silent for the lease duration before
// claiming the next epoch, so a healthy master is not harassed by takeovers.
// The holder renews implicitly — every entry it commits is stamped with its
// epoch and refreshes the lease at each replica that applies it — or
// explicitly via RenewLease when idle. Lease timing uses each replica's
// local clock and is deliberately NOT load-bearing for safety: a takeover
// during a still-valid lease costs the old master fenced entries, never a
// double commit.

// leaseDuration returns the effective master lease duration.
func (s *Service) leaseDuration() time.Duration {
	if s.leaseDur > 0 {
		return s.leaseDur
	}
	return DefaultLeaseFactor * s.timeout
}

// Mastership reports the group's prevailing master epoch state as this
// datacenter has observed it, and whether the holder's lease is still live
// locally.
func (s *Service) Mastership(group string) (st replog.EpochState, leaseValid bool) {
	st, renewedAt := s.log(group).LeaseState()
	if st.Master == "" {
		return st, false
	}
	return st, time.Since(renewedAt) < s.leaseDuration()
}

// ClaimMastership makes this datacenter the group's master: it waits out
// any live lease held by another datacenter, commits a claim entry for the
// next epoch through the group's log, and absorbs the log up to the claim.
// It returns the epoch held (which may already have been ours). Bounded by
// ctx; a claim that cannot reach a quorum fails.
//
// The claim entry competes for its log position like any other proposal —
// against a still-active old master it is deliberately proposed *ahead of
// the observed tip*, with a lead that grows per failed attempt: the claimant
// cannot out-race a healthy master position by position, but it only needs
// to win one position, and every entry of the old epoch that lands above the
// winning claim is fenced (replog, invariant F2). Entries of the old epoch
// that land below it commit normally — the claim position is the exact
// serialization point of the takeover. If a foreign claim establishes a
// higher epoch first, the loop observes it and defers to its fresh lease.
//
// Once the prevailing lease has been observed expired, the claim proceeds
// even if the loop's own catch-up replays entries that refresh the local
// lease view — replayed traffic is arbitrarily stale and must not push the
// takeover back forever. Fencing keeps the duel safe either way.
func (s *Service) ClaimMastership(ctx context.Context, group string) (int64, error) {
	if !s.fencing {
		return 0, nil
	}
	if err := s.replicaFault(); err != nil {
		// A replica whose disk has died must not take (or re-take)
		// mastership: it could replicate entries but never apply them, and
		// its stamped traffic would keep the group leased to a master that
		// commits nothing. Decline; a healthy peer claims instead.
		return 0, fmt.Errorf("core: claim %s: declining, storage failed: %w", group, err)
	}
	lock := s.claimLock(group)
	lock.Lock()
	defer lock.Unlock()
	lg := s.log(group)
	committedToClaim := false
	// proposals counts actual claim proposals (not lease-wait iterations):
	// it drives the position lead, which must start at zero for the common
	// dead-master takeover and grow only when a proposal actually lost.
	proposals := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		st, renewedAt := lg.LeaseState()
		if st.Master == s.dc {
			s.recordTenure(group, st.Epoch)
			return st.Epoch, nil // already the holder (e.g. restart, retry)
		}
		if st.Master != "" && !committedToClaim {
			if remaining := s.leaseDuration() - time.Since(renewedAt); remaining > 0 {
				// A live lease: wait it out (re-checking periodically, in
				// case the holder keeps renewing) rather than dueling.
				if err := sleepCtx(ctx, minDuration(remaining, s.timeout)); err != nil {
					return 0, fmt.Errorf("core: claim %s: lease held by %s: %w", group, st.Master, err)
				}
				continue
			}
		}
		if !committedToClaim {
			// Per-epoch claim backoff (DESIGN.md §11): a service that held
			// this group and was deposed stands down for exponentially longer
			// before each re-claim. Under a sustained asymmetric partition —
			// each side seeing the other's lease go silent — mastership would
			// otherwise ping-pong every lease period forever; the backoff
			// turns that into O(log duration) swaps. A first-ever claim (the
			// ordinary dead-master failover) never waits.
			if wait := s.claimBackoffWait(group, st.Epoch); wait > 0 {
				if err := sleepCtx(ctx, wait); err != nil {
					return 0, fmt.Errorf("core: claim %s: backoff after deposition: %w", group, err)
				}
				continue // re-check: the holder may have re-asserted meanwhile
			}
		}
		committedToClaim = true
		// Place the claim above every position we know to be decided or
		// applied anywhere: the local ceiling, plus each reachable peer's
		// applied horizon (a cheap readpos probe — full catch-up would lose
		// a race against a live master before it ever proposed). A failed
		// attempt means the old master is ahead and winning; lead further.
		lead := claimLead(proposals)
		proposals++
		pos := lg.DecidedMax() + 1 + lead
		if tip := s.peersApplied(ctx, group); tip+1+lead > pos {
			pos = tip + 1 + lead
		}
		claim := wal.NewClaim(st.Epoch+1, s.dc)
		decided, ours, _, err := s.replicateMaster(ctx, group, pos, wal.Encode(claim), false)
		if err != nil {
			// Ambiguous outcome: the claim may or may not decide later. The
			// next attempt proposes higher; fail only on ctx end.
			if ctx.Err() != nil {
				return 0, fmt.Errorf("core: claim %s: %w", group, err)
			}
			continue
		}
		if aerr := s.ApplyDecided(group, pos, decided); aerr != nil {
			return 0, aerr
		}
		if !ours {
			// A foreign entry won the position; if it was a competing claim
			// with a higher epoch, defer to its fresh lease next round.
			if st2, _ := lg.LeaseState(); st2.Epoch > st.Epoch {
				committedToClaim = false
			}
			continue
		}
		// The claim is decided at pos: from here on, the old epoch is fenced
		// above pos, everywhere. Absorb the log up to the claim so the local
		// watermark (which the submit path's mastership check reads) covers
		// it; positions the old master left in flight are driven to decision
		// or no-op filled.
		if err := s.absorbTo(ctx, group, pos); err != nil {
			return 0, fmt.Errorf("core: claim %s: absorb to %d: %w", group, pos, err)
		}
		if st, _ := lg.LeaseState(); st.Master == s.dc {
			s.recordTenure(group, st.Epoch)
			return st.Epoch, nil
		}
		// Our claim entry was itself fenced (an even higher epoch landed
		// below it): defer to the winner's lease next round.
		committedToClaim = false
	}
}

// claimHistory is one group's re-claim streak state at one service: how
// often this service has been deposed and re-claimed recently, and the
// standoff deadline the current deposition imposes. Purely local liveness
// tuning — safety never depends on it (fencing does that).
type claimHistory struct {
	lastEpoch    int64     // highest epoch this service has held for the group
	streak       int       // consecutive deposition->re-claim cycles
	lastDeposed  time.Time // when the latest deposition was first observed
	deposedSeen  int64     // the epoch that deposed us, for the current standoff
	backoffUntil time.Time // absolute end of the current standoff
}

// claimBackoffWait reports how much longer this service must stand down
// before contending for group's mastership, given the prevailing epoch held
// by someone else. Zero means claim now: a service that never held the group
// (ordinary failover) or whose standoff has elapsed proceeds immediately.
// Each new deposition starts one standoff window of leaseDuration <<
// (streak+1) — 4 lease periods on the first re-claim, doubling from there —
// so a sustained duel decays geometrically; a service stable (or quiet) for
// claimStreakReset lease durations starts over. The rival is by definition
// alive and holding during a standoff, so the group is never masterless
// because of it. The deadline is
// absolute: repeated calls during one standoff (including from a fresh
// ClaimMastership after a budget timeout) wait out the same window, never
// restart it.
func (s *Service) claimBackoffWait(group string, prevailing int64) time.Duration {
	if s.claimBackoffOff || !s.fencing {
		return 0
	}
	s.claimHistMu.Lock()
	defer s.claimHistMu.Unlock()
	h := s.claimHist[group]
	if h == nil || h.lastEpoch == 0 || prevailing <= h.lastEpoch {
		return 0 // never held, or nothing has superseded us
	}
	now := time.Now()
	if h.deposedSeen != prevailing {
		// A new deposition. Decay first: a long-stable tenure (or a long
		// quiet spell) forgives past ping-pong.
		if !h.lastDeposed.IsZero() && now.Sub(h.lastDeposed) > claimStreakReset*s.leaseDuration() {
			h.streak = 0
		}
		h.streak++
		h.deposedSeen = prevailing
		h.lastDeposed = now
		shift := h.streak + 1
		if shift > claimBackoffMaxShift {
			shift = claimBackoffMaxShift
		}
		h.backoffUntil = now.Add(s.leaseDuration() << shift)
	}
	if wait := h.backoffUntil.Sub(now); wait > 0 {
		return wait
	}
	return 0
}

const (
	// claimBackoffMaxShift caps the standoff at leaseDuration << 6 = 64
	// lease periods: long enough to calm any duel, short enough that a
	// genuinely dead winner is still replaced in bounded time.
	claimBackoffMaxShift = 6
	// claimStreakReset is how many lease durations of peace reset the
	// streak.
	claimStreakReset = 16
)

// recordTenure notes that this service holds epoch for group (a fresh claim
// or an adopted one): later backoff decisions measure depositions against
// the highest epoch held.
func (s *Service) recordTenure(group string, epoch int64) {
	s.claimHistMu.Lock()
	defer s.claimHistMu.Unlock()
	h := s.claimHist[group]
	if h == nil {
		h = &claimHistory{}
		s.claimHist[group] = h
	}
	if epoch > h.lastEpoch {
		h.lastEpoch = epoch
	}
}

// claimLock returns the mutex serializing group's mastership claims.
func (s *Service) claimLock(group string) *sync.Mutex {
	s.claimMu.Lock()
	defer s.claimMu.Unlock()
	l := s.claimLocks[group]
	if l == nil {
		l = &sync.Mutex{}
		s.claimLocks[group] = l
	}
	return l
}

// claimLead is how far above the observed tip a takeover claim is proposed
// on the given attempt: nothing on the first try (the common dead-master
// case must not leave holes), exponentially further on retries so a claim
// racing a still-active master gets ahead of it in O(log distance) rounds.
func claimLead(attempt int) int64 {
	if attempt <= 0 {
		return 0
	}
	if attempt > 10 {
		attempt = 10
	}
	return 1 << attempt
}

// peersApplied probes every peer for its applied horizon concurrently —
// unreachable peers cost one shared timeout, not one each — and returns the
// maximum (0 when no peer answers).
func (s *Service) peersApplied(ctx context.Context, group string) int64 {
	if s.transport == nil {
		return 0
	}
	cctx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	var mu sync.Mutex
	var tip int64
	var wg sync.WaitGroup
	for _, dc := range s.transport.Peers() {
		if dc == s.dc {
			continue
		}
		wg.Add(1)
		go func(dc string) {
			defer wg.Done()
			resp, err := s.transport.Send(cctx, dc, network.Message{Kind: network.KindReadPos, Group: group})
			if err == nil && resp.OK {
				mu.Lock()
				if resp.TS > tip {
					tip = resp.TS
				}
				mu.Unlock()
			}
		}(dc)
	}
	wg.Wait()
	return tip
}

// absorbTo advances the local watermark to target: decided entries are
// fetched or learned, and positions that are genuinely undecided — the old
// master's abandoned in-flight slots below the takeover claim — are driven
// to a no-op decision, exactly as explicit recovery would. A position's
// transient learn failures (a racing proposer mid-decision) retry with
// backoff until ctx expires.
func (s *Service) absorbTo(ctx context.Context, group string, target int64) error {
	return s.advance(ctx, group, target, func(pos int64) (wal.Entry, error) {
		for attempt := 1; ; attempt++ {
			entry, err := s.learn(ctx, group, pos, true)
			if err == nil || errors.Is(err, errSnapshotRequired) {
				return entry, err
			}
			if err := s.backoff.pause(ctx, attempt); err != nil {
				return wal.Entry{}, err
			}
		}
	})
}

// RenewLease commits a renewal claim entry (same epoch, same master) through
// the log, refreshing the lease at every replica that applies it. Only
// meaningful for an idle master — a master with traffic renews implicitly
// through its stamped entries. Returns the epoch renewed.
func (s *Service) RenewLease(ctx context.Context, group string) (int64, error) {
	if !s.fencing {
		return 0, nil
	}
	if err := s.replicaFault(); err != nil {
		// Same rule as ClaimMastership: a fail-stopped replica lets its
		// lease lapse so mastership moves to a healthy peer.
		return 0, fmt.Errorf("core: renew %s: declining, storage failed: %w", group, err)
	}
	lg := s.log(group)
	st := lg.Epoch()
	if st.Master != s.dc {
		return 0, fmt.Errorf("core: renew %s: not master (holder %q)", group, st.Master)
	}
	pos := lg.DecidedMax() + 1
	decided, ours, _, err := s.replicateMaster(ctx, group, pos, wal.Encode(wal.NewClaim(st.Epoch, s.dc)), false)
	if err != nil {
		return 0, err
	}
	if aerr := s.ApplyDecided(group, pos, decided); aerr != nil {
		return 0, aerr
	}
	if !ours {
		return 0, fmt.Errorf("core: renew %s: lost position %d", group, pos)
	}
	return st.Epoch, nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
