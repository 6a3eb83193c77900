package core

import (
	"context"
	"fmt"

	"paxoscp/internal/deadline"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// This file implements the client side of the commit protocols: a client's
// Paxos instance — the §4.1 leader fast path, then Algorithm 2's rounds
// (paxos.Proposer.Decide) under the client's own identity and pause — with
// the basic findWinningVal rule, and the basic Paxos commit protocol. The
// Paxos-CP value-selection rule and promotion loop are in cp.go.

// valueChooser selects the value to propose in the accept phase, given the
// prepare outcome and the client's own candidate entry. It returns the
// encoded proposal. Basic Paxos uses findWinningVal (Algorithm 2 lines
// 66–75); Paxos-CP substitutes enhancedFindWinningVal (lines 76–87).
type valueChooser func(prep paxos.PrepareOutcome, own wal.Entry) []byte

// walTxn converts the transaction's buffered state into its log record. It
// runs once Commit has frozen the transaction (Tx.done), so the record shares
// the write set instead of copying it.
func (t *Tx) walTxn() wal.Txn {
	return wal.Txn{
		ID:      t.id,
		Origin:  t.client.dc,
		ReadPos: t.readPos,
		ReadSet: t.readSetKeys(),
		Writes:  t.writes,
	}
}

// commitBasic runs the basic Paxos commit protocol (§4.1): one instance for
// the commit position read position + 1; the transaction commits iff the
// decided value is its own.
func (c *Client) commitBasic(ctx context.Context, t *Tx) (CommitResult, error) {
	txn := t.walTxn()
	pos := t.readPos + 1
	decided, err := c.runInstance(ctx, t.group, pos, txn, c.chooseBasic, false)
	if err != nil {
		return CommitResult{Status: stats.Failed}, err
	}
	if wal.Contains(decided, txn.ID) {
		return CommitResult{Status: stats.Committed, Pos: pos}, nil
	}
	return CommitResult{Status: stats.Aborted}, nil
}

// chooseBasic is findWinningVal: the client must propose the value with the
// greatest proposal number among the votes; only if every response carries a
// null vote may it propose its own value (see [18]).
func (c *Client) chooseBasic(prep paxos.PrepareOutcome, own wal.Entry) []byte {
	if v, ok := maxBallotVote(prep.Votes); ok {
		return v.Value
	}
	return wal.Encode(own)
}

// maxBallotVote returns the non-null vote with the highest ballot. Equal
// ballots with different values are possible only at the fast ballot, and
// only between masters racing one position (a client's ballot 0 is granted
// once per position, so its votes all carry one value). They tie-break on
// the encoded value, so every recoverer that sees the same vote pair
// completes the same value. Safe because masters only ever *choose* a
// fast-ballot value at unanimity (see paxos.AcceptOutcome.Unanimous): a tie
// in any view proves neither value was fast-chosen, and the deterministic
// pick keeps recoverers from completing different values.
func maxBallotVote(votes []paxos.Vote) (paxos.Vote, bool) {
	best := paxos.Vote{Ballot: paxos.NilBallot}
	for _, v := range votes {
		if v.IsNull() {
			continue
		}
		if v.Ballot > best.Ballot ||
			(v.Ballot == best.Ballot && string(v.Value) < string(best.Value)) {
			best = v
		}
	}
	return best, !best.IsNull()
}

// runInstance drives one Paxos instance to a decision and returns the
// decided entry's bytes, checked (wal.Check): the outcome is asked of them,
// not decoded. waitAllPrepare selects the prepare collection mode (CP
// inspects the full vote set; Basic proceeds at a majority). A run that uses
// up Config.MaxRetries rounds fails with paxos.ErrUndecided.
//
// The instance always terminates with the decided value: a client that loses
// still completes the protocol — "Each Transaction Client must execute all
// steps of the protocol to learn the winning value" (§4.1). This also makes
// Paxos-CP's promotion sound: the conflict check runs against the actual
// decided entry, never a guess.
func (c *Client) runInstance(ctx context.Context, group string, pos int64, txn wal.Txn, choose valueChooser, waitAllPrepare bool) (string, error) {
	own := wal.Entry{Txns: []wal.Txn{txn}}
	ownBytes := wal.Encode(own)

	// Leader fast path (§4.1): if this client is the first to claim the
	// position at the leader, skip prepare and accept at the fast ballot.
	// The claim token is the transaction ID: only ONE transaction ever gets
	// the fast ballot for a position. A per-client token would let the same
	// client's next transaction reuse the fast path on a position whose
	// decision it never learned, producing two different ballot-0 proposals
	// for one position — a Paxos safety violation (found by the nemesis
	// fault-injection test).
	if !c.cfg.DisableFastPath {
		if c.claimFastPath(ctx, group, pos, txn.ID) {
			// Majority, not unanimity: the grant makes this transaction the
			// only ballot-0 proposer the position will ever have — the
			// leader grants once, and never in a group a master has claimed
			// (handleClaim) — so ballot 0 is an ordinary ballot whose prepare
			// phase is vacuous, and it decides as any ballot does. Unanimity
			// is for masters, who share ballot 0 with nobody arbitrating
			// (replicateMaster, DESIGN.md §11).
			acc := c.proposer.Accept(ctx, group, pos, paxos.FastBallot, ownBytes)
			if acc.Quorum() {
				c.proposer.Notify(ctx, c.dc, group, pos, acc.ChosenAt, ownBytes)
				return view(ownBytes), nil
			}
			// Contention or loss: fall back to the full protocol.
		}
	}

	value, chosenAt, err := c.proposer.Decide(ctx, paxos.Instance{
		Group: group, Pos: pos, ID: c.id, WaitAll: waitAllPrepare,
		Rounds: c.cfg.maxRetries(), Pause: c.backoff.pause,
		Choose: func(prep paxos.PrepareOutcome) ([]byte, error) { return choose(prep, own), nil },
	})
	if err != nil {
		return "", err
	}
	// Apply phase: the value is decided, and the rest is notification.
	c.proposer.Notify(ctx, c.dc, group, pos, chosenAt, value)
	decided := string(value)
	if err := wal.Check(decided); err != nil {
		return "", fmt.Errorf("core: decided value corrupt: %w", err)
	}
	return decided, nil
}

// claimFastPath asks the position's leader whether this transaction is the
// first to start the commit protocol for the position. The claim goes to
// the local service first; if it is not the leader it replies with a hint
// and the client retries once at the actual leader. The token identifies
// the transaction so the grant is idempotent across duplicated claim
// messages but never transfers to another transaction.
func (c *Client) claimFastPath(ctx context.Context, group string, pos int64, token string) bool {
	req := network.Message{Kind: network.KindClaimLeader, Group: group, Pos: pos, Value: token}
	timeout := c.cfg.timeout()

	cctx := deadline.Start(ctx, timeout)
	resp, err := c.transport.Send(cctx, c.dc, req)
	cctx.End()
	if err != nil {
		return false
	}
	if resp.OK {
		return true
	}
	if resp.Value == "" || resp.Value == c.dc {
		return false
	}
	// Retry at the hinted leader.
	cctx = deadline.Start(ctx, timeout)
	resp, err = c.transport.Send(cctx, resp.Value, req)
	cctx.End()
	return err == nil && resp.OK
}
