package core

import (
	"context"
	"errors"

	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// This file implements the leader-based design the paper sketches in §7 and
// names as future work in §8: "a full Paxos algorithm [that] behaves exactly
// as an atomic broadcast algorithm with a sequencer ... The leader could act
// as the transaction manager, check each new transaction against previously
// committed transactions ... assign the transaction a position in the log
// and send this log entry to all replicas."
//
// One datacenter is the long-term master for a transaction group. Clients
// submit their transaction to the master; the master runs a fine-grained
// conflict check against the log suffix after the transaction's read
// position, assigns the next log position, and replicates with a single
// accept round (the multi-Paxos fast ballot — the master is the only
// proposer while its leadership holds). If an acceptor has been touched by
// another proposer, the master falls back to a full Paxos instance.
//
// Trade-offs, as the paper predicts: fewer message rounds per transaction
// and no aborts for non-conflicting transactions, but every commit does a
// round trip to the master's site and "a greater amount of work [falls] on
// a single site [which] could possibly be a performance bottleneck". The
// Master row in the bench ablations quantifies exactly that; the pipelined
// submit path (pipeline.go, DESIGN.md §8) removes the per-group
// serialization that made the bottleneck one Paxos round trip deep.

// Master selects the leader-based commit protocol (§7 design). Configure
// the master's datacenter with Config.MasterDC.
const Master Protocol = 2

// commitMaster submits the transaction to the group's master, wherever
// mastership now is (sender.toMaster, route.go), and maps the verdict onto a
// CommitResult. A refusal that says nothing reached the log is Rejected: an
// overload is the caller's to retry at its own pace (the refusal's queue depth
// was the backpressure hint), a range that moved or is mid-cutover is retried
// at the group the refusal leads to — KV follows it (DESIGN.md §15).
func (c *Client) commitMaster(ctx context.Context, t *Tx) (CommitResult, error) {
	resp, err := sender{c: c}.toMaster(ctx, t.group, network.Message{
		Kind: network.KindSubmit, Group: t.group, Payload: wal.Encode(wal.Entry{Txns: []wal.Txn{t.walTxn()}}),
	})
	if err == nil {
		return CommitResult{Status: stats.Committed, Pos: resp.TS, Combined: resp.Combined, Epoch: resp.Epoch}, nil
	}
	var ref *Refusal
	if errors.As(err, &ref) {
		switch ref.Verdict {
		case network.VerdictConflict:
			return CommitResult{Status: stats.Aborted}, nil
		case network.VerdictOverloaded:
			return CommitResult{Status: stats.Rejected}, nil
		case network.VerdictMoved, network.VerdictMigrating:
			return CommitResult{Status: stats.Rejected}, err
		}
	}
	return CommitResult{Status: stats.Failed}, err
}

// handleSubmit is the master-side entry point: the submitted transaction is
// handed to the group's pipelined submit path (pipeline.go), which combines
// it with other concurrently submitted transactions and keeps several Paxos
// positions in flight. The verdict reaches reply when admission or
// replication settles it, and nothing waits for it in between: no lock is
// held across the replication round trip, so the master's own apply fan-out
// (which loops back to this service) proceeds independently of the submit
// path even with the window full (TestMasterPipelineWindowFullNoDeadlock).
// Nothing is decoded: wal.OneTxn reads one copy of the pooled payload, and
// the pipeline splices the entry from those bytes.
func (s *Service) handleSubmit(req network.Message, reply func(network.Message)) {
	txn, err := wal.OneTxn(string(req.Payload))
	if err != nil {
		reply(network.Status(false, "bad submit payload"))
		return
	}
	s.pipeline(req.Group).SubmitAsync(txn, reply)
}

// fastOutcome classifies the fast round of one master replication, so the
// pipeline's breaker reacts to unreachable peers without punishing ordinary
// per-position contention.
type fastOutcome int

const (
	// fastSkipped: the caller asked for no fast round (breaker open).
	fastSkipped fastOutcome = iota
	// fastDecided: unanimous — the value is decided in one round trip.
	fastDecided
	// fastContended: an acceptor refused the ballot-0 vote (someone else
	// touched the position). A one-position race; the fast path is healthy.
	fastContended
	// fastDegraded: a send failed or a peer stayed silent — unanimity is
	// impossible until the peer returns, so fast rounds are wasted latency.
	fastDegraded
)

// replicateMaster replicates value into (group, pos): one fast-ballot accept
// round in the common case, the service's Paxos instance (Service.instance)
// as fallback, proposing the highest vote a prepare finds, else value. It
// returns the decided bytes, whether they are value, and how the fast round
// went. The pipeline skips the fast round while its breaker is open (a peer
// is unreachable, so unanimity is impossible and the attempt would only add
// one timeout of latency per position).
//
// The fast round is taken only at unanimity (AcceptOutcome.Unanimous): with
// a mere majority, two masters dueling through a partition — the split-brain
// window epoch fencing exists for — can each assemble a majority view
// holding both ballot-0 votes, and no recovery rule can tell which value
// was chosen. Unanimity makes ballot-0 decisions unambiguous in every
// majority view; anything less falls back to classic Paxos, whose unique
// per-proposer ballots serialize the duel (DESIGN.md §11).
//
// And it is taken only above a mastership claim this service has applied
// (R-b): a CP or Basic client granted a position by its leader decides its
// ballot 0 at a majority, which is sound only while nobody else proposes at
// ballot 0 there. A leader grants nothing once it has applied a claim
// (handleClaim, R-a), so a master that knows of a claim below the position it
// proposes cannot meet a grantee on it; one that knows of none — a group's
// first claim — goes prepare → accept.
func (s *Service) replicateMaster(ctx context.Context, group string, pos int64, value []byte, skipFast bool) (_ []byte, ours bool, fast fastOutcome, _ error) {
	in := s.instance(group, pos)
	fast = fastSkipped
	if st := s.log(group).Epoch(); !skipFast && st.Epoch != 0 && st.Pos < pos {
		acc := s.proposer.AcceptUnanimous(ctx, group, pos, paxos.FastBallot, value)
		if acc.Unanimous() {
			s.proposer.Apply(ctx, group, pos, acc.ChosenAt, value)
			return value, true, fastDecided, nil
		}
		fast = fastContended
		if acc.Unreachable > 0 {
			fast = fastDegraded
		}
		// Someone touched the instance (or a peer is unreachable); run it
		// properly, above every ballot the fast round saw.
		in.Seen = acc.MaxSeen
	}
	in.Choose = func(prep paxos.PrepareOutcome) ([]byte, error) {
		if v, ok := maxBallotVote(prep.Votes); ok {
			return v.Value, nil
		}
		return value, nil
	}
	decided, chosenAt, err := s.proposer.Decide(ctx, in)
	if err != nil {
		return nil, false, fast, err
	}
	s.proposer.Apply(ctx, group, pos, chosenAt, decided)
	return decided, string(decided) == string(value), fast, nil
}
