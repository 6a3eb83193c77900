package core

import (
	"context"
	"sort"

	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// This file implements Paxos-CP (§5): the enhancedFindWinningVal value
// selection (Algorithm 2 lines 76–87) with its combination search, and the
// promotion loop around the shared instance runner.

// commitCP runs the Paxos-CP commit protocol. The client competes for the
// commit position read position + 1; when it loses a position to
// non-conflicting transactions it is promoted to compete for the next one
// ("it can try to win log position k+1 so long as doing so will not violate
// one-copy serializability").
func (c *Client) commitCP(ctx context.Context, t *Tx) (CommitResult, error) {
	txn := t.walTxn()
	pos := t.readPos + 1
	round := 0
	for {
		decided, err := c.runInstance(ctx, t.group, pos, txn, c.chooseCP, true)
		if err != nil {
			return CommitResult{Status: stats.Failed, Round: round}, err
		}
		if decided.Contains(txn.ID) {
			return CommitResult{
				Status:   stats.Committed,
				Pos:      pos,
				Round:    round,
				Combined: len(decided.Txns) > 1,
			}, nil
		}
		// Lost the position. Promotion is allowed only when the winners do
		// not invalidate this transaction's reads: "If the client's
		// transaction does not read any value that was written by the
		// winning transactions for log position k, the client begins Step 1
		// of the commit protocol for log position k+1 with its own value."
		if c.cfg.DisablePromotion {
			return CommitResult{Status: stats.Aborted, Round: round}, nil
		}
		if txn.ReadsAny(decided.WriteKeys()) {
			return CommitResult{Status: stats.Aborted, Round: round}, nil
		}
		if c.cfg.MaxPromotions > 0 && round >= c.cfg.MaxPromotions {
			return CommitResult{Status: stats.Aborted, Round: round}, nil
		}
		pos++
		round++
	}
}

// chooseCP is enhancedFindWinningVal (Algorithm 2 lines 76–87). Let
// maxVotes be the vote count of the most-voted value among the responses:
//
//   - If maxVotes + (D − |responseSet|) ≤ ⌊D/2⌋, no value can have reached a
//     majority, so the client is free to propose any value: it combines its
//     own transaction with the non-conflicting voted transactions.
//   - If maxVotes > ⌊D/2⌋ and the client's transaction is not part of that
//     value, another value has already won; the client proposes the winner
//     to drive the instance to its decision (the promotion check then runs
//     against the actual decided entry in commitCP).
//   - Otherwise it reverts to the basic findWinningVal rule.
//
// A vote at paxos.DecidedBallot comes from a row that holds the decided
// entry: the vote counts are beside the point, and the basic rule adopts it.
func (c *Client) chooseCP(prep paxos.PrepareOutcome, own wal.Entry) []byte {
	if v, ok := maxBallotVote(prep.Votes); ok && v.Ballot == paxos.DecidedBallot {
		return v.Value
	}
	maxVal, maxVotes := mostVotedValue(prep.Votes)
	d := prep.D
	responses := len(prep.Votes)

	if maxVotes+(d-responses) <= d/2 {
		// No winning value is possible yet, so combine.
		if c.cfg.DisableCombination {
			return wal.Encode(own)
		}
		return wal.Encode(c.combine(own, prep.Votes))
	}
	if maxVotes > d/2 {
		if decided, err := wal.Decode(maxVal); err == nil && !decided.Contains(own.Txns[0].ID) {
			// Another value has already won; drive it to decision and try
			// for promotion afterwards.
			return maxVal
		}
	}
	return c.chooseBasic(prep, own)
}

// mostVotedValue tallies the non-null votes by value identity and returns
// the most-voted encoded value with its count.
func mostVotedValue(votes []paxos.Vote) ([]byte, int) {
	counts := make(map[string]int)
	var best []byte
	bestN := 0
	for _, v := range votes {
		if v.IsNull() {
			continue
		}
		k := string(v.Value)
		counts[k]++
		if counts[k] > bestN {
			bestN = counts[k]
			best = v.Value
		}
	}
	return best, bestN
}

// combine builds the combined log entry: the client's own transaction first,
// followed by the longest list of already-voted transactions whose list
// order is one-copy serializable ("no transaction in the list reads a value
// written by any preceding transaction in the list"). With few candidates
// the search is exhaustive over every subset in every order, exactly as §5
// describes; beyond CombineLimit candidates it switches to the greedy
// single pass §5 suggests.
func (c *Client) combine(own wal.Entry, votes []paxos.Vote) wal.Entry {
	candidates := candidateTxns(own, votes)
	if len(candidates) == 0 {
		return own
	}
	if len(candidates) <= c.cfg.combineLimit() {
		return combineExhaustive(own, candidates)
	}
	return combineGreedy(own, candidates)
}

// candidateTxns extracts the distinct transactions present in the votes,
// excluding the client's own and any no-op fill, in deterministic order.
func candidateTxns(own wal.Entry, votes []paxos.Vote) []wal.Txn {
	seen := make(map[string]bool)
	for _, t := range own.Txns {
		seen[t.ID] = true
	}
	var out []wal.Txn
	for _, v := range votes {
		if v.IsNull() {
			continue
		}
		entry, err := wal.Decode(v.Value)
		if err != nil {
			continue
		}
		for _, t := range entry.Txns {
			if !seen[t.ID] {
				seen[t.ID] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// combineExhaustive finds the maximum-length serializable list
// [own..., subset-permutation...] by trying every subset of the candidates
// in every order. Candidate counts are capped by CombineLimit (default 4),
// so the worst case is 2^4 subsets × 4! orders.
func combineExhaustive(own wal.Entry, candidates []wal.Txn) wal.Entry {
	n := len(candidates)
	best := own.Clone()
	// Enumerate subsets by descending size so the first serializable
	// permutation of the largest workable subset wins.
	type subset struct {
		mask int
		size int
	}
	subsets := make([]subset, 0, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		size := 0
		for m := mask; m != 0; m >>= 1 {
			size += m & 1
		}
		subsets = append(subsets, subset{mask, size})
	}
	sort.Slice(subsets, func(i, j int) bool { return subsets[i].size > subsets[j].size })

	bestExtra := 0
	for _, sub := range subsets {
		if sub.size <= bestExtra {
			break // remaining subsets are no larger
		}
		var chosen []wal.Txn
		for i := 0; i < n; i++ {
			if sub.mask&(1<<i) != 0 {
				chosen = append(chosen, candidates[i])
			}
		}
		if perm, ok := findSerializableOrder(own, chosen); ok {
			best = perm
			bestExtra = sub.size
		}
	}
	return best
}

// findSerializableOrder tries every permutation of txns appended after own
// and returns the first whose order is serializable.
func findSerializableOrder(own wal.Entry, txns []wal.Txn) (wal.Entry, bool) {
	var found wal.Entry
	ok := false
	permute(txns, func(perm []wal.Txn) bool {
		e := own.Clone()
		e.Txns = append(e.Txns, perm...)
		if e.SerializableOrder() {
			found = e
			ok = true
			return true
		}
		return false
	})
	return found, ok
}

// permute invokes fn with each permutation of txns (Heap's algorithm) until
// fn returns true.
func permute(txns []wal.Txn, fn func([]wal.Txn) bool) bool {
	work := append([]wal.Txn(nil), txns...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return fn(work)
		}
		for i := 0; i < k; i++ {
			if rec(k - 1) {
				return true
			}
			if k%2 == 0 {
				work[i], work[k-1] = work[k-1], work[i]
			} else {
				work[0], work[k-1] = work[k-1], work[0]
			}
		}
		return false
	}
	if len(work) == 0 {
		return fn(work)
	}
	return rec(len(work))
}

// combineGreedy makes one pass over the candidates, appending each
// transaction that keeps the list order serializable.
func combineGreedy(own wal.Entry, candidates []wal.Txn) wal.Entry {
	e := own.Clone()
	for _, t := range candidates {
		trial := e.Clone()
		trial.Txns = append(trial.Txns, t.Clone())
		if trial.SerializableOrder() {
			e = trial
		}
	}
	return e
}
