package network

// CounterSnapshot is a point-in-time copy of a Sim's message tallies, by
// kind. It backs the paper's §5 claim check that Paxos-CP has "the same per
// instance message complexity as the basic Paxos protocol" (ablation A2 in
// DESIGN.md).
type CounterSnapshot struct {
	Sent map[Kind]int64
	Lost map[Kind]int64
}

// TotalSent sums sent messages across all kinds.
func (s CounterSnapshot) TotalSent() int64 {
	var n int64
	for _, v := range s.Sent {
		n += v
	}
	return n
}

// PaxosSent sums messages belonging to the Paxos commit protocol proper
// (prepare/accept/apply and their replies), excluding the transaction API
// and catch-up traffic.
func (s CounterSnapshot) PaxosSent() int64 {
	var n int64
	for _, k := range []Kind{KindPrepare, KindAccept, KindApply, KindLastVote, KindStatus} {
		n += s.Sent[k]
	}
	return n
}
