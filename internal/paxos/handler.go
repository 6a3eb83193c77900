package paxos

import "paxoscp/internal/network"

// HandleMessage routes the Paxos protocol messages a Transaction Service
// receives to its acceptor and builds the wire response:
//
//	prepare  -> KindLastVote{OK, Ballot: promised, TS: voteBallot, Payload: voteValue}
//	accept   -> KindStatus{OK, Ballot: promised, Found: the row was already decided}
//
// It reports handled=false for non-acceptor kinds (apply, reads, …), which
// the service layers above deal with.
func HandleMessage(a *Acceptor, req network.Message) (network.Message, bool) {
	switch req.Kind {
	case network.KindPrepare:
		res, err := a.Prepare(req.Group, req.Pos, req.Ballot)
		if err != nil {
			return network.Status(false, err.Error()), true
		}
		return network.Message{
			Kind:    network.KindLastVote,
			OK:      res.OK,
			Ballot:  res.Promised,
			TS:      res.VoteBallot,
			Payload: res.VoteValue,
		}, true
	case network.KindAccept:
		res, err := a.Accept(req.Group, req.Pos, req.Ballot, req.Payload)
		if err != nil {
			return network.Status(false, err.Error()), true
		}
		return network.Message{Kind: network.KindStatus, OK: res.OK, Ballot: res.Promised, Found: res.Decided}, true
	default:
		return network.Message{}, false
	}
}
