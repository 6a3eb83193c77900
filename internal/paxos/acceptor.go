package paxos

import (
	"errors"
	"strconv"

	"paxoscp/internal/kvstore"
)

// Acceptor state is one kvstore row per (group, position) with attributes:
//
//	seq        monotonically increasing modification counter (CAS token)
//	nextBal    highest prepare ballot promised (decimal, "" = never)
//	voteBal    ballot of the last vote cast ("" = null vote)
//	voteVal    value voted for (encoded wal.Entry bytes, raw string)
//
// Algorithm 1 conditions its checkAndWrite on nextBal alone. Because accept
// leaves nextBal unchanged, that admits a lost-vote race between a
// concurrent prepare and accept on the same row (the prepare's conditional
// write can succeed after a vote it did not observe). We keep the paper's
// operation — a single checkAndWrite per transition — but test the seq
// attribute, which changes on every mutation, making each transition a true
// compare-and-swap over the row. See DESIGN.md §2.
type Acceptor struct {
	store *kvstore.Store
}

// NewAcceptor returns an Acceptor whose durable state lives in store.
func NewAcceptor(store *kvstore.Store) *Acceptor {
	return &Acceptor{store: store}
}

// StatePrefix is the row-name prefix of acceptor state. internal/core
// scavenges these rows at compaction time via StateKey.
const StatePrefix = "paxos/"

// StateKey is the kvstore row that holds Paxos state for (group, pos). It
// runs on every prepare/accept load and CAS, so it is built allocation-free
// by kvstore.PosKey rather than fmt.Sprintf.
func StateKey(group string, pos int64) string {
	return kvstore.PosKey(StatePrefix, group, pos)
}

// acceptorState is the decoded row.
type acceptorState struct {
	seq     int64
	nextBal int64
	voteBal int64
	voteVal []byte
}

func parseBallot(s string) int64 {
	if s == "" {
		return NilBallot
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return NilBallot
	}
	return v
}

func (a *Acceptor) load(group string, pos int64) (acceptorState, error) {
	v, _, err := a.store.ReadPacked(StateKey(group, pos), kvstore.Latest)
	if errors.Is(err, kvstore.ErrNotFound) {
		return acceptorState{seq: 0, nextBal: NilBallot, voteBal: NilBallot}, nil
	}
	if err != nil {
		return acceptorState{}, err
	}
	st := acceptorState{
		seq:     parseSeq(v.Get("seq")),
		nextBal: parseBallot(v.Get("nextBal")),
		voteBal: parseBallot(v.Get("voteBal")),
	}
	if st.voteBal != NilBallot {
		st.voteVal = []byte(v.Get("voteVal"))
	}
	return st, nil
}

func parseSeq(s string) int64 {
	if s == "" {
		return 0
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

// cas attempts the transition old -> next conditioned on the seq attribute
// being unchanged since old was read. It returns false when the row moved.
func (a *Acceptor) cas(group string, pos int64, old acceptorState, next acceptorState) (bool, error) {
	testSeq := ""
	if old.seq > 0 {
		testSeq = strconv.FormatInt(old.seq, 10)
	}
	// Packed directly, names ascending: the row is written on every prepare
	// and accept, and a map built only to be encoded is pure garbage.
	nextBal, seq := strconv.FormatInt(next.nextBal, 10), strconv.FormatInt(old.seq+1, 10)
	val := kvstore.PackAttrs("nextBal", nextBal, "seq", seq)
	if next.voteBal != NilBallot {
		val = kvstore.PackAttrs("nextBal", nextBal, "seq", seq,
			"voteBal", strconv.FormatInt(next.voteBal, 10), "voteVal", string(next.voteVal))
	}
	err := a.store.CheckAndWrite(StateKey(group, pos), "seq", testSeq, val)
	if errors.Is(err, kvstore.ErrCheckFailed) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// PrepareResult is the acceptor's reply to a prepare message.
type PrepareResult struct {
	// OK reports whether the promise was granted.
	OK bool
	// Promised is the acceptor's nextBal after processing: the granted
	// ballot on success, or the higher existing promise on refusal (so the
	// proposer can choose its next proposal number).
	Promised int64
	// VoteBallot and VoteValue carry the acceptor's last vote for this
	// position; VoteBallot == NilBallot means a null vote.
	VoteBallot int64
	VoteValue  []byte
}

// Prepare processes a prepare(ballot) message for one log position
// (Algorithm 1 lines 3–15). On success the acceptor promises to ignore
// proposals numbered below ballot and returns its last vote.
func (a *Acceptor) Prepare(group string, pos int64, ballot int64) (PrepareResult, error) {
	for {
		st, err := a.load(group, pos)
		if err != nil {
			return PrepareResult{}, err
		}
		if ballot <= st.nextBal {
			return PrepareResult{OK: false, Promised: st.nextBal, VoteBallot: st.voteBal, VoteValue: st.voteVal}, nil
		}
		next := st
		next.nextBal = ballot
		ok, err := a.cas(group, pos, st, next)
		if err != nil {
			return PrepareResult{}, err
		}
		if ok {
			return PrepareResult{OK: true, Promised: ballot, VoteBallot: st.voteBal, VoteValue: st.voteVal}, nil
		}
		// The row changed underneath us ("only update nextBal in datastore
		// if it has not changed since read"); re-read and retry.
	}
}

// AcceptResult is the acceptor's reply to an accept message.
type AcceptResult struct {
	// OK reports whether the vote was cast.
	OK bool
	// Promised is the acceptor's current promise, returned on refusal.
	Promised int64
}

// Accept processes an accept(ballot, value) message (Algorithm 1 lines
// 16–19). The vote is cast only when ballot equals the acceptor's current
// promise — i.e. the proposal number of the most recent prepare this
// acceptor answered.
//
// As the one extension, a FastBallot accept is taken by an acceptor that has
// never promised nor voted: this implements the §4.1 leader optimization
// where the position's first writer skips the prepare phase.
func (a *Acceptor) Accept(group string, pos int64, ballot int64, value []byte) (AcceptResult, error) {
	for {
		st, err := a.load(group, pos)
		if err != nil {
			return AcceptResult{}, err
		}
		if st.voteBal == ballot {
			// Already voted at this ballot. A duplicate delivery of the
			// same value is acknowledged idempotently; a different value at
			// the same ballot (possible only on the contended fast path) is
			// refused — an acceptor votes at most once per ballot.
			if string(st.voteVal) == string(value) {
				return AcceptResult{OK: true, Promised: st.nextBal}, nil
			}
			return AcceptResult{OK: false, Promised: st.nextBal}, nil
		}
		fastOK := ballot == FastBallot && st.nextBal == NilBallot && st.voteBal == NilBallot
		if st.nextBal != ballot && !fastOK {
			return AcceptResult{OK: false, Promised: st.nextBal}, nil
		}
		next := st
		next.nextBal = ballot
		next.voteBal = ballot
		next.voteVal = value
		ok, err := a.cas(group, pos, st, next)
		if err != nil {
			return AcceptResult{}, err
		}
		if ok {
			return AcceptResult{OK: true, Promised: ballot}, nil
		}
	}
}

// Vote returns the acceptor's last vote for a position (for inspection and
// recovery tooling). A NilBallot result means no vote was cast.
func (a *Acceptor) Vote(group string, pos int64) (ballot int64, value []byte, err error) {
	st, err := a.load(group, pos)
	if err != nil {
		return NilBallot, nil, err
	}
	return st.voteBal, st.voteVal, nil
}

// Promised returns the acceptor's current promise for a position.
func (a *Acceptor) Promised(group string, pos int64) (int64, error) {
	st, err := a.load(group, pos)
	if err != nil {
		return NilBallot, err
	}
	return st.nextBal, nil
}
