package paxos

import (
	"errors"
	"fmt"
	"strconv"

	"paxoscp/internal/kvstore"
)

// Acceptor state is one kvstore row per (group, position) — the position's
// row of the replicated log, log/<group>/<pos> — with attributes:
//
//	seq        monotonically increasing modification counter (CAS token)
//	nextBal    highest prepare ballot promised (decimal, "" = never)
//	voteBal    ballot of the last vote cast ("" = null vote)
//	entry      value voted for (encoded wal.Entry bytes, raw string)
//
// Algorithm 1 conditions its checkAndWrite on nextBal alone. Because accept
// leaves nextBal unchanged, that admits a lost-vote race between a
// concurrent prepare and accept on the same row (the prepare's conditional
// write can succeed after a vote it did not observe). We keep the paper's
// operation — a single checkAndWrite per transition — but test the seq
// attribute, which changes on every mutation, making each transition a true
// compare-and-swap over the row. See DESIGN.md §2.
//
// The vote is the log entry: once the position is decided, internal/replog
// either leaves the row as it is — when the vote is for the decided value and
// can no longer change (VoteStands) — or replaces it with the decided form
// (DecidedRow), which the acceptor treats as final and never writes.
type Acceptor struct {
	store *kvstore.Store
}

// NewAcceptor returns an Acceptor whose durable state lives in store.
func NewAcceptor(store *kvstore.Store) *Acceptor {
	return &Acceptor{store: store}
}

// StatePrefix is the row-name prefix of a position's row: acceptor state
// until the position is decided, its log entry from then on.
const StatePrefix = "log/"

// StateKey is the kvstore row of (group, pos). It runs on every
// prepare/accept load and CAS and on every log read, so it is built
// allocation-free by kvstore.PosKey rather than fmt.Sprintf.
func StateKey(group string, pos int64) string {
	return kvstore.PosKey(StatePrefix, group, pos)
}

// decidedSeq is the seq of a decided row. It is no number, so the CAS of an
// acceptor that loaded the row before it was decided fails and re-reads.
const decidedSeq = "d"

// DecidedRow is the decided form of a position's row: the entry and the mark
// that makes the row final.
func DecidedRow(entry string) kvstore.Packed {
	return kvstore.PackAttrs("d", "1", "entry", entry, "seq", decidedSeq)
}

// RowDecided reports whether row carries the decided mark.
func RowDecided(row kvstore.Packed) bool { return row.Get("d") != "" }

// RowEntry returns the value row holds: the decided entry of a marked row,
// the last vote of an unmarked one ("" = null vote).
func RowEntry(row kvstore.Packed) string { return row.Get("entry") }

// VoteStands reports whether an unmarked row's vote is for entry and can never
// be for anything else — so the row, as it is, is the durable log entry and
// need not be written again. chosenAt is a ballot a majority voted for entry
// at. The promise is what makes the vote final: an acceptor that promised
// chosenAt or higher only ever takes accepts at or above it, and every such
// ballot carries the chosen value. A vote for the same bytes under a lower
// promise is not enough — the value may have been chosen later, without this
// acceptor, and a straggling accept(b, other), vote < b < chosenAt, would
// still be taken.
func VoteStands(row kvstore.Packed, entry string, chosenAt int64) bool {
	return !RowDecided(row) && RowEntry(row) == entry && parseBallot(row.Get("nextBal")) >= chosenAt
}

// legacyPrefix is where builds before the one-row layout kept acceptor state.
const legacyPrefix = "paxos/"

// CheckLayout refuses a store that still holds acceptor rows under the
// legacy prefix: this build reads votes from the log rows only and would
// forget the ones an older build left in flight.
func CheckLayout(store *kvstore.Store) error {
	rows, _, err := store.ScanPrefix(legacyPrefix, "", 1, kvstore.Latest)
	if err != nil || len(rows) == 0 {
		return err
	}
	return fmt.Errorf("paxos: row %s: the store was written by an older build, which kept acceptor state apart from the log; the store is left as it is — a replica started on an empty directory installs its state from its peers", rows[0].Key)
}

// acceptorState is the decoded row.
type acceptorState struct {
	seq     int64
	nextBal int64
	voteBal int64
	voteVal []byte
}

// decided reports that the row is final: voteVal is the decided entry.
func (st acceptorState) decided() bool { return st.voteBal == DecidedBallot }

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
	if RowDecided(v) {
		return acceptorState{nextBal: NilBallot, voteBal: DecidedBallot, voteVal: []byte(RowEntry(v))}, nil
	}
	st := acceptorState{
		seq:     parseSeq(v.Get("seq")),
		nextBal: parseBallot(v.Get("nextBal")),
		voteBal: parseBallot(v.Get("voteBal")),
	}
	if st.voteBal != NilBallot {
		st.voteVal = []byte(RowEntry(v))
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
		val = kvstore.PackAttrs("entry", string(next.voteVal), "nextBal", nextBal, "seq", seq,
			"voteBal", strconv.FormatInt(next.voteBal, 10))
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
// proposals numbered below ballot and returns its last vote. A decided row
// answers every ballot with its value, voted at DecidedBallot.
func (a *Acceptor) Prepare(group string, pos int64, ballot int64) (PrepareResult, error) {
	for {
		st, err := a.load(group, pos)
		if err != nil {
			return PrepareResult{}, err
		}
		if st.decided() {
			// Nothing is promised and nothing written: the value reported at
			// DecidedBallot is the one the proposer must carry, at any ballot.
			return PrepareResult{OK: true, Promised: ballot, VoteBallot: DecidedBallot, VoteValue: st.voteVal}, nil
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
	// Decided reports that the answer came from a row already decided, which
	// casts no vote: OK acknowledges that value is the decided one — so a
	// proposer completing a decided position still reaches its quorum — and
	// says nothing about what this acceptor promised before the decision
	// (AcceptOutcome.ChosenAt).
	Decided bool
}

// Accept processes an accept(ballot, value) message (Algorithm 1 lines
// 16–19). The vote is cast only when ballot equals the acceptor's current
// promise — i.e. the proposal number of the most recent prepare this
// acceptor answered.
//
// As the one extension, a FastBallot accept is taken by an acceptor that has
// never promised nor voted: this implements the §4.1 leader optimization
// where the position's first writer skips the prepare phase.
//
// A decided row acknowledges its own value at any ballot and refuses every
// other, without being written.
func (a *Acceptor) Accept(group string, pos int64, ballot int64, value []byte) (AcceptResult, error) {
	for {
		st, err := a.load(group, pos)
		if err != nil {
			return AcceptResult{}, err
		}
		if st.decided() {
			// A decided row is final. Refusing any other value is what keeps a
			// straggling accept(b, X) from overwriting a row that became the
			// log entry Y while this acceptor was not in Y's quorum.
			return AcceptResult{OK: string(st.voteVal) == string(value), Promised: ballot, Decided: true}, nil
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
