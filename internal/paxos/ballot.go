package paxos

import (
	"fmt"
	"math"
)

// MaxClients bounds the number of distinct proposer identities. Ballots
// encode the client ID in their low bits so that proposal numbers are
// globally unique ("The proposal number must be unique and should be larger
// than any previously seen proposal number", §4.1).
const MaxClients = 1 << 16

// FastBallot is the reserved ballot number for the leader fast path (§4.1
// "Paxos Optimizations"): the first client to claim a position at its leader
// may skip prepare and send accept directly with this ballot. Acceptors take
// a FastBallot accept only if they have neither promised nor voted.
const FastBallot int64 = 0

// NilBallot represents "no ballot": an acceptor that never promised reports
// NilBallot as its promise, and a vote with ballot NilBallot is a null vote.
const NilBallot int64 = -1

// DecidedBallot is the ballot an acceptor reports a decided position's value
// at (acceptor.go): it outranks every proposal number, so whichever rule a
// proposer picks its value by adopts the decided one — sound because a chosen
// value is the only value any higher ballot may carry. It travels as a vote's
// ballot (PrepareResult.VoteBallot) and as the ballot of an apply message
// whose sender cannot name one the value was chosen at
// (AcceptOutcome.ChosenAt); never as a promise, so it never feeds NextBallot.
const DecidedBallot int64 = math.MaxInt64

// Ballot composes a proposal number from a round counter and a client ID.
// Rounds start at 1; round 0 is reserved for the fast path.
func Ballot(round int64, clientID int) int64 {
	if round < 1 {
		panic(fmt.Sprintf("paxos: round %d < 1", round))
	}
	if clientID < 0 || clientID >= MaxClients {
		panic(fmt.Sprintf("paxos: client ID %d out of range", clientID))
	}
	return round*MaxClients + int64(clientID)
}

// Round extracts the round counter from a ballot.
func Round(ballot int64) int64 {
	if ballot <= 0 {
		return 0
	}
	return ballot / MaxClients
}

// NextBallot returns the smallest ballot owned by clientID that is strictly
// greater than seen. It implements nextPropNumber from Algorithm 2.
func NextBallot(seen int64, clientID int) int64 {
	round := Round(seen) + 1
	b := Ballot(round, clientID)
	if b <= seen {
		b = Ballot(round+1, clientID)
	}
	return b
}

// Majority returns the minimum number of acceptors that constitutes a
// majority of d datacenters: M = floor(d/2)+1 (paper §5).
func Majority(d int) int { return d/2 + 1 }
