// Package paxos implements a single instance of the Paxos algorithm (the
// Synod algorithm) as the paper uses it: one instance per write-ahead-log
// position, with the acceptor's durable state held in the datacenter's
// key-value store via checkAndWrite (paper §4.1, Algorithms 1 and 2) — in the
// position's row of the replicated log, which the vote becomes once the
// position is decided (acceptor.go, DESIGN.md §2).
//
// The package provides the two protocol roles:
//
//   - Acceptor: the Transaction Service side (Algorithm 1) — handles
//     prepare and accept messages with all state transitions made atomic
//     through the kvstore's conditional write (the seq CAS, DESIGN.md §2).
//   - Proposer: the messaging core of Algorithm 2 — fans prepare/accept/
//     apply out to every datacenter and tallies responses — and its one
//     driver, Decide, which runs the algorithm's rounds (prepare, choose,
//     accept; on a refusal a higher ballot and a pause) for a Transaction
//     Client and for a Transaction Service alike. What differs between them
//     is passed in an Instance: the ballot identity, the value rule
//     (findWinningVal and the Paxos-CP enhancedFindWinningVal live in
//     package core), the prepare mode, the round cap and the pause. The
//     decision is announced by the caller (Notify or Apply).
//
// Ballots encode a round counter and a proposer identity (Ballot), so
// proposal numbers are globally unique. The one extension to the Synod
// algorithm is the fast ballot (FastBallot, ballot 0): an acceptor that has
// never promised nor voted takes a fast accept directly, implementing the
// §4.1 per-position leader optimization. Who may propose at it, and what
// decides, is the proposer's business (DESIGN.md §11): a client holding the
// position leader's one grant is the position's only ballot-0 proposer and
// decides at a majority, as any ballot does; masters, who share ballot 0
// with nobody arbitrating, decide at it only by a unanimous accept round
// (AcceptOutcome.Unanimous) — with two racing fast proposers, only
// unanimity makes collision recovery unambiguous.
package paxos
