package network

import (
	"fmt"
)

// Kind identifies the protocol message type. The set covers the full
// transaction tier protocol: the three Paxos phases of Algorithms 1–2, the
// transaction API (read position, remote read), the per-position leader
// claim optimization (§4.1), and catch-up for recovery.
type Kind string

// Message kinds. Requests and responses share the Message struct; responses
// use KindStatus/KindLastVote/KindValue kinds.
const (
	// Paxos commit protocol (Algorithm 1 / 2).
	KindPrepare Kind = "prepare" // propNum=Ballot
	KindAccept  Kind = "accept"  // propNum=Ballot, value=Payload; the status reply's Found = the row was already decided
	KindApply   Kind = "apply"   // Ballot=a ballot the value was chosen at (paxos.DecidedBallot: unknown), value=Payload

	// Transaction API (transaction protocol steps 1–2). KindReadMulti is the
	// one positioned read: it reads Keys at one log position (TS) in a single
	// round trip, and the reply carries Vals/Founds parallel to Keys. With
	// TS=ResolvePos the service serves at its applied watermark and reports
	// the position in the reply's TS (the lazy read-position piggyback;
	// DESIGN.md §9), so a read of no keys at ResolvePos asks for the read
	// position alone (step 1).
	KindReadMulti Kind = "readmulti"
	// KindReadPos and KindRead are retired. Nothing sends them and a service
	// refuses them as unknown kinds; they keep their kindTable bytes, which
	// are wire format. KindReadPos asked for the read position, now a
	// KindReadMulti of no keys; KindRead read one key, now a KindReadMulti of
	// one.
	KindReadPos Kind = "readpos"
	KindRead    Kind = "read"

	// Leader optimization (§4.1 "Paxos Optimizations").
	KindClaimLeader Kind = "claim" // first claimant of Pos gets fast path

	// Catch-up: fetch a decided log entry from a peer (recovery path).
	KindFetchLog Kind = "fetchlog"

	// Leader-based protocol (§7 design): client submits a transaction to
	// the group's long-term master, which sequences and replicates it.
	KindSubmit Kind = "submit"

	// Snapshot transfer: a replica that lagged past its peers' compaction
	// horizon installs a state snapshot instead of per-entry catch-up.
	// KindSnapshot serves one page of it, paged like KindScan so a group of
	// any size crosses a transport of bounded datagrams. A request with Found
	// unset starts a transfer (TS = ResolvePos): the peer pins its applied
	// watermark H. One with Found set continues it: TS = H, Key = the cursor
	// the previous reply returned. The reply's TS is H; its Payload is whole
	// records (kvstore.AppendRecord) under a fixed byte budget that fits a
	// datagram; Key/Found carry the next cursor, Found unset on the last
	// page. The first page opens with the header — an OpWrite of the group's
	// meta row as a replica restored at H holds it (watermark and horizon H,
	// epoch state and handoff records at H); every other record is an OpWrite
	// of a data row's newest version at or below H, at its original
	// timestamp, in key order. A pin the peer has compacted past is refused
	// with VerdictCompacted; the laggard starts over at a fresh pin.
	KindSnapshot Kind = "snapshot"

	// Administration: replica status and remotely triggered log compaction
	// (operator tooling; see cmd/txkvctl).
	KindStats   Kind = "stats"
	KindCompact Kind = "compact"

	// Live migration (DESIGN.md §15). KindRangeSnapshot streams the rows of
	// a moving key range from the old owner at a pinned read position: the
	// request names the source Group, the destination group (Value), the
	// destination placement's group list (Keys), a resume cursor (Key =
	// start-after key) and a delta floor (Pos = only rows whose version
	// exceeds it); the reply pages rows in Keys/Vals, its TS pinning the
	// watermark served at and Found flagging more pages.
	// KindMigrate submits one handoff phase entry (payload: encoded
	// wal.Entry with Handoff set) to the group's master pipeline.
	KindRangeSnapshot Kind = "rangesnap"
	KindMigrate       Kind = "migrate"

	// Ordered range scans (DESIGN.md §16). KindScan serves one page of an
	// ordered prefix scan at a pinned read position: the request carries the
	// user prefix (Value), the pin (TS, or ResolvePos to adopt the serving
	// watermark), a resume cursor (Key = start-after key, Found = cursor
	// present) and a page limit (Pos; 0 means the server default). The reply
	// pages bare keys/values in Keys/Vals with Founds marking rows that
	// migrated in below the pin, TS echoing the pin, Key/Found carrying the
	// next cursor, Value listing departed-range destination groups
	// (comma-joined routing hints) and Combined flagging an inbound range
	// prepared but unopened at the pin (retry this group after its cutover).
	KindScan Kind = "scan"

	// Responses.
	KindLastVote Kind = "lastvote" // prepare reply: Ballot=lastVote ballot, Payload=vote
	KindStatus   Kind = "status"   // generic success/failure reply
	KindValue    Kind = "value"    // readmulti/scan/snapshot/fetchlog reply
)

// Verdict says why a reply with OK unset refused its request: the one thing
// about a refusal that code may branch on (Err is detail for people). The
// codes are wire format — they ride the five spare bits of the flags byte
// (codec.go) — so they are only ever appended, and at most 31 exist. Who sends
// each, which fields carry its hint and what a client may do with it is
// DESIGN.md §9's verdict table; the client's half is core/route.go.
type Verdict uint8

const (
	// VerdictNone: an OK reply — or a refusal from a peer older than the
	// verdict bits, which a client reads as VerdictFailed.
	VerdictNone Verdict = iota
	// VerdictFailed: no more specific code. Err says what went wrong; whether
	// anything reached the log is unknown.
	VerdictFailed
	// VerdictConflict: an entry after the submitted transaction's read
	// position wrote a key it read. It aborts.
	VerdictConflict
	// VerdictOverloaded: the group's submit queue is full (TS = its depth).
	// Nothing reached the log.
	VerdictOverloaded
	// VerdictMoved: the keys' range departed this group (Value = the
	// destination group, Keys = the keys concerned, where known).
	VerdictMoved
	// VerdictMigrating: the keys' range is prepared at this group but not
	// open yet; the cutover is a few log entries away.
	VerdictMigrating
	// VerdictNotMaster: another datacenter holds the group's mastership
	// (Value = the holder, Epoch = the prevailing epoch).
	VerdictNotMaster
	// VerdictReplicaFailed: this replica's storage engine has fail-stopped
	// (Err = its failure). Definitive here; nothing reached the log.
	VerdictReplicaFailed
	// VerdictShutdown: the service is closing. As VerdictReplicaFailed, for a
	// replica that may come back.
	VerdictShutdown
	// VerdictCompacted: the position asked for is below this replica's
	// compaction horizon (TS = the horizon, on a log fetch).
	VerdictCompacted
	// VerdictDuplicateInFlight: an earlier submission of the same transaction
	// is still replicating and has no verdict yet.
	VerdictDuplicateInFlight
	// VerdictDeposed: the master lost its epoch with the submission in
	// flight; its entry was fenced and committed nothing.
	VerdictDeposed

	verdictEnd // one past the last defined code
)

var verdictNames = [verdictEnd]string{
	"none", "failed", "conflict", "overloaded", "moved", "migrating", "not master",
	"replica failed", "shutting down", "compacted", "duplicate in flight", "deposed",
}

// String names the verdict for logs and error text.
func (v Verdict) String() string {
	if v < verdictEnd {
		return verdictNames[v]
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// ResolvePos, sent as the TS of a readmulti or scan request, asks the
// service to serve the read at its current applied watermark and return that
// position in the reply's TS. Clients use it to piggyback the transaction's
// read-position fetch on its first read (DESIGN.md §9).
const ResolvePos int64 = -1

// Message is the single wire unit exchanged between Transaction Clients and
// Transaction Services. One flat struct (rather than per-kind types) keeps
// the UDP codec trivial and mirrors the loosely-typed RPC of the prototype.
type Message struct {
	Kind  Kind
	Group string // transaction group key
	Pos   int64  // log position the message concerns

	Ballot  int64  // proposal number
	Payload []byte // encoded wal.Entry (vote or value)

	Key string // data item key (reads)
	TS  int64  // timestamp / read position

	OK    bool   // success flag in replies
	Value string // data item value in read replies
	Found bool   // read reply: key existed

	// Verdict classifies a refusal (OK unset); Err is its human-readable
	// detail, which no code branches on.
	Verdict Verdict
	Err     string

	// Combined marks a submit reply whose transaction committed inside a
	// multi-transaction log entry (the master's combination path).
	Combined bool

	// Epoch carries the master epoch (DESIGN.md §11): in a submit reply, the
	// epoch the transaction committed under; in a VerdictNotMaster refusal, the
	// prevailing epoch the refusing service has observed. 0 = unfenced.
	Epoch int64

	// Multi-key read (KindReadMulti): the request lists Keys; the reply
	// carries Vals and Founds parallel to the request's Keys.
	Keys   []string
	Vals   []string
	Founds []bool
}

// Status constructs a generic success/failure reply; a failure is a
// VerdictFailed refusal with err as its detail.
func Status(ok bool, err string) Message {
	if ok {
		return Message{Kind: KindStatus, OK: true, Err: err}
	}
	return Refuse(VerdictFailed, err)
}

// Refuse constructs a refusal: the one place a reply gets its verdict. The
// caller adds the fields that carry the verdict's hint.
func Refuse(v Verdict, detail string) Message {
	return Message{Kind: KindStatus, Verdict: v, Err: detail}
}

// String renders a compact debug form.
func (m Message) String() string {
	return fmt.Sprintf("%s{g=%s p=%d b=%d ok=%v}", m.Kind, m.Group, m.Pos, m.Ballot, m.OK)
}
