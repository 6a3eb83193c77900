package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
)

// Client is the Transaction Client: the library an application instance
// links to run transactions (§2.2). It speaks to the Transaction Service in
// every datacenter over the transport and runs the commit protocol itself
// (Algorithm 2). A Client is safe for concurrent use; each transaction is
// independent state ("each application instance has at most one active
// transaction per transaction group" — we allow one Tx value per goroutine).
type Client struct {
	id        int
	dc        string
	transport network.Transport
	cfg       Config

	proposer *paxos.Proposer
	backoff  *backoff
	txnSeq   atomic.Int64

	// sendOrder is the datacenter preference order for transaction API
	// requests (local first, then every peer): precomputed once because
	// sender.toAny runs on the per-read hot path.
	sendOrder []string
	// txnPrefix is the "<dc>-<id>-" prefix of every transaction ID this
	// client mints; newTx appends only the sequence number.
	txnPrefix string

	// shown is, per group, the newest log position a service has shown this
	// client — the position a read was served at, a commit verdict's — and
	// when. Kept under the Master protocol only, where a write-only
	// transaction takes it as its read position (Tx.resolveReadPos).
	shownMu sync.Mutex
	shown   map[string]shownPos

	// Collector, when set, receives one sample per finished read/write
	// transaction (commit or abort), as the paper's evaluation measures.
	Collector *stats.Collector
	// OnCommit, when set, is invoked for every committed read/write
	// transaction with its commit position, transaction record, and the
	// values its reads observed. The history checker subscribes here.
	OnCommit func(pos int64, txn CommittedTxn)
}

// CommittedTxn describes one committed transaction for observers. Reads and
// Writes are the committed transaction's own maps, frozen since Commit:
// read-only.
type CommittedTxn struct {
	ID       string
	Group    string
	Origin   string
	ReadPos  int64
	Pos      int64
	Reads    map[string]string // key -> value observed
	Writes   map[string]string
	Round    int
	Combined bool
	// Epoch is the master epoch the transaction committed under (0 for the
	// Basic and CP protocols).
	Epoch int64
}

// NewClient creates a Transaction Client local to datacenter dc. id must be
// unique among all concurrently running clients (it keys proposal numbers;
// see paxos.Ballot) and below paxos.MaxClients-serviceIDs: the identities
// above are the services' (proposerID).
func NewClient(id int, dc string, transport network.Transport, cfg Config) *Client {
	if id < 0 || id >= paxos.MaxClients-serviceIDs {
		panic(fmt.Sprintf("core: client id %d out of range", id))
	}
	c := &Client{
		id:        id,
		dc:        dc,
		transport: transport,
		cfg:       cfg,
		backoff:   newBackoff(cfg.backoffBase(), cfg.Seed),
		txnPrefix: dc + "-" + strconv.Itoa(id) + "-",
	}
	c.sendOrder = []string{dc}
	if transport != nil {
		for _, peer := range transport.Peers() {
			if peer != dc {
				c.sendOrder = append(c.sendOrder, peer)
			}
		}
	}
	c.proposer = &paxos.Proposer{Transport: transport, Timeout: cfg.Timeout}
	return c
}

// ID returns the client's unique identity.
func (c *Client) ID() int { return c.id }

// DC returns the client's local datacenter.
func (c *Client) DC() string { return c.dc }

// Protocol returns the configured commit protocol.
func (c *Client) Protocol() Protocol { return c.cfg.Protocol }

// shownPos is a log position and the time a service's reply showed it.
type shownPos struct {
	pos int64
	at  time.Time
}

// noteShown records that a service has shown this client position pos of
// group: a decided position, so any master places a new transaction above it.
// The record is monotone — a lagging replica's older position is ignored —
// and shared by the client's concurrent transactions.
func (c *Client) noteShown(group string, pos int64) {
	if c.cfg.Protocol != Master {
		return
	}
	now := time.Now()
	c.shownMu.Lock()
	defer c.shownMu.Unlock()
	if c.shown == nil {
		c.shown = make(map[string]shownPos)
	}
	if s, ok := c.shown[group]; !ok || pos >= s.pos {
		c.shown[group] = shownPos{pos: pos, at: now}
	}
}

// recentShown returns the position noteShown holds for group if it was shown
// within the last message timeout.
func (c *Client) recentShown(group string) (int64, bool) {
	c.shownMu.Lock()
	s, ok := c.shown[group]
	c.shownMu.Unlock()
	return s.pos, ok && time.Since(s.at) <= c.cfg.timeout()
}

// sendPreferLocal sends a transaction API request — readpos, read, readmulti,
// scan — to the local service first and falls back to the other datacenters
// (sender.toAny, route.go).
func (c *Client) sendPreferLocal(ctx context.Context, req network.Message) (network.Message, error) {
	return sender{c: c}.toAny(ctx, req)
}

// unresolvedPos marks a transaction whose read position has not been fixed
// yet (lazy read positions; DESIGN.md §9).
const unresolvedPos int64 = -1

// Tx is one active transaction. It buffers writes locally and tracks the
// read set; nothing reaches the datastore until Commit (optimistic
// concurrency control, §2.2). A Tx is not safe for concurrent use.
type Tx struct {
	client  *Client
	group   string
	id      string
	readPos int64 // unresolvedPos until the first read (or commit) fixes it

	reads  map[string]string // key -> value observed (read set + values)
	misses map[string]bool   // keys read as missing (found=false) at the read position
	writes map[string]string // key -> pending value
	done   bool
}

// Begin starts a transaction on the given transaction group. The read
// position (transaction protocol step 1) is obtained lazily: it piggybacks
// on the transaction's first read, or — for transactions that commit writes
// without ever reading — is fixed at commit time (resolveReadPos). Begin
// itself sends no messages, so a transaction that is begun and aborted (or a
// read-only transaction that never reads) costs nothing on the wire. Service
// unavailability therefore surfaces at the first read or at commit, not
// here.
func (c *Client) Begin(ctx context.Context, group string) (*Tx, error) {
	return c.newTx(group, unresolvedPos), nil
}

// BeginAt starts a transaction that reads at an explicit log position — a
// snapshot read of the state as of pos. The transaction behaves exactly
// like one that began when pos was current: read-only use always succeeds
// (if the versions have not been compacted away); committing writes makes
// the transaction compete from position pos+1, so under basic Paxos it
// loses to anything committed since, while Paxos-CP promotes it past
// non-conflicting successors.
func (c *Client) BeginAt(ctx context.Context, group string, pos int64) (*Tx, error) {
	if pos < 0 {
		return nil, fmt.Errorf("core: begin at negative position %d", pos)
	}
	return c.newTx(group, pos), nil
}

func (c *Client) newTx(group string, readPos int64) *Tx {
	seq := c.txnSeq.Add(1)
	// Transaction IDs are minted per transaction on the commit hot path, so
	// build them with one append+convert instead of fmt.Sprintf
	// (TestTxnIDAllocs guards the technique).
	var buf [32]byte
	id := c.txnPrefix + string(strconv.AppendInt(buf[:0], seq, 10))
	return &Tx{
		client:  c,
		group:   group,
		id:      id,
		readPos: readPos,
		reads:   make(map[string]string),
		writes:  make(map[string]string),
	}
}

// ID returns the transaction's unique identifier.
func (t *Tx) ID() string { return t.id }

// ReadPos returns the log position the transaction reads at, or -1 while
// the position is still unresolved (no read has happened yet; lazy read
// positions fix it on first contact with a service).
func (t *Tx) ReadPos() int64 { return t.readPos }

// resolved reports whether the transaction's read position has been fixed.
func (t *Tx) resolved() bool { return t.readPos != unresolvedPos }

// resolveReadPos fixes the transaction's read position if it is still
// unresolved, which only a write-only transaction at commit time finds it to
// be: no read ever piggybacked the resolution.
//
// Under Basic and CP the read position is the position competed for, so it
// is asked for: the readpos round trip of transaction protocol step 1. Under
// Master the master assigns the position and an empty read set conflicts
// with nothing, so the read position is only the floor of the master's walk
// for an earlier attempt of the same transaction (pipeline invariant W5).
// Any position this client has been shown will do, provided it is recent — a
// stale floor makes that walk long, and below a compaction horizon makes it
// fail — so the transaction takes the client's newest if it is at most one
// message timeout old, and asks only otherwise. Once taken it stays: a
// resubmission carries the same floor (DESIGN.md §9).
func (t *Tx) resolveReadPos(ctx context.Context) error {
	if t.resolved() {
		return nil
	}
	if pos, ok := t.client.recentShown(t.group); ok {
		t.readPos = pos
		return nil
	}
	resp, err := t.client.sendPreferLocal(ctx, network.Message{Kind: network.KindReadPos, Group: t.group})
	if err != nil {
		return fmt.Errorf("core: read position: %w", err)
	}
	t.readPos = resp.TS
	return nil
}

// errTxDone reports use of a finished transaction.
var errTxDone = errors.New("core: transaction already finished")

// Read returns the value of key. A key written earlier in this transaction
// returns the written value (property A1); otherwise the read is served at
// the transaction's read position (property A2). A key that has never been
// written reads as the empty string with found=false.
//
// The transaction's first read also resolves its read position: the request
// carries network.ResolvePos and the service serves the read at its applied
// watermark, returning that position in the reply — the readpos round trip
// that Begin used to spend is folded into this message (DESIGN.md §9).
func (t *Tx) Read(ctx context.Context, key string) (string, bool, error) {
	if t.done {
		return "", false, errTxDone
	}
	if v, ok := t.writes[key]; ok {
		return v, true, nil
	}
	if v, ok := t.reads[key]; ok {
		// Repeated read within the transaction: same position, same value
		// (and the same found-ness — a key read as missing stays missing).
		return v, !t.misses[key], nil
	}
	ts := t.readPos // unresolvedPos == network.ResolvePos on the wire
	resp, err := t.client.sendPreferLocal(ctx, network.Message{
		Kind: network.KindRead, Group: t.group, Key: key, TS: ts,
	})
	if err != nil {
		return "", false, fmt.Errorf("core: read %q: %w", key, err)
	}
	if !t.resolved() {
		t.readPos = resp.TS
	}
	val := ""
	if resp.Found {
		val = resp.Value
	}
	t.reads[key] = val
	if !resp.Found {
		t.markMiss(key)
	}
	return val, resp.Found, nil
}

// markMiss records that key was read as missing at the read position.
func (t *Tx) markMiss(key string) {
	if t.misses == nil {
		t.misses = make(map[string]bool)
	}
	t.misses[key] = true
}

// ReadMulti reads many keys in one round trip, all served at the
// transaction's read position (one snapshot). Results are returned parallel
// to keys, with the same per-key semantics as Read: keys written earlier in
// the transaction return the buffered value (A1), keys already read repeat
// their observed value, and only the remainder goes on the wire as a single
// KindReadMulti request whose server side does one watermark check and one
// multi-key store pass. Like the first Read, the first ReadMulti of a
// transaction also resolves its read position.
func (t *Tx) ReadMulti(ctx context.Context, keys ...string) ([]string, []bool, error) {
	if t.done {
		return nil, nil, errTxDone
	}
	vals := make([]string, len(keys))
	found := make([]bool, len(keys))
	var fetch []string                  // deduplicated keys that must go to the service
	var slotOf map[string]int           // key -> slot in fetch, built on first miss
	fetchSlot := make([]int, len(keys)) // result index -> fetch slot (-1 = satisfied locally)
	for i, key := range keys {
		fetchSlot[i] = -1
		if v, ok := t.writes[key]; ok {
			vals[i], found[i] = v, true
			continue
		}
		if v, ok := t.reads[key]; ok {
			vals[i], found[i] = v, !t.misses[key]
			continue
		}
		if slotOf == nil {
			slotOf = make(map[string]int)
		}
		slot, dup := slotOf[key]
		if !dup {
			slot = len(fetch)
			slotOf[key] = slot
			fetch = append(fetch, key)
		}
		fetchSlot[i] = slot
	}
	if len(fetch) == 0 {
		return vals, found, nil
	}
	resp, err := t.client.sendPreferLocal(ctx, network.Message{
		Kind: network.KindReadMulti, Group: t.group, Keys: fetch, TS: t.readPos,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: read %d keys: %w", len(fetch), err)
	}
	if len(resp.Vals) != len(fetch) || len(resp.Founds) != len(fetch) {
		return nil, nil, fmt.Errorf("core: readmulti reply shape: %d keys, %d vals, %d founds",
			len(fetch), len(resp.Vals), len(resp.Founds))
	}
	if !t.resolved() {
		t.readPos = resp.TS
	}
	for fi, key := range fetch {
		val := ""
		if resp.Founds[fi] {
			val = resp.Vals[fi]
		} else {
			t.markMiss(key)
		}
		t.reads[key] = val
	}
	for i, slot := range fetchSlot {
		if slot < 0 {
			continue
		}
		if resp.Founds[slot] {
			vals[i], found[i] = resp.Vals[slot], true
		}
	}
	return vals, found, nil
}

// Write buffers (key, value); it is applied only if the transaction commits.
func (t *Tx) Write(key, value string) error {
	if t.done {
		return errTxDone
	}
	t.writes[key] = value
	return nil
}

// Abort abandons the transaction. Volatile state is dropped; nothing was
// ever sent to the datastore.
func (t *Tx) Abort() {
	t.done = true
}

// CommitResult reports the outcome of Commit.
type CommitResult struct {
	// Status is Committed, Aborted (lost to a conflicting transaction), or
	// Failed (could not complete the protocol — e.g. no majority reachable).
	Status stats.Outcome
	// Pos is the log position the transaction committed at (Committed only).
	Pos int64
	// Round is the promotion round the transaction resolved in (always 0
	// under the basic protocol).
	Round int
	// Combined reports whether the transaction shared its log position with
	// others (Paxos-CP combination).
	Combined bool
	// Epoch is the master epoch the transaction committed under (Master
	// protocol; 0 otherwise). See DESIGN.md §11.
	Epoch int64
	// Latency is the wall-clock duration of the commit call.
	Latency time.Duration
}

// Commit tries to commit the transaction (transaction protocol step 4).
// Read-only transactions commit immediately with no messaging (§2.2). The
// outcome is recorded with the client's Collector when one is attached.
func (t *Tx) Commit(ctx context.Context) (CommitResult, error) {
	if t.done {
		return CommitResult{}, errTxDone
	}
	t.done = true
	start := time.Now()

	var res CommitResult
	var err error
	if len(t.writes) == 0 {
		// Read-only transactions commit with no messaging (§2.2); they
		// serialize immediately after their read position. A transaction
		// that never read either has no position to resolve — it observed
		// nothing and commits trivially at the log origin.
		pos := t.readPos
		if !t.resolved() {
			pos = 0
		}
		res = CommitResult{Status: stats.Committed, Pos: pos}
	} else if err = t.resolveReadPos(ctx); err != nil {
		// A write-only transaction reaches commit with its read position
		// still unresolved and could not fix it now.
		res = CommitResult{Status: stats.Failed}
	} else {
		switch t.client.cfg.Protocol {
		case CP:
			res, err = t.client.commitCP(ctx, t)
		case Master:
			res, err = t.client.commitMaster(ctx, t)
		default:
			res, err = t.client.commitBasic(ctx, t)
		}
	}
	res.Latency = time.Since(start)

	if c := t.client.Collector; c != nil {
		c.Record(stats.Sample{
			Outcome:  res.Status,
			Round:    res.Round,
			Latency:  res.Latency,
			Origin:   t.client.dc,
			Combined: res.Combined,
		})
	}
	if res.Status == stats.Committed && t.client.OnCommit != nil {
		readPos := t.readPos
		if !t.resolved() {
			readPos = res.Pos // never-read transaction: trivial origin position
		}
		t.client.OnCommit(res.Pos, CommittedTxn{
			ID:       t.id,
			Group:    t.group,
			Origin:   t.client.dc,
			ReadPos:  readPos,
			Pos:      res.Pos,
			Reads:    t.reads,
			Writes:   t.writes,
			Round:    res.Round,
			Combined: res.Combined,
			Epoch:    res.Epoch,
		})
	}
	return res, err
}

// readSetKeys returns the transaction's read set: keys read that were not
// first written inside the transaction (property A1 keeps those out).
func (t *Tx) readSetKeys() []string {
	keys := make([]string, 0, len(t.reads))
	for k := range t.reads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
