package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// sendPreferLocal sends a transaction API request — a readmulti or a scan
// page — to the local service first and falls back to the other datacenters
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

	// The read and write sets are made by the first read and the first
	// write: a transaction that only scans, or only reads, makes one or none.
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
	return &Tx{client: c, group: group, id: id, readPos: readPos}
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
// is asked for: a read of no keys (transaction protocol step 1). Under
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
	if err := t.fetch(ctx, nil); err != nil {
		return fmt.Errorf("core: read position: %w", err)
	}
	return nil
}

// readPosRequest asks a service for its read position of group — its applied
// watermark — in the reply's TS: a read of no keys at network.ResolvePos.
func readPosRequest(group string) network.Message {
	return network.Message{Kind: network.KindReadMulti, Group: group, TS: network.ResolvePos}
}

// errTxDone reports use of a finished transaction.
var errTxDone = errors.New("core: transaction already finished")

// Read returns the value of key: a one-key ReadMulti. A key that has never
// been written reads as the empty string with found=false.
func (t *Tx) Read(ctx context.Context, key string) (string, bool, error) {
	var val [1]string
	var found [1]bool
	if err := t.readInto(ctx, []string{key}, val[:], found[:]); err != nil {
		return "", false, err
	}
	return val[0], found[0], nil
}

// ReadMulti reads keys, all at the transaction's read position (one
// snapshot, property A2), and returns their values and found-ness parallel
// to keys. A key written earlier in the transaction returns the written
// value (property A1), and a key already read repeats what it showed — its
// value, and that it was missing if it was. Only the rest go on the wire, as
// one KindReadMulti request that the service serves with one watermark check
// and one multi-key store pass.
//
// The transaction's first read also resolves its read position: the request
// carries network.ResolvePos and the service serves the read at its applied
// watermark, returning that position in the reply — the round trip of step 1
// is folded into this message (DESIGN.md §9).
func (t *Tx) ReadMulti(ctx context.Context, keys ...string) ([]string, []bool, error) {
	vals := make([]string, len(keys))
	found := make([]bool, len(keys))
	if err := t.readInto(ctx, keys, vals, found); err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// readInto is ReadMulti answering into vals and found, parallel to keys: the
// A1, repeat-read and miss rules.
func (t *Tx) readInto(ctx context.Context, keys, vals []string, found []bool) error {
	if t.done {
		return errTxDone
	}
	// fetch is the keys the service must serve, each once. It is keys
	// itself, uncopied, until a key is written, read already or repeated.
	fetch, own := keys[:0], false
	for i, key := range keys {
		_, written := t.writes[key]
		_, read := t.reads[key]
		switch {
		case written || read || slices.Contains(fetch, key):
			if !own {
				fetch, own = append(make([]string, 0, len(keys)), fetch...), true
			}
		case own:
			fetch = append(fetch, key)
		default:
			fetch = keys[:i+1]
		}
	}
	if len(fetch) > 0 {
		if err := t.fetch(ctx, fetch); err != nil {
			return fmt.Errorf("core: read %d keys: %w", len(fetch), err)
		}
	}
	for i, key := range keys {
		if v, ok := t.writes[key]; ok {
			vals[i], found[i] = v, true
		} else if !t.misses[key] {
			vals[i], found[i] = t.reads[key], true
		}
	}
	return nil
}

// fetch reads keys at the transaction's read position with one KindReadMulti
// request, resolving the position if it is not yet, and adds them to the
// read set. Of no keys, it only resolves the position.
func (t *Tx) fetch(ctx context.Context, keys []string) error {
	resp, err := t.client.readAt(ctx, t.group, keys, t.readPos) // unresolvedPos == network.ResolvePos
	if err != nil {
		return err
	}
	if !t.resolved() {
		t.readPos = resp.TS
	}
	if t.reads == nil && len(keys) > 0 {
		t.reads = make(map[string]string, len(keys))
	}
	for i, key := range keys {
		val := ""
		if resp.Founds[i] {
			val = resp.Vals[i]
		} else {
			t.markMiss(key)
		}
		t.reads[key] = val
	}
	return nil
}

// readAt is the one positioned read (transaction protocol step 2): it asks
// for keys of group at pos — network.ResolvePos serves them at the replica's
// applied watermark and names it in the reply's TS — and returns the reply,
// whose Vals and Founds it has checked are parallel to keys. A transaction's
// fetch and a KV read leg both read through it.
func (c *Client) readAt(ctx context.Context, group string, keys []string, pos int64) (network.Message, error) {
	resp, err := c.sendPreferLocal(ctx, network.Message{
		Kind: network.KindReadMulti, Group: group, Keys: keys, TS: pos,
	})
	if err != nil {
		return resp, err
	}
	if len(resp.Vals) != len(keys) || len(resp.Founds) != len(keys) {
		return resp, fmt.Errorf("core: readmulti reply shape: %d keys, %d vals, %d founds",
			len(keys), len(resp.Vals), len(resp.Founds))
	}
	return resp, nil
}

// markMiss records that key was read as missing at the read position.
func (t *Tx) markMiss(key string) {
	if t.misses == nil {
		t.misses = make(map[string]bool)
	}
	t.misses[key] = true
}

// Write buffers (key, value); it is applied only if the transaction commits.
func (t *Tx) Write(key, value string) error {
	if t.done {
		return errTxDone
	}
	if t.writes == nil {
		t.writes = make(map[string]string)
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
