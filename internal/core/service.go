package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/deadline"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// Key-value store layout used by the Transaction Service. Everything the
// service knows lives in its datacenter's kvstore, keeping the service
// processes themselves stateless (§2.2): the per-group replicated log rows
// (data/, log/, meta/ — owned by internal/replog, see DESIGN.md §4; a
// position's log row is also where internal/paxos keeps its acceptor state)
// plus the protocol row this package owns:
//
//	claim/<group>/<pos>  leader fast-path claim (attr "owner")
//
// It is written on the commit hot path, so it is built by the allocation-free
// kvstore.PosKey, not fmt.Sprintf (BenchmarkKeyEncoding in internal/replog
// guards the technique).
const claimPrefix = "claim/"

func claimKey(group string, pos int64) string {
	return kvstore.PosKey(claimPrefix, group, pos)
}

// Service is one datacenter's Transaction Service. It owns the datacenter's
// key-value store, answers Paxos messages through its acceptor, serves reads
// at a requested log position, applies decided log entries through the
// per-group replicated log (internal/replog), and catches up missing entries
// from its peers (fault tolerance and recovery, §4.1).
type Service struct {
	dc       string
	store    *kvstore.Store
	acceptor *paxos.Acceptor

	// groups is the replica's registry of transaction groups: one record per
	// group, made on the group's first use (group) and guarded by mu. Its
	// logs drain on pool. closed, set by Close under mu, makes a group first
	// used afterwards open closed.
	mu     sync.Mutex
	groups map[string]*groupState
	closed bool
	pool   *replog.Pool

	// transport reaches peer datacenters for catch-up. It may be nil in
	// single-DC tests; catch-up then only serves from the local log.
	transport network.Transport
	// timeout bounds catch-up message rounds.
	timeout time.Duration
	// id, proposer and backoff are the service's proposer: the ballot
	// identity (proposerID), messaging and pause of every Paxos instance it
	// runs — a master's fallback and a learner's (instance).
	id       int
	proposer *paxos.Proposer
	backoff  *backoff
	// fetchPeer caches the last peer that served a log fetch (string).
	// Bulk catch-up tries it first: without the cache, an unreachable peer
	// earlier in the list costs one full timeout per position.
	fetchPeer atomic.Value

	// submitWindow and submitCombine tune the master's pipelined submit
	// path (pipeline.go): positions in flight per group, and transactions
	// combined per log entry. submitQueue is the admission cap: submissions
	// beyond this queue depth are refused with VerdictOverloaded (DESIGN.md
	// §13); <= 0 lifts the cap.
	submitWindow  int
	submitCombine int
	submitQueue   int

	// disp serves every request AsyncHandler does not answer itself, each on
	// its own goroutine (dispatch.go); used by AsyncHandler only.
	disp *dispatcher

	// leaseDur is the master lease duration; 0 means DefaultLeaseFactor
	// times the service timeout.
	leaseDur time.Duration

	// claimBackoffOff turns the deposed-side claim backoff off (lease.go),
	// reproducing the pre-backoff claim ping-pong; only the backoff's
	// regression test sets it.
	claimBackoffOff bool

	// Gap-triggered catch-up (fillGapLater): bg counts the running gap
	// watches, and bgCtx — cancelled by Close, under mu — stops them.
	bg       sync.WaitGroup
	bgCtx    context.Context
	bgCancel context.CancelFunc
}

// groupState is one transaction group's record at this replica.
type groupState struct {
	// log is the group's replicated log: decided entries, the applied
	// watermark readers block on, and the batched apply.
	log *replog.Log
	// pipe is the group's master submit pipeline, made by the first submit
	// (Service.pipeline); guarded by Service.mu.
	pipe *pipeline
	// claim serializes the group's mastership claims, and guards hist, the
	// group's re-claim streak behind the deposed-side claim backoff
	// (lease.go). Claims must not share one lock across groups: a claim
	// legitimately sleeps out another holder's lease, and one group's wait
	// must not starve every other group's takeover.
	claim sync.Mutex
	hist  claimHistory
	// gapWatch marks a gap watch running for the group (fillGapLater);
	// guarded by Service.mu.
	gapWatch bool
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithServiceTimeout sets the timeout for the service's own catch-up
// messaging (defaults to network.DefaultTimeout).
func WithServiceTimeout(d time.Duration) ServiceOption {
	return func(s *Service) { s.timeout = d }
}

// WithSubmitWindow sets how many Paxos positions the master submit pipeline
// keeps in flight concurrently per group (default DefaultSubmitWindow; 1
// reproduces the serial pre-pipeline master).
func WithSubmitWindow(n int) ServiceOption {
	return func(s *Service) {
		if n > 0 {
			s.submitWindow = n
		}
	}
}

// WithSubmitCombine caps how many concurrently submitted transactions the
// master combines into one multi-transaction log entry (default
// DefaultSubmitCombine; 1 disables combination).
func WithSubmitCombine(n int) ServiceOption {
	return func(s *Service) {
		if n > 0 {
			s.submitCombine = n
		}
	}
}

// WithSubmitQueue sets the per-group submit admission cap: submissions
// arriving while this many are already queued fail fast with the retryable
// VerdictOverloaded and a queue-depth hint, instead of stacking
// unbounded latency (default DefaultSubmitQueue). A batch waiting for a
// free in-flight window slot stays queued, so its submissions count against
// the cap. Negative lifts the cap, restoring the pre-admission unbounded
// queue.
func WithSubmitQueue(n int) ServiceOption {
	return func(s *Service) {
		if n != 0 {
			s.submitQueue = n
		}
	}
}

// DefaultLeaseFactor scales the service timeout into the default master
// lease duration: long enough that transient message loss does not trigger a
// takeover, short enough that failover is a few timeouts, not minutes.
const DefaultLeaseFactor = 4

// WithLeaseDuration sets the master lease duration for epoch-fenced
// mastership (DESIGN.md §11). A prospective master waits out the prevailing
// holder's lease before claiming the group's next epoch; the holder renews
// only through its own committed traffic. Nothing renews an idle master's
// lease, so it lapses, and the next submit at another datacenter pays for a
// claim of the next epoch. Zero (the default) means DefaultLeaseFactor times
// the service timeout. The lease bounds failover time only — safety comes
// from epoch fencing, not from clocks.
func WithLeaseDuration(d time.Duration) ServiceOption {
	return func(s *Service) {
		if d > 0 {
			s.leaseDur = d
		}
	}
}

// NewService creates the Transaction Service for datacenter dc, backed by
// store, using transport to reach peer services during catch-up.
func NewService(dc string, store *kvstore.Store, transport network.Transport, opts ...ServiceOption) *Service {
	s := &Service{
		dc:            dc,
		store:         store,
		acceptor:      paxos.NewAcceptor(store),
		groups:        make(map[string]*groupState),
		pool:          replog.NewPool(runtime.GOMAXPROCS(0)),
		transport:     transport,
		timeout:       network.DefaultTimeout,
		submitWindow:  DefaultSubmitWindow,
		submitCombine: DefaultSubmitCombine,
		submitQueue:   DefaultSubmitQueue,
	}
	s.bgCtx, s.bgCancel = context.WithCancel(context.Background())
	s.disp = newDispatcher(s.handle)
	for _, o := range opts {
		o(s)
	}
	var peers []string
	if transport != nil {
		peers = transport.Peers()
	}
	s.id = proposerID(dc, peers)
	s.proposer = &paxos.Proposer{Transport: transport, Timeout: s.timeout}
	// A first pause (attempt 1) averages timeout/40. Seeded apart: services
	// built in the same instant must not pause alike.
	s.backoff = newBackoff(s.timeout/80, time.Now().UnixNano()+int64(s.id))
	return s
}

// serviceIDs is the block of ballot identities at the top of the identity
// space (paxos.MaxClients) that belongs to the Transaction Services: clients
// are refused them (NewClient), so no client's ballot can equal a service's.
const serviceIDs = 256

// proposerID is the ballot identity the service of datacenter dc proposes
// under: paxos.MaxClients-1 less the number of peers whose name sorts below
// dc's. Distinct for every service of a topology, whatever order Peers lists
// them in, and above every client's.
func proposerID(dc string, peers []string) int {
	rank := 0
	for _, p := range peers {
		if p < dc {
			rank++
		}
	}
	if rank >= serviceIDs {
		panic(fmt.Sprintf("core: %d datacenters exceed the %d service identities", len(peers), serviceIDs))
	}
	return paxos.MaxClients - 1 - rank
}

// instance is the Paxos instance this service runs for (group, pos), under
// its own identity and pause; the caller sets the value rule, and the master
// the ballot its fast round saw.
func (s *Service) instance(group string, pos int64) paxos.Instance {
	return paxos.Instance{Group: group, Pos: pos, ID: s.id, Rounds: serviceRounds, Pause: s.backoff.pause}
}

// serviceRounds caps the rounds of a service's Paxos instance.
const serviceRounds = 16

// DC returns the datacenter this service belongs to.
func (s *Service) DC() string { return s.dc }

// Store exposes the underlying kvstore (used by examples and tests).
func (s *Service) Store() *kvstore.Store { return s.store }

// group returns group's record, opening its log on first use — closed, if
// the service has closed.
func (s *Service) group(group string) *groupState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groupLocked(group)
}

// groupLocked is group for a caller holding s.mu.
func (s *Service) groupLocked(group string) *groupState {
	g := s.groups[group]
	if g == nil {
		g = &groupState{log: s.pool.Open(s.store, group)}
		if s.closed {
			g.log.Close()
		}
		s.groups[group] = g
	}
	return g
}

// log returns the group's replicated log.
func (s *Service) log(group string) *replog.Log { return s.group(group).log }

// Groups returns the transaction groups this replica serves (every group
// with an open replicated log), sorted — the group-discovery surface
// GroupStatus reports over the wire.
func (s *Service) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.groups))
	for g := range s.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// EnsureGroups opens the replicated logs for the named groups up front.
// Groups normally open lazily on first traffic; a sharded deployment
// (txkvd -groups) pre-opens its placement's groups so recovery state is
// rebuilt at startup and discovery reports the full set before any client
// arrives.
func (s *Service) EnsureGroups(groups ...string) {
	for _, g := range groups {
		s.group(g)
	}
}

// Close stops the per-group submit pipelines (queued submissions fail), the
// logs and the pool that drains them, the gap watches and the dispatcher.
// Durable state is untouched; a new Service over the same store resumes
// where this one stopped.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.bgCancel()
	var pipes []*pipeline
	logs := make([]*replog.Log, 0, len(s.groups))
	for _, g := range s.groups {
		if g.pipe != nil {
			pipes = append(pipes, g.pipe)
		}
		logs = append(logs, g.log)
	}
	s.mu.Unlock()
	// Outside mu: closing fails queued submissions and waiting completions.
	for _, p := range pipes {
		p.close()
	}
	for _, lg := range logs {
		lg.Close()
	}
	s.pool.Close()
	// After the logs: a watch blocked in ApplyDecided returns once they close.
	s.bg.Wait()
	s.disp.close()
}

// handle serves one request that AsyncHandler hands the dispatcher: every
// kind but submits, migrations and applies, which AsyncHandler answers
// itself.
func (s *Service) handle(from string, req network.Message) network.Message {
	if resp, ok := paxos.HandleMessage(s.acceptor, req); ok {
		return resp
	}
	switch req.Kind {
	case network.KindReadMulti:
		return s.handleReadMulti(req)
	case network.KindClaimLeader:
		return s.handleClaim(req)
	case network.KindFetchLog:
		return s.handleFetchLog(req)
	case network.KindSnapshot:
		return s.handleSnapshot(req)
	case network.KindStats:
		return s.handleStats(req)
	case network.KindCompact:
		return s.handleCompact(req)
	case network.KindRangeSnapshot:
		return s.handleRangeSnapshot(req)
	case network.KindScan:
		return s.handleScan(req)
	default:
		return network.Status(false, fmt.Sprintf("unknown kind %q", req.Kind))
	}
}

// --- log application ---------------------------------------------------

// handleApply lands a decided entry in the local log on the caller's
// goroutine and leaves the reply to the drain pass that makes it durable, so
// no goroutine waits on the watermark. The reply is what the proposer counts
// toward its apply majority (see ApplyDecided, R2).
func (s *Service) handleApply(req network.Message, reply func(network.Message)) {
	lg, at, logged, err := s.appendChosen(req.Group, req.Pos, req.Ballot, req.Payload)
	if err != nil {
		reply(applyVerdict(err))
		return
	}
	r, _ := applyReplies.Get().(*applyReply)
	if r == nil {
		r = new(applyReply)
		r.done = r.answer
	}
	r.reply = reply
	lg.When(at, logged, r.done)
}

// applyReply is an apply's reply waiting on the completion list. It is
// pooled and its callback is bound once, so a waiting apply builds no
// closure.
type applyReply struct {
	reply func(network.Message)
	done  func(error) // r.answer
}

var applyReplies sync.Pool

// answer sends the apply's verdict and pools r.
func (r *applyReply) answer(err error) {
	reply := r.reply
	r.reply = nil
	applyReplies.Put(r)
	reply(applyVerdict(err))
}

// applyVerdict is an apply's reply.
func applyVerdict(err error) network.Message {
	if err != nil {
		return network.Status(false, err.Error())
	}
	return network.Status(true, "")
}

// ApplyDecided hands the decided entry for (group, pos) to the local log and
// waits for the apply batch that makes it durable (internal/replog): when pos
// is contiguous with the watermark, the batch carries the data writes of
// every newly contiguous entry and the watermark itself, and the row of pos
// in its decided form unless the vote this replica holds already is the entry.
// Returning nil means the decided bytes are durable locally (invariant R2) —
// as a vote under a durable watermark, or as a row marked decided; the master
// counts a peer's reply toward the majority it acknowledges on — and, unless
// pos is above a log gap, that the watermark covers it. An entry above a gap
// is logged and queued but its application is not waited for: the gap is
// filled by catch-up, which ApplyDecided starts itself if the gap outlives a
// timeout (fillGapLater). It is idempotent: duplicated apply messages and
// replays are harmless.
//
// ApplyDecided is for a caller that has the decision but no ballot it was
// chosen at — a fetched or learned entry; an apply message brings one
// (applyChosen).
func (s *Service) ApplyDecided(group string, pos int64, entryBytes []byte) error {
	return s.applyChosen(group, pos, paxos.DecidedBallot, entryBytes)
}

// applyChosen is ApplyDecided with a ballot a majority voted for the entry at
// (replog.Log.AppendChosen).
func (s *Service) applyChosen(group string, pos, chosenAt int64, entryBytes []byte) error {
	lg, at, logged, err := s.appendChosen(group, pos, chosenAt, entryBytes)
	switch {
	case err != nil:
		return err
	case logged:
		return lg.WaitLogged(context.Background(), at)
	default:
		return lg.WaitApplied(context.Background(), at)
	}
}

// appendChosen is the one apply: it queues the entry in group's log and
// says what makes it durable — the watermark reaching at, or, above a gap
// (logged), the row of at alone, with the gap's catch-up armed.
func (s *Service) appendChosen(group string, pos, chosenAt int64, entryBytes []byte) (lg *replog.Log, at int64, logged bool, err error) {
	if pos < 1 {
		return nil, 0, false, fmt.Errorf("core: apply at invalid position %d", pos)
	}
	g := s.group(group)
	lg = g.log
	horizon, err := lg.AppendChosen(pos, chosenAt, entryBytes)
	if err != nil {
		return nil, 0, false, fmt.Errorf("core: apply %s/%d: %w", group, pos, err)
	}
	if horizon < pos {
		// Gapped: positions below pos are still missing.
		s.fillGapLater(g)
		return lg, pos, true, nil
	}
	return lg, horizon, false, nil
}

// lastApplied returns the highest contiguously applied log position for
// group; 0 means the log is empty. This is the replog watermark — an
// in-memory read, no meta-row round trip.
func (s *Service) lastApplied(group string) int64 {
	return s.log(group).Applied()
}

// LastApplied exposes the applied horizon (tests, tooling, examples).
func (s *Service) LastApplied(group string) int64 { return s.lastApplied(group) }

// LogSnapshot returns every decided log entry this datacenter knows for
// group, keyed by position. Used by the history checker and tooling.
func (s *Service) LogSnapshot(group string) map[int64]wal.Entry {
	return s.log(group).Snapshot()
}

// --- transaction API handlers -------------------------------------------

// resolveReadTS turns a request's TS into the position the read is served
// at. TS = network.ResolvePos means "serve at the current applied watermark
// and tell me where" — the lazy read-position piggyback (DESIGN.md §9). A
// position ahead of the local log triggers catch-up, bounded by the service
// timeout so a laggard read cannot hang a handler goroutine indefinitely.
func (s *Service) resolveReadTS(group string, ts int64) (int64, error) {
	if ts < 0 {
		return s.lastApplied(group), nil
	}
	if s.lastApplied(group) < ts {
		ctx := deadline.Start(context.Background(), s.timeout)
		defer ctx.End()
		if err := s.CatchUp(ctx, group, ts); err != nil {
			return 0, err
		}
	}
	return ts, nil
}

// handleReadMulti serves the one positioned read (transaction protocol step
// 2, and step 1 when it names no keys): the keys at one log position, with
// one watermark check (plus at most one catch-up round, if this
// datacenter's log lags the position) and one multi-key store pass. All
// keys are served at the same position, so the batch observes one snapshot
// (the replog watermark only advances after a batch of entries fully
// lands).
func (s *Service) handleReadMulti(req network.Message) network.Message {
	ts, err := s.resolveReadTS(req.Group, req.TS)
	if err != nil {
		return network.Status(false, err.Error())
	}
	if refusal, fenced := s.readFence(req.Group, ts, req.Keys...); fenced {
		return refusal
	}
	resp := network.Message{
		Kind: network.KindValue, OK: true, TS: ts,
		Vals:   make([]string, len(req.Keys)),
		Founds: make([]bool, len(req.Keys)),
	}
	rn := readNamesPool.Get().(*readNames)
	for _, k := range req.Keys {
		at := len(rn.buf)
		rn.buf = replog.AppendDataKey(rn.buf, req.Group, k)
		rn.names = append(rn.names, rn.buf[at:])
	}
	err = s.store.ReadAttr(rn.names, ts, "v", resp.Vals, resp.Founds)
	rn.buf, rn.names = rn.buf[:0], rn.names[:0]
	readNamesPool.Put(rn)
	if err != nil {
		return network.Status(false, err.Error())
	}
	return resp
}

// readNames holds a positioned read's row names: built in one buffer, which
// a later read reuses, and read by the store only during the read. An append
// that moves buf leaves the names taken before on the old array, which keeps
// them. The reply's columns share the store's memory, not these.
type readNames struct {
	buf   []byte
	names [][]byte
}

var readNamesPool = sync.Pool{New: func() any { return new(readNames) }}

// readFence applies the migration read fences (DESIGN.md §15) to a read
// served at position ts, asking the fence at the applied watermark. A key of
// a range that departed at or below ts is refused with VerdictMoved and the
// destination — serving it would return the frozen pre-cutover value as if it
// were current. Reads at positions before the cutover still serve normally
// (snapshot reads of in-flight transactions). A key of a range pending now is
// refused with VerdictMigrating, whatever ts — serving it would expose a
// half-copied backfill. (A scan page asks the fence at its pin instead, so it
// serves such a row at a pin below the prepare; DESIGN.md §16.) With multiple
// in-flight destinations, one refusal names the keys of the first; the
// caller's next hop surfaces the rest.
func (s *Service) readFence(group string, ts int64, keys ...string) (network.Message, bool) {
	fence := s.log(group).Fence()
	var movedKeys []string
	dest := ""
	for _, k := range keys {
		if to, outPos, ok := fence.Moved(k); ok && ts >= outPos {
			if dest == "" {
				dest = to
			}
			if to == dest {
				movedKeys = append(movedKeys, k)
			}
		}
	}
	if dest != "" {
		return migrationVerdict(dest, movedKeys...), true
	}
	for _, k := range keys {
		if fence.Pending(k) {
			return migrationVerdict(""), true
		}
	}
	return network.Message{}, false
}

// handleFetchLog returns the decided entry at a position, if known locally.
// A position below the local compaction horizon is reported as compacted so
// the laggard switches to snapshot transfer.
func (s *Service) handleFetchLog(req network.Message) network.Message {
	raw, ok := s.log(req.Group).EntryBytes(req.Pos)
	if !ok {
		if compacted := s.CompactedTo(req.Group); req.Pos < compacted {
			refusal := network.Refuse(network.VerdictCompacted, "")
			refusal.TS = compacted
			return refusal
		}
		return network.Message{Kind: network.KindValue, OK: false}
	}
	return network.Message{Kind: network.KindValue, OK: true, Payload: []byte(raw)}
}

// --- leader fast path -----------------------------------------------------

// handleClaim implements the per-log-position leader check (§4.1): the
// leader for position p is the datacenter whose client won position p-1.
// The first client to claim the position at the leader may skip the prepare
// phase; everyone else takes the full protocol.
//
// A grant makes its transaction the position's only ballot-0 proposer, so the
// grantee decides at a majority (runInstance). Two conditions keep a master's
// ballot 0 off a granted position (R-a; its other half, R-b, is in
// replicateMaster; DESIGN.md §11): this replica has contiguously applied
// pos-1, and no mastership claim is in what it has applied. A master that
// proposes at ballot 0 knows of a claim below the position it proposes, and a
// leader that could grant that position has applied that claim.
func (s *Service) handleClaim(req network.Message) network.Message {
	lg := s.log(req.Group)
	// The watermark before the epoch: the epoch read then covers at least the
	// prefix the watermark names.
	applied := lg.Applied()
	if lg.Epoch().Epoch != 0 {
		return network.Status(false, "group has a master")
	}
	if leader := s.Leader(req.Group, req.Pos); leader != s.dc {
		// Refuse, hinting who the leader is so the client can retry there.
		return network.Message{Kind: network.KindStatus, OK: false, Err: "not leader", Value: leader}
	}
	if applied < req.Pos-1 {
		return network.Status(false, "position not reached")
	}
	token := req.Value
	err := s.store.CheckAndWrite(claimKey(req.Group, req.Pos), "owner", "", kvstore.PackAttrs("owner", token))
	if err == nil {
		return network.Status(true, "")
	}
	if errors.Is(err, kvstore.ErrCheckFailed) {
		// Idempotent for the same client (duplicate claim message).
		v, _, rerr := s.store.ReadPacked(claimKey(req.Group, req.Pos), kvstore.Latest)
		if rerr == nil && v.Get("owner") == token {
			return network.Status(true, "")
		}
		return network.Status(false, "position already claimed")
	}
	return network.Status(false, err.Error())
}

// Leader computes the leader datacenter for (group, pos): the origin of the
// winning proposer of position pos-1 (the first transaction in the decided
// entry — under combination the proposer's own transaction heads the list).
// When pos-1 is unknown locally or is a no-op, there is no usable leader and
// Leader returns "". The origin is read from the entry's bytes: nothing is
// decoded.
func (s *Service) Leader(group string, pos int64) string {
	if pos <= 1 {
		// First position: no previous winner. By convention the smallest
		// datacenter name in the topology acts as initial leader, so the
		// fast path works from a cold start too.
		if s.transport == nil {
			return s.dc
		}
		peers := s.transport.Peers()
		if len(peers) == 0 {
			return s.dc
		}
		return peers[0]
	}
	raw, _ := s.log(group).EntryBytes(pos - 1)
	r, err := wal.NewReader(raw)
	if err != nil || !r.More() {
		return ""
	}
	t, _ := r.Next() // the log checked the bytes when it queued them
	return t.Origin
}

// --- catch-up and recovery ------------------------------------------------

// CatchUp brings the local log up to position target: each missing entry is
// first fetched from a peer that knows it and, failing that, learned by
// running a Paxos instance for the position ("If a Transaction Service does
// not receive all Paxos messages for a log position ... it executes a Paxos
// instance for the missing log entry to learn the winning value", §4.1).
func (s *Service) CatchUp(ctx context.Context, group string, target int64) error {
	return s.advance(ctx, group, target, func(pos int64) ([]byte, error) {
		return s.learn(ctx, group, pos, false)
	})
}

// advance brings the local watermark to target. Entries already decided
// locally are not obtained again — the caller blocks on the replog watermark
// until a drain has landed them; each missing one comes from get
// and is applied; and where get reports that the peers have compacted past
// the position, a snapshot is installed and per-entry catch-up resumes above
// its horizon. Each entry is applied as the bytes get returns — the peers'
// bytes, which the decided position holds (invariant R1).
func (s *Service) advance(ctx context.Context, group string, target int64, get func(pos int64) ([]byte, error)) error {
	lg := s.log(group)
	for {
		pos := lg.Applied() + 1
		if pos > target {
			return nil
		}
		if lg.Has(pos) {
			if err := lg.WaitApplied(ctx, pos); err != nil {
				return err
			}
			continue
		}
		decided, err := get(pos)
		if errors.Is(err, errSnapshotRequired) {
			if err := s.fetchSnapshot(ctx, group); err != nil {
				return fmt.Errorf("core: snapshot catch-up %s: %w", group, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("core: catch up %s/%d: %w", group, pos, err)
		}
		if err := s.ApplyDecided(group, pos, decided); err != nil {
			return err
		}
	}
}

// fillGapLater arms g's gap watch. A replica that misses one apply
// message sits behind the gap — entries above it queue, logged but not
// applied — and nothing but a read at a higher position or Recover would
// notice. So if the watermark is still below a locally decided position one
// service timeout from now, the watch fetches the missing entries from
// peers. Fetch only: driving a Paxos instance from here would raise ballots
// under live proposers, so a position no peer has learned yet is left to the
// master's resolveHole, a read's CatchUp or Recover. One watch per group
// runs at a time and makes one attempt; a later gapped entry re-arms it.
func (s *Service) fillGapLater(g *groupState) {
	if s.transport == nil {
		return
	}
	group := g.log.Group()
	s.mu.Lock()
	if s.closed || g.gapWatch {
		s.mu.Unlock()
		return
	}
	g.gapWatch = true
	s.bg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.bg.Done()
		defer func() {
			s.mu.Lock()
			g.gapWatch = false
			s.mu.Unlock()
		}()
		if sleepCtx(s.bgCtx, s.timeout) != nil {
			return
		}
		// Best effort: a failed fetch leaves the gap for the next trigger.
		_ = s.advance(s.bgCtx, group, g.log.DecidedMax(), func(pos int64) ([]byte, error) {
			return s.fetchDecided(s.bgCtx, group, pos)
		})
	}()
}

// Recover replays the recovery procedure after an outage: it asks every peer
// for its applied horizon and catches up to the maximum. Positions that no
// peer has decided are resolved by learning; a position nobody voted on is
// filled with a no-op entry so the log has no permanent holes.
func (s *Service) Recover(ctx context.Context, group string) error {
	lg := s.log(group)
	target := max(lg.Applied(), s.peersApplied(ctx, group))
	err := s.advance(ctx, group, target, func(pos int64) ([]byte, error) {
		return s.learn(ctx, group, pos, true)
	})
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", group, err)
	}

	// Probe past every peer's applied horizon: a transaction whose accept
	// round reached a majority is committed even if every apply message was
	// lost, so positions just above the horizons may be decided without
	// appearing in any log yet. Learning stops at the first genuinely
	// undecided position. This mirrors §4.1: the decided value "will
	// eventually be completed, either by another client or by a Transaction
	// Service" — recovery is that service.
	err = s.advance(ctx, group, math.MaxInt64, func(pos int64) ([]byte, error) {
		decided, err := s.learn(ctx, group, pos, false)
		if err != nil && !errors.Is(err, errSnapshotRequired) {
			return nil, errProbeEnd // undecided or unreachable: nothing more to complete
		}
		return decided, err
	})
	if errors.Is(err, errProbeEnd) {
		return nil
	}
	return err
}

// errProbeEnd ends Recover's probe at the first position no peer has decided.
var errProbeEnd = errors.New("core: no decided entry above the log")

// errSnapshotRequired reports that peers have compacted past the position
// being learned; the caller must install a snapshot instead.
var errSnapshotRequired = errors.New("core: position compacted at peers; snapshot required")

// learn discovers the decided bytes of one log position: fetch from peers
// first, then drive the service's Paxos instance (Service.instance) to
// completion, proposing the highest vote a full prepare finds. When fillNoOp
// is true (explicit recovery) an undecided position is decided as a no-op
// entry; otherwise learning an undecided position fails. If any peer reports
// the position compacted, learn returns errSnapshotRequired — running Paxos
// there would resurrect a scavenged instance as a no-op.
func (s *Service) learn(ctx context.Context, group string, pos int64, fillNoOp bool) ([]byte, error) {
	if s.transport == nil {
		return nil, fmt.Errorf("position %d not decided locally and no peers", pos)
	}
	// Fast path: a peer already knows the decided entry.
	if decided, err := s.fetchDecided(ctx, group, pos); !errors.Is(err, errNotFetched) {
		return decided, err
	}
	in := s.instance(group, pos)
	in.WaitAll = true
	in.Choose = func(prep paxos.PrepareOutcome) ([]byte, error) {
		if v, ok := maxBallotVote(prep.Votes); ok {
			return v.Value, nil
		}
		if !fillNoOp {
			return nil, fmt.Errorf("position %d undecided", pos)
		}
		return wal.Encode(wal.NoOp()), nil
	}
	value, chosenAt, err := s.proposer.Decide(ctx, in)
	if err != nil {
		return nil, err
	}
	s.proposer.Apply(ctx, group, pos, chosenAt, value)
	return value, nil
}

// errNotFetched reports that no reachable peer served the decided entry.
var errNotFetched = errors.New("core: no peer holds the decided entry")

// fetchDecided asks the peers for the decided entry at pos (KindFetchLog) and
// returns the first payload that parses (wal.Check), as it came: errNotFetched when none
// of them has it, errSnapshotRequired when one has compacted past it. The last peer that served a fetch goes first — during
// bulk catch-up an unreachable peer earlier in the list would otherwise cost
// one timeout per position.
func (s *Service) fetchDecided(ctx context.Context, group string, pos int64) ([]byte, error) {
	peers := s.transport.Peers()
	if last, ok := s.fetchPeer.Load().(string); ok && len(peers) > 1 {
		order := make([]string, 0, len(peers))
		order = append(order, last)
		for _, dc := range peers {
			if dc != last {
				order = append(order, dc)
			}
		}
		peers = order
	}
	for _, dc := range peers {
		if dc == s.dc {
			continue
		}
		cctx := deadline.Start(ctx, s.timeout)
		resp, err := s.transport.Send(cctx, dc, network.Message{Kind: network.KindFetchLog, Group: group, Pos: pos})
		cctx.End()
		if err == nil && resp.OK {
			if wal.Check(string(resp.Payload)) == nil {
				s.fetchPeer.Store(dc)
				return resp.Payload, nil
			}
		}
		if err == nil && !resp.OK && resp.Verdict == network.VerdictCompacted {
			return nil, errSnapshotRequired
		}
	}
	return nil, errNotFetched
}
