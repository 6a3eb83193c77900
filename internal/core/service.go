package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
func dataKey(group, key string) string { return replog.DataKey(group, key) }

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

	// logs holds the per-group replicated logs: decided entries, the
	// applied watermark readers block on, and the batched async apply
	// pipeline.
	logs *replog.Set

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

	// disp shards short request handlers across GOMAXPROCS workers keyed by
	// group (dispatch.go); used by AsyncHandler only.
	disp *dispatcher

	// fencing enables epoch-fenced master leases (DESIGN.md §11): the
	// master path claims a per-group epoch through the log before placing
	// entries and stamps every entry with it. On by default; the off switch
	// exists only so tests can reproduce the pre-fencing behavior.
	fencing bool
	// leaseDur is the master lease duration; 0 means DefaultLeaseFactor
	// times the service timeout.
	leaseDur time.Duration

	// claimMu guards claimLocks, the per-group mutexes serializing
	// mastership claims. Claims must not share one lock across groups: a
	// claim legitimately sleeps out another holder's lease, and one group's
	// wait must not starve every other group's takeover.
	claimMu    sync.Mutex
	claimLocks map[string]*sync.Mutex

	// claimHistMu guards claimHist, the per-group re-claim streak state
	// behind the deposed-side claim backoff (lease.go). claimBackoffOff is
	// the test-only escape hatch that reproduces the pre-backoff ping-pong.
	claimHistMu     sync.Mutex
	claimHist       map[string]*claimHistory
	claimBackoffOff bool

	// pipelines holds the per-group master submit pipelines, created
	// lazily on first submit.
	pipeMu     sync.Mutex
	pipelines  map[string]*pipeline
	pipeClosed bool

	// Gap-triggered catch-up (fillGapLater): gapWatch marks the groups with
	// a watch running, bg counts the watches, and bgCtx — cancelled by Close,
	// under bgMu — stops them.
	bgMu     sync.Mutex
	gapWatch map[string]bool
	bg       sync.WaitGroup
	bgCtx    context.Context
	bgCancel context.CancelFunc
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
// unbounded latency (default DefaultSubmitQueue). Negative lifts the cap,
// restoring the pre-admission unbounded queue.
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
// implicitly through its own committed traffic (and explicitly via
// RenewLease when idle). Zero (the default) means DefaultLeaseFactor times
// the service timeout. The lease bounds failover time only — safety comes
// from epoch fencing, not from clocks.
func WithLeaseDuration(d time.Duration) ServiceOption {
	return func(s *Service) {
		if d > 0 {
			s.leaseDur = d
		}
	}
}

// WithClaimBackoffDisabled turns the deposed-side claim backoff off
// (lease.go): a service that lost mastership re-claims the moment the
// holder's lease looks silent, restoring the pre-backoff ping-pong under a
// sustained asymmetric partition. Test-only — it exists so the backoff
// regression test can measure the behavior it prevents.
func WithClaimBackoffDisabled() ServiceOption {
	return func(s *Service) { s.claimBackoffOff = true }
}

// WithEpochFencingDisabled turns epoch-fenced master leases off, restoring
// the pre-fencing master path: no claim entries, unstamped log entries, and
// no protection against two concurrent masters. Test-only — it exists so the
// fencing test battery can reproduce the old behavior as a baseline; never
// use it in a deployment.
func WithEpochFencingDisabled() ServiceOption {
	return func(s *Service) { s.fencing = false }
}

// NewService creates the Transaction Service for datacenter dc, backed by
// store, using transport to reach peer services during catch-up.
func NewService(dc string, store *kvstore.Store, transport network.Transport, opts ...ServiceOption) *Service {
	s := &Service{
		dc:            dc,
		store:         store,
		acceptor:      paxos.NewAcceptor(store),
		logs:          replog.NewSet(store),
		transport:     transport,
		timeout:       network.DefaultTimeout,
		submitWindow:  DefaultSubmitWindow,
		submitCombine: DefaultSubmitCombine,
		submitQueue:   DefaultSubmitQueue,
		disp:          newDispatcher(runtime.GOMAXPROCS(0)),
		fencing:       true,
		claimLocks:    make(map[string]*sync.Mutex),
		claimHist:     make(map[string]*claimHistory),
		pipelines:     make(map[string]*pipeline),
		gapWatch:      make(map[string]bool),
	}
	s.bgCtx, s.bgCancel = context.WithCancel(context.Background())
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

// log returns the group's replicated log.
func (s *Service) log(group string) *replog.Log { return s.logs.Get(group) }

// Groups returns the transaction groups this replica serves (every group
// with an open replicated log), sorted — the group-discovery surface
// GroupStatus reports over the wire.
func (s *Service) Groups() []string { return s.logs.Groups() }

// EnsureGroups opens the replicated logs for the named groups up front.
// Groups normally open lazily on first traffic; a sharded deployment
// (txkvd -groups) pre-opens its placement's groups so recovery state is
// rebuilt at startup and discovery reports the full set before any client
// arrives.
func (s *Service) EnsureGroups(groups ...string) {
	for _, g := range groups {
		s.logs.Get(g)
	}
}

// Close stops the per-group submit pipelines (queued submissions fail), the
// gap watches and the apply goroutines. Durable state is untouched; a new
// Service over the same store resumes where this one stopped.
func (s *Service) Close() {
	s.bgMu.Lock()
	s.bgCancel()
	s.bgMu.Unlock()
	s.pipeMu.Lock()
	s.pipeClosed = true
	pipes := make([]*pipeline, 0, len(s.pipelines))
	for _, p := range s.pipelines {
		pipes = append(pipes, p)
	}
	s.pipeMu.Unlock()
	for _, p := range pipes {
		p.close()
	}
	s.logs.Close()
	// After the logs: a watch blocked in ApplyDecided returns once they close.
	s.bg.Wait()
	s.disp.close()
}

// Handler returns the network handler that dispatches every protocol
// message this service understands.
func (s *Service) Handler() network.Handler {
	return func(from string, req network.Message) network.Message {
		if resp, ok := paxos.HandleMessage(s.acceptor, req); ok {
			return resp
		}
		switch req.Kind {
		case network.KindApply:
			return s.handleApply(req)
		case network.KindReadPos:
			return s.handleReadPos(req)
		case network.KindRead:
			return s.handleRead(req)
		case network.KindReadMulti:
			return s.handleReadMulti(req)
		case network.KindClaimLeader:
			return s.handleClaim(req)
		case network.KindFetchLog:
			return s.handleFetchLog(req)
		case network.KindSubmit:
			return s.handleSubmit(req)
		case network.KindSnapshot:
			return s.handleSnapshot(req)
		case network.KindStats:
			return s.handleStats(req)
		case network.KindCompact:
			return s.handleCompact(req)
		case network.KindRangeSnapshot:
			return s.handleRangeSnapshot(req)
		case network.KindMigrate:
			return s.handleMigrate(req)
		case network.KindScan:
			return s.handleScan(req)
		default:
			return network.Status(false, fmt.Sprintf("unknown kind %q", req.Kind))
		}
	}
}

// --- log application ---------------------------------------------------

// handleApply lands a decided entry in the local log; the reply is what the
// proposer counts toward its apply majority (see ApplyDecided, R2).
func (s *Service) handleApply(req network.Message) network.Message {
	if err := s.applyChosen(req.Group, req.Pos, req.Ballot, req.Payload); err != nil {
		return network.Status(false, err.Error())
	}
	return network.Status(true, "")
}

// ApplyDecided hands the decided entry for (group, pos) to the local log and
// waits for the apply batch that makes it durable (internal/replog): when pos
// is contiguous with the watermark, the batch carries the data writes of
// every newly contiguous entry and the watermark itself, and the row of pos
// in its decided form unless the vote this replica holds already is the entry.
// Returning nil means the decided bytes are durable locally under the engine's
// sync policy (invariant R2) — as a vote under a durable watermark, or as a
// row marked decided; the master counts a peer's reply toward the majority it
// acknowledges on — and, unless pos is above a log gap, that the watermark
// covers it. An entry above a gap is logged and queued but its application
// is not waited for: the gap is filled by catch-up, which ApplyDecided starts
// itself if the gap outlives a timeout (fillGapLater). It is idempotent:
// duplicated apply messages and replays are harmless.
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
	if pos < 1 {
		return fmt.Errorf("core: apply at invalid position %d", pos)
	}
	lg := s.log(group)
	horizon, err := lg.AppendChosen(pos, chosenAt, entryBytes)
	if err != nil {
		return fmt.Errorf("core: apply %s/%d: %w", group, pos, err)
	}
	if horizon < pos {
		// Gapped: positions below pos are still missing.
		s.fillGapLater(group)
		return lg.WaitLogged(context.Background(), pos)
	}
	return lg.WaitApplied(context.Background(), horizon)
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

// DecidedEntry returns the decided log entry at pos, if this datacenter has
// learned it. The entry may be served from the replog cache: treat it as
// read-only.
func (s *Service) DecidedEntry(group string, pos int64) (wal.Entry, bool) {
	return s.log(group).Entry(pos)
}

// --- transaction API handlers -------------------------------------------

// handleReadPos returns the read position for a new transaction: the last
// contiguously applied log position (transaction protocol step 1).
func (s *Service) handleReadPos(req network.Message) network.Message {
	return network.Message{Kind: network.KindValue, OK: true, TS: s.lastApplied(req.Group)}
}

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
		ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
		defer cancel()
		if err := s.CatchUp(ctx, group, ts); err != nil {
			return 0, err
		}
	}
	return ts, nil
}

// handleRead serves a read at the requested read position (transaction
// protocol step 2). If this datacenter's log lags the position, it first
// catches up from its peers; entries already decided locally are waited on
// through the replog watermark instead.
func (s *Service) handleRead(req network.Message) network.Message {
	ts, err := s.resolveReadTS(req.Group, req.TS)
	if err != nil {
		return network.Status(false, err.Error())
	}
	if refusal, fenced := s.readFence(req.Group, ts, req.Key); fenced {
		return refusal
	}
	v, _, err := s.store.ReadPacked(dataKey(req.Group, req.Key), ts)
	if errors.Is(err, kvstore.ErrNotFound) {
		return network.Message{Kind: network.KindValue, OK: true, Found: false, TS: ts}
	}
	if err != nil {
		return network.Status(false, err.Error())
	}
	return network.Message{Kind: network.KindValue, OK: true, Found: true, Value: v.Get("v"), TS: ts}
}

// handleReadMulti serves a batched multi-key read at one log position: one
// watermark check (plus at most one catch-up round) and one multi-key store
// pass, instead of the per-key lock round a loop of single reads pays. All
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
	keys := make([]string, len(req.Keys))
	for i, k := range req.Keys {
		keys[i] = dataKey(req.Group, k)
	}
	results, err := s.store.ReadMulti(keys, ts)
	if err != nil {
		return network.Status(false, err.Error())
	}
	resp := network.Message{
		Kind: network.KindValue, OK: true, TS: ts,
		Vals:   make([]string, len(results)),
		Founds: make([]bool, len(results)),
	}
	for i, r := range results {
		if r.Found {
			resp.Vals[i] = r.Value.Get("v")
			resp.Founds[i] = true
		}
	}
	return resp
}

// readFence applies the migration read fences (DESIGN.md §15) to a read
// served at position ts. A key of a range that departed at or below ts is
// refused with VerdictMoved and the destination — serving it would return the
// frozen pre-cutover value as if it were current. A key of a
// prepared-but-unopened inbound range is refused with VerdictMigrating —
// serving it would expose a half-copied backfill. Reads at positions before the
// cutover still serve normally (snapshot reads of in-flight transactions).
// With multiple in-flight destinations, one refusal names the keys of the
// first; the caller's next hop surfaces the rest.
func (s *Service) readFence(group string, ts int64, keys ...string) (network.Message, bool) {
	lg := s.log(group)
	if !lg.HasMigrations() {
		return network.Message{}, false
	}
	var movedKeys []string
	dest := ""
	for _, k := range keys {
		if to, outPos, ok := lg.MovedTo(k); ok && ts >= outPos {
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
		if lg.InboundPending(k) {
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
	return network.Message{Kind: network.KindValue, OK: true, Payload: raw}
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
// Leader returns "".
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
	entry, ok := s.DecidedEntry(group, pos-1)
	if !ok || entry.IsNoOp() {
		return ""
	}
	return entry.Txns[0].Origin
}

// --- catch-up and recovery ------------------------------------------------

// CatchUp brings the local log up to position target: each missing entry is
// first fetched from a peer that knows it and, failing that, learned by
// running a Paxos instance for the position ("If a Transaction Service does
// not receive all Paxos messages for a log position ... it executes a Paxos
// instance for the missing log entry to learn the winning value", §4.1).
func (s *Service) CatchUp(ctx context.Context, group string, target int64) error {
	return s.advance(ctx, group, target, func(pos int64) (wal.Entry, error) {
		return s.learn(ctx, group, pos, false)
	})
}

// advance brings the local watermark to target. Entries already decided
// locally are not obtained again — the caller blocks on the replog watermark
// until the apply goroutine has landed them; each missing one comes from get
// and is applied; and where get reports that the peers have compacted past
// the position, a snapshot is installed and per-entry catch-up resumes above
// its horizon.
func (s *Service) advance(ctx context.Context, group string, target int64, get func(pos int64) (wal.Entry, error)) error {
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
		entry, err := get(pos)
		if errors.Is(err, errSnapshotRequired) {
			if err := s.fetchSnapshot(ctx, group); err != nil {
				return fmt.Errorf("core: snapshot catch-up %s: %w", group, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("core: catch up %s/%d: %w", group, pos, err)
		}
		if err := s.ApplyDecided(group, pos, wal.Encode(entry)); err != nil {
			return err
		}
	}
}

// fillGapLater arms the group's gap watch. A replica that misses one apply
// message sits behind the gap — entries above it queue, logged but not
// applied — and nothing but a read at a higher position or Recover would
// notice. So if the watermark is still below a locally decided position one
// service timeout from now, the watch fetches the missing entries from
// peers. Fetch only: driving a Paxos instance from here would raise ballots
// under live proposers, so a position no peer has learned yet is left to the
// master's resolveHole, a read's CatchUp or Recover. One watch per group
// runs at a time and makes one attempt; a later gapped entry re-arms it.
func (s *Service) fillGapLater(group string) {
	if s.transport == nil {
		return
	}
	s.bgMu.Lock()
	if s.bgCtx.Err() != nil || s.gapWatch[group] {
		s.bgMu.Unlock()
		return
	}
	s.gapWatch[group] = true
	s.bg.Add(1)
	s.bgMu.Unlock()
	go func() {
		defer s.bg.Done()
		defer func() {
			s.bgMu.Lock()
			delete(s.gapWatch, group)
			s.bgMu.Unlock()
		}()
		if sleepCtx(s.bgCtx, s.timeout) != nil {
			return
		}
		// Best effort: a failed fetch leaves the gap for the next trigger.
		_ = s.advance(s.bgCtx, group, s.log(group).DecidedMax(), func(pos int64) (wal.Entry, error) {
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
	err := s.advance(ctx, group, target, func(pos int64) (wal.Entry, error) {
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
	for {
		pos := lg.Applied() + 1
		entry, err := s.learn(ctx, group, pos, false)
		if err != nil {
			if errors.Is(err, errSnapshotRequired) {
				if err := s.fetchSnapshot(ctx, group); err != nil {
					return err
				}
				continue
			}
			// Undecided or unreachable: nothing more to complete.
			return nil
		}
		if err := s.ApplyDecided(group, pos, wal.Encode(entry)); err != nil {
			return err
		}
	}
}

// errSnapshotRequired reports that peers have compacted past the position
// being learned; the caller must install a snapshot instead.
var errSnapshotRequired = errors.New("core: position compacted at peers; snapshot required")

// learn discovers the decided value of one log position: fetch from peers
// first, then drive the service's Paxos instance (Service.instance) to
// completion, proposing the highest vote a full prepare finds. When fillNoOp
// is true (explicit recovery) an undecided position is decided as a no-op
// entry; otherwise learning an undecided position fails. If any peer reports
// the position compacted, learn returns errSnapshotRequired — running Paxos
// there would resurrect a scavenged instance as a no-op.
func (s *Service) learn(ctx context.Context, group string, pos int64, fillNoOp bool) (wal.Entry, error) {
	if s.transport == nil {
		return wal.Entry{}, fmt.Errorf("position %d not decided locally and no peers", pos)
	}
	// Fast path: a peer already knows the decided entry.
	if entry, err := s.fetchDecided(ctx, group, pos); !errors.Is(err, errNotFetched) {
		return entry, err
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
		return wal.Entry{}, err
	}
	s.proposer.Apply(ctx, group, pos, chosenAt, value)
	return wal.Decode(value)
}

// errNotFetched reports that no reachable peer served the decided entry.
var errNotFetched = errors.New("core: no peer holds the decided entry")

// fetchDecided asks the peers for the decided entry at pos (KindFetchLog):
// errNotFetched when none of them has it, errSnapshotRequired when one has
// compacted past it. The last peer that served a fetch goes first — during
// bulk catch-up an unreachable peer earlier in the list would otherwise cost
// one timeout per position.
func (s *Service) fetchDecided(ctx context.Context, group string, pos int64) (wal.Entry, error) {
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
		cctx, cancel := context.WithTimeout(ctx, s.timeout)
		resp, err := s.transport.Send(cctx, dc, network.Message{Kind: network.KindFetchLog, Group: group, Pos: pos})
		cancel()
		if err == nil && resp.OK {
			if entry, derr := wal.Decode(resp.Payload); derr == nil {
				s.fetchPeer.Store(dc)
				return entry, nil
			}
		}
		if err == nil && !resp.OK && resp.Verdict == network.VerdictCompacted {
			return wal.Entry{}, errSnapshotRequired
		}
	}
	return wal.Entry{}, errNotFetched
}
