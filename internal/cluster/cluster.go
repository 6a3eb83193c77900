package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/placement"
	"paxoscp/internal/wal"
)

// Config describes a cluster.
type Config struct {
	// Topology names the datacenters and their pairwise RTTs. Use one of
	// the Paper* constructors or build a custom one.
	Topology *network.Topology
	// NetConfig tunes the simulated network (scale, jitter, loss, seed).
	NetConfig network.SimConfig
	// Timeout is the message-loss detection timeout used by services and
	// the default for clients (paper: 2 s). It is NOT scaled automatically;
	// pass a scaled value alongside a scaled network.
	Timeout time.Duration
	// SubmitWindow sets each service's master submit pipeline depth: how
	// many Paxos positions stay in flight concurrently per group. 0 means
	// core.DefaultSubmitWindow; 1 is the serial pre-pipeline master.
	SubmitWindow int
	// SubmitCombine caps how many concurrently submitted transactions the
	// master combines into one log entry. 0 means
	// core.DefaultSubmitCombine; 1 disables combination.
	SubmitCombine int
	// SubmitQueue sets each service's per-group submit admission cap:
	// submissions beyond this queue depth fail fast with the retryable
	// network.VerdictOverloaded (DESIGN.md §13). 0 means
	// core.DefaultSubmitQueue; negative lifts the cap.
	SubmitQueue int
	// LeaseDuration is the master lease duration for epoch-fenced
	// mastership (DESIGN.md §11): how long a prospective master waits for
	// the prevailing holder's lease to fall silent before claiming the next
	// epoch. 0 means core.DefaultLeaseFactor times Timeout. Like Timeout,
	// it is NOT scaled automatically.
	LeaseDuration time.Duration
	// Groups shards the keyspace over that many transaction groups
	// (DESIGN.md §12): the cluster builds a placement.Placement over
	// placement.GroupNames(Groups), pre-opens every group's replicated log
	// on every service, and spreads per-group masterships across the
	// datacenters round-robin (MasterOf). 0 or 1 means the single-group
	// deployment every earlier experiment ran.
	Groups int
	// DataDir, when set, makes every datacenter's store disk-backed: replica
	// dc recovers from and durably logs to DataDir/<dc> (DESIGN.md §14),
	// which is what enables Crash and Restart. Empty means in-memory stores,
	// the sim/test default.
	DataDir string
	// DiskOptions, when non-nil, supplies each datacenter's full disk
	// engine options (only meaningful with DataDir set). It is how the
	// fault nemesis wires a faultfs injector under one replica's engine
	// and how tests shrink segments to force rotation. Restart calls it
	// again, so injected faults can span or be cleared across a
	// crash+restart.
	DiskOptions func(dc string) disk.Options
	// OnMigrationPhase, when set, observes every handoff entry Grow's
	// migration coordinator commits (phase, pair, log position). The bench
	// migration figure timestamps these callbacks to measure per-range
	// cutover pauses; it is not part of the migration protocol.
	OnMigrationPhase func(h wal.Handoff, pos int64)
}

// Cluster is a running multi-datacenter deployment.
type Cluster struct {
	cfg Config
	sim *network.Sim

	// placeMu guards place, which Grow swaps after each migration step
	// completes. Routed clients hold a clusterRouter, not the *Placement, so
	// they observe the swap on their next routing decision.
	placeMu sync.RWMutex
	place   *placement.Placement

	// svcMu guards the per-datacenter replica state, which Crash and
	// Restart swap at runtime. The endpoint dispatch closure takes the read
	// lock on every message; a crashed replica's entry is nil and its
	// messages are dropped, which is exactly what a kill -9'd process does.
	svcMu    sync.RWMutex
	stores   map[string]*kvstore.Store
	services map[string]*core.Service
	engines  map[string]*disk.Engine

	mu        sync.Mutex
	nextCID   int
	endpoints map[string]network.Transport
}

// New builds and starts a cluster over the given topology. It panics when
// the config is invalid or a datacenter's store fails to open — the
// convenience contract for sim and test call sites, where both are
// programming errors. A disk-backed deployment (Config.DataDir), whose data
// directories can be corrupt or incomplete for operator-facing reasons,
// should use Open and handle the error.
func New(cfg Config) *Cluster {
	c, err := Open(cfg)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Open builds and starts a cluster over the given topology, surfacing
// store-recovery failures (e.g. a corrupt sealed WAL segment or missing
// segments under Config.DataDir) as errors instead of panicking.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: missing topology")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = network.DefaultTimeout
	}
	c := &Cluster{
		cfg:       cfg,
		sim:       network.NewSim(cfg.Topology, cfg.NetConfig),
		stores:    make(map[string]*kvstore.Store),
		services:  make(map[string]*core.Service),
		engines:   make(map[string]*disk.Engine),
		endpoints: make(map[string]network.Transport),
	}
	// Two-phase wiring: services need endpoints for catch-up, and endpoints
	// need the service handler. Register a dispatching handler first. The
	// async registration hands requests to each service's one entry point
	// (core.AsyncHandler, DESIGN.md §13). The handler
	// re-resolves the service on every message so Crash (nil entry: drop)
	// and Restart (new service) take effect without re-registering.
	for _, dc := range cfg.Topology.DCs() {
		dc := dc
		store, engine, err := c.openStore(dc)
		if err != nil {
			// Tear down the partially built cluster: already-built services
			// run apply pools and submit pipelines, and the recovered
			// stores hold open segment files and flusher goroutines.
			c.sim.Close()
			for _, s := range c.services {
				s.Close()
			}
			for _, s := range c.stores {
				s.Close()
			}
			return nil, fmt.Errorf("cluster: open %s: %w", dc, err)
		}
		c.stores[dc] = store
		c.engines[dc] = engine
		ep := c.sim.EndpointAsync(dc, func(from string, req network.Message, reply func(network.Message)) {
			c.svcMu.RLock()
			svc := c.services[dc]
			c.svcMu.RUnlock()
			if svc == nil {
				return // crashed replica: messages fall on the floor
			}
			svc.AsyncHandler()(from, req, reply)
		})
		c.endpoints[dc] = ep
		c.services[dc] = c.buildService(dc, store)
	}
	groups := cfg.Groups
	if groups < 1 {
		groups = 1
	}
	c.place = placement.NewN(groups)
	if groups > 1 {
		// Pre-open every group's log on every replica so discovery
		// (GroupStatus.Groups) reports the full set before traffic arrives.
		for _, s := range c.services {
			s.EnsureGroups(c.place.Groups()...)
		}
	}
	return c, nil
}

// openStore builds one datacenter's store: disk-backed under
// DataDir/<dc> when Config.DataDir is set, in-memory otherwise. A recovered
// store in an older build's row layout is refused (paxos.CheckLayout).
func (c *Cluster) openStore(dc string) (*kvstore.Store, *disk.Engine, error) {
	if c.cfg.DataDir == "" {
		return kvstore.New(), nil, nil
	}
	var opts disk.Options
	if c.cfg.DiskOptions != nil {
		opts = c.cfg.DiskOptions(dc)
	}
	store, engine, err := disk.Open(filepath.Join(c.cfg.DataDir, dc), opts)
	if err != nil {
		return nil, nil, err
	}
	if err := paxos.CheckLayout(store); err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, engine, nil
}

// buildService constructs a datacenter's Transaction Service over store with
// the cluster's configured options, reusing the datacenter's registered
// endpoint. Shared by New and Restart.
func (c *Cluster) buildService(dc string, store *kvstore.Store) *core.Service {
	cfg := c.cfg
	opts := []core.ServiceOption{core.WithServiceTimeout(cfg.Timeout)}
	if cfg.SubmitWindow > 0 {
		opts = append(opts, core.WithSubmitWindow(cfg.SubmitWindow))
	}
	if cfg.SubmitCombine > 0 {
		opts = append(opts, core.WithSubmitCombine(cfg.SubmitCombine))
	}
	if cfg.SubmitQueue != 0 {
		opts = append(opts, core.WithSubmitQueue(cfg.SubmitQueue))
	}
	if cfg.LeaseDuration > 0 {
		opts = append(opts, core.WithLeaseDuration(cfg.LeaseDuration))
	}
	return core.NewService(dc, store, c.endpoints[dc], opts...)
}

// Crash hard-kills a datacenter's replica process: the durability engine
// suffers a simulated power loss (unflushed writes are gone), the service's
// goroutines stop, and every message to the datacenter is dropped without a
// reply — peers see timeouts, exactly as with a kill -9. Only disk-backed
// clusters (Config.DataDir) can crash: an in-memory replica would forget its
// Paxos promises, which no restart could make safe. Restart brings the
// replica back from its data directory.
func (c *Cluster) Crash(dc string) error {
	c.svcMu.Lock()
	svc := c.services[dc]
	eng := c.engines[dc]
	store := c.stores[dc]
	if svc == nil {
		c.svcMu.Unlock()
		return fmt.Errorf("cluster: %s is already crashed", dc)
	}
	if eng == nil {
		c.svcMu.Unlock()
		return fmt.Errorf("cluster: %s has no disk engine (set Config.DataDir to crash replicas)", dc)
	}
	c.services[dc] = nil
	c.svcMu.Unlock()
	c.sim.SetDown(dc, true)
	// Power loss first, teardown second: anything the service's goroutines
	// try to flush after this point fails against the poisoned engine, so
	// nothing "durable" happens after the crash instant.
	eng.Crash()
	svc.Close()
	store.Close()
	return nil
}

// Restart recovers a crashed datacenter from its data directory: reopen the
// disk store (snapshot + WAL-tail replay), rebuild the service over it — the
// replicated logs, applied watermarks, and epoch state all rebuild from the
// recovered rows (replog.Open) — and reconnect the network. The replica
// rejoins with everything it acknowledged before the crash; call Recover to
// catch it up on entries committed during the outage.
func (c *Cluster) Restart(dc string) error {
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	if c.services[dc] != nil {
		return fmt.Errorf("cluster: %s is not crashed", dc)
	}
	store, engine, err := c.openStore(dc)
	if err != nil {
		return err
	}
	svc := c.buildService(dc, store)
	if groups := c.Groups(); len(groups) > 1 {
		svc.EnsureGroups(groups...)
	}
	c.stores[dc] = store
	c.engines[dc] = engine
	c.services[dc] = svc
	c.sim.SetDown(dc, false)
	return nil
}

// Placement returns the cluster's current key->group placement (a
// single-group placement when Config.Groups was unset). After a Grow this is
// the post-grow placement; a caller that wants to track growth should route
// through NewKV's router, which follows swaps automatically.
func (c *Cluster) Placement() *placement.Placement {
	c.placeMu.RLock()
	defer c.placeMu.RUnlock()
	return c.place
}

// Groups returns the cluster's transaction group names in placement order.
func (c *Cluster) Groups() []string { return c.Placement().Groups() }

// MasterOf returns the datacenter designated master for a transaction
// group: groups spread across the datacenters round-robin in placement
// order (placement.IndexOf — the same spread txkvctl's routed mode
// computes), so a sharded deployment's submit load lands on every site
// instead of funneling through one (DESIGN.md §12). An unknown group
// defaults to the first datacenter.
func (c *Cluster) MasterOf(group string) string {
	dcs := c.cfg.Topology.DCs()
	if i := c.Placement().IndexOf(group); i >= 0 {
		return dcs[i%len(dcs)]
	}
	return dcs[0]
}

// NewKV creates a routed key-value facade local to dc: a client whose
// Master-protocol commits route to each group's designated master
// (MasterOf), wrapped with the cluster's placement. The cfg is used as for
// NewClient; cfg.MasterFor defaults to the cluster spread when unset.
func (c *Cluster) NewKV(dc string, cfg core.Config) *core.KV {
	if cfg.MasterFor == nil {
		cfg.MasterFor = c.MasterOf
	}
	return core.NewKV(c.NewClient(dc, cfg), clusterRouter{c})
}

// DCs returns the cluster's datacenter names in stable order.
func (c *Cluster) DCs() []string { return c.cfg.Topology.DCs() }

// Service returns the Transaction Service of a datacenter, or nil while the
// datacenter is crashed.
func (c *Cluster) Service(dc string) *core.Service {
	c.svcMu.RLock()
	s, ok := c.services[dc]
	c.svcMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("cluster: unknown datacenter %q", dc))
	}
	return s
}

// Store returns a datacenter's key-value store (the recovered one after a
// Restart).
func (c *Cluster) Store(dc string) *kvstore.Store {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	return c.stores[dc]
}

// Engine returns a datacenter's disk engine: nil for in-memory clusters,
// the poisoned pre-crash engine while the datacenter is crashed, the
// recovered engine after Restart. Fault-injection tests use it to run
// scrub passes and observe engine health directly.
func (c *Cluster) Engine(dc string) *disk.Engine {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	return c.engines[dc]
}

// Sim exposes the simulated network for fault injection and counters.
func (c *Cluster) Sim() *network.Sim { return c.sim }

// Timeout returns the cluster's configured message timeout.
func (c *Cluster) Timeout() time.Duration { return c.cfg.Timeout }

// NewClient creates a Transaction Client local to dc. Client IDs are
// assigned uniquely by the cluster. The client's timeout defaults to the
// cluster's timeout when the config leaves it zero.
func (c *Cluster) NewClient(dc string, cfg core.Config) *core.Client {
	c.svcMu.RLock()
	_, ok := c.services[dc]
	c.svcMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("cluster: unknown datacenter %q", dc))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = c.cfg.Timeout
	}
	c.mu.Lock()
	id := c.nextCID
	c.nextCID++
	c.mu.Unlock()
	// Clients share their datacenter's endpoint: the simulated network only
	// needs the message origin to compute latency, and the application
	// platform runs clients inside the datacenter (§2.2).
	return core.NewClient(id, dc, c.endpoints[dc], cfg)
}

// SetDown takes a datacenter offline or back online.
func (c *Cluster) SetDown(dc string, down bool) { c.sim.SetDown(dc, down) }

// Partition severs the link between two datacenters; Heal restores it.
func (c *Cluster) Partition(a, b string) { c.sim.Partition(a, b) }

// Heal restores the link between two datacenters.
func (c *Cluster) Heal(a, b string) { c.sim.Unpartition(a, b) }

// Recover runs the §4.1 recovery procedure for group on a datacenter that
// was down: it learns every log entry committed during the outage.
func (c *Cluster) Recover(ctx context.Context, dc, group string) error {
	svc := c.Service(dc)
	if svc == nil {
		return fmt.Errorf("cluster: %s is crashed; Restart it before Recover", dc)
	}
	return svc.Recover(ctx, group)
}

// Close shuts the cluster down: the network first, then each service's
// replicated logs and the pool that drains them, then the stores (which flush and close
// any attached disk engines).
func (c *Cluster) Close() {
	c.sim.Close()
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	for _, s := range c.services {
		if s != nil {
			s.Close()
		}
	}
	for _, s := range c.stores {
		s.Close()
	}
}
