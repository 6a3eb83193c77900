package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/stats"
)

// replica is one datacenter's store, service and transport.
type replica struct {
	dc      string
	store   *kvstore.Store
	engine  *disk.Engine // nil for an in-memory store
	paced   *pacedFS     // nil for an in-memory store
	fs      *tracedFS    // nil unless traced and durable
	dir     string
	svc     *core.Service
	udp     *network.UDP // nil under network.Sim
	handler atomic.Pointer[network.AsyncHandler]
}

// client is one closed-loop application thread: its own transport, its own
// core.Client, and the routed facade over it.
type client struct {
	name string
	udp  *network.UDP // nil under network.Sim
	cl   *core.Client
	kv   *core.KV
	cur  opCursor
}

// deployment is a running 3-replica system plus its two clients, wired the
// way cmd/txkvd and cluster.Open wire theirs, with the tracer's decorators
// on the seams when tr is set.
type deployment struct {
	s        spec
	tr       *tracer
	place    *placement.Placement
	replicas []*replica
	clients  []*client
	sim      *network.Sim
	dataDir  string
	rec      *history.Recorder
	coll     *stats.Collector
}

// masterOf spreads group masterships round-robin over the datacenters, as
// cluster.MasterOf does.
func (d *deployment) masterOf(group string) string {
	return d.s.dcs[max(d.place.IndexOf(group), 0)%len(d.s.dcs)]
}

func (d *deployment) replica(dc string) *replica {
	for _, r := range d.replicas {
		if r.dc == dc {
			return r
		}
	}
	panic("e2e: unknown datacenter " + dc)
}

// deploy builds and starts the workload's deployment: stores (on temp data
// dirs when durable), sockets or sim endpoints, services, and two clients.
// On error everything already started is stopped.
func deploy(s spec, seed int64, tr *tracer) (_ *deployment, err error) {
	d := &deployment{s: s, tr: tr, place: placement.NewN(s.groups),
		rec: &history.Recorder{}, coll: &stats.Collector{}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if s.durable {
		if d.dataDir, err = os.MkdirTemp("", "e2e-data-*"); err != nil {
			return nil, err
		}
	}
	if s.sim {
		topo := cluster.MustPaperTopology("VOC")
		// 2*seed+1 is never 0, which the sim would replace by the clock.
		d.sim = network.NewSim(topo, network.SimConfig{Scale: s.simScale, Jitter: 0.1, Seed: 2*seed + 1})
	}

	// Stores first, then transports whose handlers resolve the service
	// late, then the services that need those transports for catch-up.
	transports := make(map[string]network.Transport)
	for _, dc := range s.dcs {
		r := &replica{dc: dc}
		d.replicas = append(d.replicas, r)
		if err = d.openStore(r); err != nil {
			return nil, err
		}
		h := func(from string, req network.Message, reply func(network.Message)) {
			if hp := r.handler.Load(); hp != nil {
				(*hp)(from, req, reply)
				return
			}
			reply(network.Status(false, "service not ready"))
		}
		if s.sim {
			transports[dc] = d.sim.EndpointAsync(dc, h)
		} else {
			if r.udp, err = network.NewUDPAsync(dc, "127.0.0.1:0", nil, h); err != nil {
				return nil, err
			}
			transports[dc] = r.udp
		}
	}
	for _, a := range d.replicas {
		for _, b := range d.replicas {
			if a.udp != nil {
				if err = a.udp.SetPeer(b.dc, b.udp.LocalAddr()); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, r := range d.replicas {
		t := transports[r.dc]
		if tr != nil {
			t = &tracedTransport{Transport: t, t: tr, at: r.dc}
		}
		r.svc = core.NewService(r.dc, r.store, t, core.WithServiceTimeout(s.timeout))
		r.svc.EnsureGroups(d.place.Groups()...)
		h := r.svc.AsyncHandler()
		if tr != nil {
			h = tr.traceHandler(r.dc, h)
		}
		r.handler.Store(&h)
	}

	for i, dc := range s.clientAt {
		c := &client{name: fmt.Sprintf("%s-client-%d", dc, i)}
		d.clients = append(d.clients, c)
		var t network.Transport
		if s.sim {
			// Sim clients share their datacenter's endpoint, as
			// cluster.NewClient has them: only the origin sets the latency.
			t = transports[dc]
		} else {
			if c.udp, err = network.NewUDPAsync(c.name, "127.0.0.1:0", nil, nil); err != nil {
				return nil, err
			}
			for _, r := range d.replicas {
				if err = c.udp.SetPeer(r.dc, r.udp.LocalAddr()); err != nil {
					return nil, err
				}
			}
			t = c.udp
		}
		if tr != nil {
			t = &tracedTransport{Transport: t, t: tr, at: c.name, cur: &c.cur}
		}
		c.cl = core.NewClient(i, dc, t, core.Config{
			Protocol:  s.protocol,
			Timeout:   s.timeout,
			Seed:      seed*16 + int64(i) + 1, // never 0 (= seed from the clock)
			MasterFor: d.masterOf,
		})
		c.cl.Collector = d.coll
		c.cl.OnCommit = func(pos int64, t core.CommittedTxn) {
			d.rec.Record(history.Commit{ID: t.ID, Group: t.Group, Origin: t.Origin,
				ReadPos: t.ReadPos, Pos: pos, Reads: t.Reads, Writes: t.Writes})
		}
		c.kv = core.NewKV(c.cl, d.place)
	}
	return d, nil
}

// openStore gives r its store: the disk engine at fsync=batch on a fresh
// (or, after a crash, the same) data dir when durable, in memory otherwise.
func (d *deployment) openStore(r *replica) error {
	if !d.s.durable {
		r.store = kvstore.New()
		return nil
	}
	r.dir = filepath.Join(d.dataDir, r.dc)
	if r.paced == nil {
		r.paced = &pacedFS{FS: disk.OSFS()}
	}
	opts := disk.Options{Fsync: disk.SyncBatch, FS: r.paced}
	if d.tr != nil {
		r.fs = &tracedFS{FS: r.paced, t: d.tr, at: r.dc}
		opts.FS = r.fs
	}
	var err error
	if r.store, r.engine, err = disk.Open(r.dir, opts); err != nil {
		return fmt.Errorf("open %s: %w", r.dc, err)
	}
	if d.tr != nil {
		// disk.Open attached the engine; re-attach it behind the timing
		// decorator before the store is shared.
		r.store.AttachEngine(&tracedEngine{inner: r.engine, t: d.tr, at: r.dc})
	}
	return nil
}

// flushTime is how long every fsync of a durable workload takes. The file
// is really synced; a sync that returns sooner is held until flushTime has
// passed. The host's disk is shared: its fsync takes 0.4 ms in one minute
// and three times that in the next, and every timing of commit-durable went
// with it (a spread of 45-58 % between runs of the same code). Held to a
// constant above that range, the workload is paced by its flushes the way
// wan-contended is paced by its links: what moves its timings is how many
// fsyncs a commit waits for, one after the other, and the work around them,
// not which neighbour is writing. disk.fsync_raw_ms is the device's own time.
const flushTime = 3 * time.Millisecond

// pacedFS is the real file system with every fsync held to flushTime. It
// keeps the device's own fsync times for disk.fsync_raw_ms.
type pacedFS struct {
	disk.FS
	rawNanos, syncs atomic.Int64
}

func (f *pacedFS) OpenFile(name string, flag int, perm os.FileMode) (disk.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return file, err
	}
	return &pacedFile{File: file, fs: f}, nil
}

type pacedFile struct {
	disk.File
	fs *pacedFS
}

func (f *pacedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	raw := time.Since(start)
	f.fs.rawNanos.Add(int64(raw))
	f.fs.syncs.Add(1)
	time.Sleep(flushTime - raw)
	return err
}

// claim makes each group's designated master claim its first epoch, so the
// first measured commit does not pay for it.
func (d *deployment) claim(ctx context.Context) error {
	if d.s.protocol != core.Master {
		return nil
	}
	for _, g := range d.place.Groups() {
		cctx, cancel := context.WithTimeout(ctx, 20*d.s.timeout)
		_, err := d.replica(d.masterOf(g)).svc.ClaimMastership(cctx, g)
		cancel()
		if err != nil {
			return fmt.Errorf("claim %s: %w", g, err)
		}
	}
	return nil
}

// preload writes rows through the commit path, 50 rows of one group per
// transaction.
func (d *deployment) preload(ctx context.Context, rows [][2]string) error {
	const perTxn = 50
	byGroup := make(map[string][][2]string)
	for _, kv := range rows {
		g := d.place.GroupFor(kv[0])
		byGroup[g] = append(byGroup[g], kv)
	}
	cl := d.clients[0].cl
	for _, g := range d.place.Groups() {
		rows := byGroup[g]
		for len(rows) > 0 {
			n := min(perTxn, len(rows))
			tx, err := cl.Begin(ctx, g)
			if err != nil {
				return err
			}
			for _, kv := range rows[:n] {
				tx.Write(kv[0], kv[1])
			}
			res, err := tx.Commit(ctx)
			if err != nil || res.Status != stats.Committed {
				return fmt.Errorf("preload %s: %v %v", g, res.Status, err)
			}
			rows = rows[n:]
		}
	}
	return nil
}

// converge waits until every replica has applied what each group's master
// has: a follower serves reads at its own watermark, so a client reading at
// a follower right after the preload could otherwise miss the last rows.
func (d *deployment) converge(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*d.s.timeout)
	defer cancel()
	for _, g := range d.place.Groups() {
		head := d.replica(d.masterOf(g)).svc.LastApplied(g)
		for _, r := range d.replicas {
			for r.svc.LastApplied(g) < head {
				select {
				case <-ctx.Done():
					return fmt.Errorf("%s at %s: applied %d of %d: %w", g, r.dc, r.svc.LastApplied(g), head, ctx.Err())
				case <-time.After(time.Millisecond):
				}
			}
		}
	}
	return nil
}

// stopServing closes sockets, then services: nothing is in flight when the
// stores are inspected or closed.
func (d *deployment) stopServing() {
	for _, c := range d.clients {
		if c.udp != nil {
			c.udp.Close()
		}
	}
	if d.sim != nil {
		d.sim.Close()
	}
	for _, r := range d.replicas {
		if r.udp != nil {
			r.udp.Close()
		}
	}
	for _, r := range d.replicas {
		if r.svc != nil {
			r.svc.Close()
			r.svc = nil
		}
	}
}

// close stops everything and removes the data dirs. Safe on a partly built
// deployment and after stopServing.
func (d *deployment) close() {
	d.stopServing()
	for _, r := range d.replicas {
		if r.store != nil {
			r.store.Close()
		}
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}
