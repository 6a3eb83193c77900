package network

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"paxoscp/internal/deadline"
)

// Topology describes the datacenters and pairwise round-trip times of a
// deployment. RTTs default to LocalRTT for a pair that was never set.
type Topology struct {
	dcs []string
	rtt map[[2]string]time.Duration
}

// LocalRTT is the default round trip for intra-datacenter messages and for
// pairs without an explicit RTT.
const LocalRTT = 500 * time.Microsecond

// NewTopology creates a topology over the named datacenters.
func NewTopology(dcs ...string) *Topology {
	t := &Topology{rtt: make(map[[2]string]time.Duration)}
	t.dcs = append(t.dcs, dcs...)
	sort.Strings(t.dcs)
	return t
}

// DCs returns the datacenter names in stable order.
func (t *Topology) DCs() []string { return append([]string(nil), t.dcs...) }

// Has reports whether dc is part of the topology.
func (t *Topology) Has(dc string) bool {
	for _, d := range t.dcs {
		if d == dc {
			return true
		}
	}
	return false
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetRTT sets the symmetric round-trip time between datacenters a and b.
func (t *Topology) SetRTT(a, b string, d time.Duration) {
	t.rtt[pairKey(a, b)] = d
}

// RTT returns the round-trip time between a and b.
func (t *Topology) RTT(a, b string) time.Duration {
	if a == b {
		return LocalRTT
	}
	if d, ok := t.rtt[pairKey(a, b)]; ok {
		return d
	}
	return LocalRTT
}

// SimConfig tunes the simulated network.
type SimConfig struct {
	// Scale multiplies every latency (and nothing else). Experiments use a
	// fraction (e.g. 1/15) to compress the paper's wall-clock times while
	// preserving all latency ratios. 0 means 1.0.
	Scale float64
	// Jitter is the relative one-way latency perturbation, uniform in
	// [-Jitter, +Jitter]. 0 disables jitter.
	Jitter float64
	// LossRate is the probability that any single message (request or
	// response, counted independently) is silently dropped.
	LossRate float64
	// Seed seeds the simulation's RNG; 0 selects a time-based seed.
	Seed int64
}

// Sim is an in-process simulated multi-datacenter network. Create endpoints
// with EndpointAsync; all endpoints share the topology, fault state, and counters.
type Sim struct {
	topo *Topology
	cfg  SimConfig

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.RWMutex
	handlers map[string]AsyncHandler
	down     map[string]bool
	blocked  map[[2]string]bool
	closed   bool
	lossRate float64

	counters Counters
}

// NewSim creates a simulated network over the given topology.
func NewSim(topo *Topology, cfg SimConfig) *Sim {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Sim{
		topo:     topo,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		handlers: make(map[string]AsyncHandler),
		down:     make(map[string]bool),
		blocked:  make(map[[2]string]bool),
		lossRate: cfg.LossRate,
	}
}

// SetLossRate changes the message loss probability at runtime (fault
// injection: storms begin and end).
func (s *Sim) SetLossRate(rate float64) {
	s.mu.Lock()
	s.lossRate = rate
	s.mu.Unlock()
}

// EndpointAsync registers dc's request handler and returns its transport
// endpoint. The handler runs on the simulated delivery goroutine; like the
// UDP transport's read path, it decides what work moves elsewhere.
// Registering the same dc twice replaces the handler (used by recovery tests).
func (s *Sim) EndpointAsync(dc string, h AsyncHandler) Transport {
	if !s.topo.Has(dc) {
		panic(fmt.Sprintf("network: endpoint for unknown datacenter %q", dc))
	}
	s.mu.Lock()
	s.handlers[dc] = h
	s.mu.Unlock()
	return &simEndpoint{sim: s, dc: dc}
}

// SetDown marks a datacenter offline (true) or back online (false). Messages
// to or from a down datacenter are lost. Mirrors "Individual transaction
// tiers may go offline and come back online without notice" (§2.2).
func (s *Sim) SetDown(dc string, down bool) {
	s.mu.Lock()
	s.down[dc] = down
	s.mu.Unlock()
}

// Partition blocks all traffic between datacenters a and b in both
// directions. Heal with Unpartition.
func (s *Sim) Partition(a, b string) {
	s.mu.Lock()
	s.blocked[pairKey(a, b)] = true
	s.mu.Unlock()
}

// Unpartition restores traffic between a and b.
func (s *Sim) Unpartition(a, b string) {
	s.mu.Lock()
	delete(s.blocked, pairKey(a, b))
	s.mu.Unlock()
}

// Counters returns a snapshot of the network's message counters.
func (s *Sim) Counters() CounterSnapshot { return s.counters.Snapshot() }

// ResetCounters zeroes the message counters.
func (s *Sim) ResetCounters() { s.counters.Reset() }

// Close shuts the network down; all in-flight and future sends fail.
func (s *Sim) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Sim) randFloat() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// oneWay computes one-way delay between a and b with jitter and scale.
func (s *Sim) oneWay(a, b string) time.Duration {
	d := float64(s.topo.RTT(a, b)) / 2 * s.cfg.Scale
	if s.cfg.Jitter > 0 {
		d *= 1 + s.cfg.Jitter*(2*s.randFloat()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// dropped decides whether one message direction is lost.
func (s *Sim) dropped() bool {
	s.mu.RLock()
	rate := s.lossRate
	s.mu.RUnlock()
	return rate > 0 && s.randFloat() < rate
}

func (s *Sim) state(from, to string) (h AsyncHandler, lost bool, closed bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, true
	}
	if s.down[from] || s.down[to] || s.blocked[pairKey(from, to)] {
		return nil, true, false
	}
	return s.handlers[to], false, false
}

type simEndpoint struct {
	sim *Sim
	dc  string
}

func (e *simEndpoint) Local() string   { return e.dc }
func (e *simEndpoint) Peers() []string { return e.sim.topo.DCs() }
func (e *simEndpoint) Close() error    { return nil }

// Send implements Transport. A lost message (loss injection, outage, or
// partition) blocks until the context deadline and then reports ErrTimeout:
// "either the message arrives before a known timeout or it is lost" (§2.2).
//
// Delivery is detached from the sender: once Send puts a request on the
// wire, it reaches the peer (and takes effect there) even if the sender
// stops waiting — exactly like a real datagram. Only the sender's wait is
// bounded by ctx, and Send keeps no reference to ctx once it returns.
func (e *simEndpoint) Send(ctx context.Context, to string, req Message) (Message, error) {
	s := e.sim
	if !s.topo.Has(to) {
		return Message{}, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if _, ok := ctx.Deadline(); !ok {
		ph := deadline.Start(ctx, DefaultTimeout)
		defer ph.End()
		ctx = ph
	}

	s.counters.Sent(req.Kind)
	respCh := make(chan Message, 1)
	errCh := make(chan error, 1)
	go func() {
		h, lost, closed := s.state(e.dc, to)
		switch {
		case closed:
			errCh <- ErrClosed
			return
		case lost || h == nil || s.dropped():
			s.counters.Lost(req.Kind)
			return // silently lost; the sender times out
		}
		// Request flight.
		time.Sleep(s.oneWay(e.dc, to))
		// The link or peer may have failed while the message was in flight.
		if h, lost, closed = s.state(e.dc, to); closed || lost || h == nil {
			s.counters.Lost(req.Kind)
			return
		}
		// Deliver through the async handler; the delivery goroutine waits for
		// the reply even when the handler hands the work to another goroutine.
		replyCh := make(chan Message, 1)
		h(e.dc, req, func(m Message) {
			select {
			case replyCh <- m:
			default: // extra replies are dropped
			}
		})
		resp := <-replyCh
		s.counters.Sent(resp.Kind)

		// Response flight.
		if _, lost, closed := s.state(e.dc, to); closed || lost || s.dropped() {
			s.counters.Lost(resp.Kind)
			return
		}
		time.Sleep(s.oneWay(e.dc, to))
		respCh <- resp
	}()

	select {
	case resp := <-respCh:
		return resp, nil
	case err := <-errCh:
		return Message{}, err
	case <-ctx.Done():
		return Message{}, ErrTimeout
	}
}
