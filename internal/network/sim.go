package network

import (
	"container/heap"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"
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

// Sim is an in-process simulated multi-datacenter network: a datagram
// switch under the UDP transport. EndpointAsync returns a *UDP whose conn is
// a port on the switch instead of a socket, so a Sim deployment runs the
// codec, the envelope and the pending-call table that a socket deployment
// runs. The switch applies the topology's delay and jitter, loss, outages
// and partitions to the encoded datagrams, and counts them by kind; all
// endpoints share the topology, fault state, and counters.
type Sim struct {
	topo *Topology
	cfg  SimConfig

	mu       sync.Mutex
	rng      *rand.Rand
	down     map[string]bool
	blocked  map[[2]string]bool
	lossRate float64
	closed   bool

	// Datacenter i of the topology has switch address dcNet:i; a datagram
	// sent there goes to the datacenter's latest endpoint. Every endpoint
	// has an address of its own, where its responses come back.
	dcAddrs map[string]netip.AddrPort
	latest  map[string]*port
	ports   map[netip.AddrPort]*port
	nports  uint32

	// flights is the delivery heap: every datagram in flight, earliest due
	// first. One timer, armed for the earliest, wakes the one goroutine
	// that delivers them (run); stop ends it, and done says it has.
	flights flights
	timer   *time.Timer
	stop    chan struct{}
	done    chan struct{}

	// sent and lost tally datagrams by the kind in their envelope header.
	sent, lost map[Kind]int64
}

// dcNet is the switch's address for datacenters; endpoints' addresses are
// elsewhere in 10/8.
var dcNet = netip.AddrFrom4([4]byte{10, 0, 0, 0})

// NewSim creates a simulated network over the given topology.
func NewSim(topo *Topology, cfg SimConfig) *Sim {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Sim{
		topo:     topo,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		down:     make(map[string]bool),
		blocked:  make(map[[2]string]bool),
		lossRate: cfg.LossRate,
		dcAddrs:  make(map[string]netip.AddrPort),
		latest:   make(map[string]*port),
		ports:    make(map[netip.AddrPort]*port),
		sent:     make(map[Kind]int64),
		lost:     make(map[Kind]int64),
	}
	for i, dc := range topo.dcs {
		s.dcAddrs[dc] = netip.AddrPortFrom(dcNet, uint16(i))
	}
	s.timer = time.NewTimer(time.Hour)
	s.timer.Stop()
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.run()
	return s
}

// run delivers the flights as they fall due, until Close.
func (s *Sim) run() {
	defer close(s.done)
	for {
		select {
		case <-s.timer.C:
			s.deliver()
		case <-s.stop:
			return
		}
	}
}

// SetLossRate changes the message loss probability at runtime (fault
// injection: storms begin and end).
func (s *Sim) SetLossRate(rate float64) {
	s.mu.Lock()
	s.lossRate = rate
	s.mu.Unlock()
}

// EndpointAsync opens an endpoint for dc on the switch and returns its
// transport: a *UDP whose read loop serves requests through h, as a
// socket's does. Requests addressed to dc go to its latest endpoint, so
// registering the same dc twice replaces the handler (used by recovery
// tests), while each endpoint gets the responses to its own requests.
// Unlike a socket's, a request an endpoint sends to its own datacenter
// crosses the switch, at LocalRTT, subject to outages and loss, and is
// counted: the message counts and the calibrated WAN runs include it.
func (s *Sim) EndpointAsync(dc string, h AsyncHandler) Transport {
	if !s.topo.Has(dc) {
		panic(fmt.Sprintf("network: endpoint for unknown datacenter %q", dc))
	}
	s.mu.Lock()
	s.nports++
	n := s.nports
	p := &port{sim: s, dc: dc, queue: make(chan *flight, portQueue),
		addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1 + byte(n>>16), byte(n >> 8), byte(n)}), 1)}
	p.u = newUDP(dc, p, h, false, s.dcAddrs)
	p.u.wg.Add(1)
	go p.serve()
	closed := s.closed
	if closed {
		close(p.queue)
	} else {
		s.ports[p.addr], s.latest[dc] = p, p
	}
	s.mu.Unlock()
	if closed {
		p.u.Close()
	}
	return p.u
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
func (s *Sim) Counters() CounterSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CounterSnapshot{Sent: maps.Clone(s.sent), Lost: maps.Clone(s.lost)}
}

// ResetCounters zeroes the message counters.
func (s *Sim) ResetCounters() {
	s.mu.Lock()
	clear(s.sent)
	clear(s.lost)
	s.mu.Unlock()
}

// Close shuts the network down: datagrams in flight are dropped, and every
// endpoint is closed, so its pending calls and later Sends fail with
// ErrClosed.
func (s *Sim) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.timer.Stop()
	s.flights = nil
	open := make([]*UDP, 0, len(s.ports))
	for _, p := range s.ports {
		open = append(open, p.u)
	}
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	for _, u := range open {
		u.Close()
	}
}

// oneWay computes one-way delay between a and b with jitter and scale.
// Caller holds s.mu.
func (s *Sim) oneWay(a, b string) time.Duration {
	d := float64(s.topo.RTT(a, b)) / 2 * s.cfg.Scale
	if s.cfg.Jitter > 0 {
		d *= 1 + s.cfg.Jitter*(2*s.rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// route resolves a switch address to the datacenter it names and the
// endpoint a datagram sent there reaches now (nil if none). Caller holds
// s.mu.
func (s *Sim) route(to netip.AddrPort) (dc string, p *port) {
	if to.Addr() == dcNet {
		if i := int(to.Port()); i < len(s.topo.dcs) {
			dc = s.topo.dcs[i]
		}
		return dc, s.latest[dc]
	}
	if p = s.ports[to]; p != nil {
		dc = p.dc
	}
	return dc, p
}

// cut reports whether traffic between a and b is lost to an outage or a
// partition. Caller holds s.mu.
func (s *Sim) cut(a, b string) bool {
	return s.down[a] || s.down[b] || s.blocked[pairKey(a, b)]
}

// send puts one datagram from p on the switch: counted, then lost, or
// copied into the delivery heap at its one-way delay. One over SendLimit is
// refused, as a socket refuses it.
func (s *Sim) send(from *port, b []byte, to netip.AddrPort) (int, error) {
	kind := envelopeKind(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, net.ErrClosed
	}
	s.sent[kind]++
	if len(b) > SendLimit {
		s.lost[kind]++
		return 0, tooLong(len(b))
	}
	dc, _ := s.route(to)
	if dc == "" || s.cut(from.dc, dc) || s.lossRate > 0 && s.rng.Float64() < s.lossRate {
		s.lost[kind]++
		return len(b), nil
	}
	f := flightPool.Get().(*flight)
	f.at, f.from, f.to = time.Now().Add(s.oneWay(from.dc, dc)), from, to
	f.buf = append(f.buf[:0], b...)
	if heap.Push(&s.flights, f); s.flights[0] == f {
		s.timer.Reset(time.Until(f.at))
	}
	return len(b), nil
}

// deliver runs when the timer fires: it hands every datagram now due to the
// port it is addressed to, or loses it — to an outage or partition that
// began in flight, an endpoint gone, or a full queue — and re-arms the
// timer for the next.
func (s *Sim) deliver() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for len(s.flights) > 0 && !s.flights[0].at.After(now) {
		f := heap.Pop(&s.flights).(*flight)
		if dc, p := s.route(f.to); p != nil && !s.cut(f.from.dc, dc) {
			select {
			case p.queue <- f:
				continue
			default: // the endpoint's read loop is behind: its queue is full
			}
		}
		s.lost[envelopeKind(f.buf)]++
		flightPool.Put(f)
	}
	if len(s.flights) > 0 {
		s.timer.Reset(s.flights[0].at.Sub(now))
	}
}

// flight is one datagram on the switch, due at at. Flights are pooled.
type flight struct {
	at   time.Time
	from *port
	to   netip.AddrPort
	buf  []byte
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

// flights is a heap.Interface over the flights in the air, by due time.
type flights []*flight

func (h flights) Len() int           { return len(h) }
func (h flights) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h flights) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *flights) Push(x any)        { *h = append(*h, x.(*flight)) }
func (h *flights) Pop() any {
	old := *h
	f := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return f
}

// portQueue bounds the datagrams delivered to a port and not yet read, as a
// socket's receive buffer does; past it, the switch drops them.
const portQueue = 1024

// port is one endpoint's datagram conn on the switch. Its read loop
// (serve) takes what the switch delivers to queue.
type port struct {
	sim   *Sim
	dc    string
	addr  netip.AddrPort
	u     *UDP
	queue chan *flight
}

// serve is the port's read loop: it hands each delivered datagram to the
// transport straight from its flight, until the port closes. It keeps no
// read buffer on its stack, unlike a socket's loop (UDP.readLoop): in a Sim
// deployment, 64 KiB frames in every endpoint's loop raise the runtime's
// starting stack for every goroutine too far, and wan-contended's commit
// p50 went from 5.1 to 5.9 ms with them.
func (p *port) serve() {
	defer p.u.wg.Done()
	for f := range p.queue {
		p.u.read.Add(1)
		p.u.handleDatagram(f.buf, f.from.addr)
		flightPool.Put(f)
	}
}

func (p *port) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	return p.sim.send(p, b, to)
}

func (p *port) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(p.addr) }

// Close takes the port off the switch and drops what it has not read, so
// its read loop ends, as a closed socket's does.
func (p *port) Close() error {
	s := p.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ports[p.addr] != p {
		return nil
	}
	delete(s.ports, p.addr)
	if s.latest[p.dc] == p {
		delete(s.latest, p.dc)
	}
	for len(p.queue) > 0 {
		select {
		case f := <-p.queue:
			flightPool.Put(f)
		default: // the read loop took it
		}
	}
	close(p.queue)
	return nil
}
