package network

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"paxoscp/internal/deadline"
)

// envelope wraps a Message on the UDP wire with correlation metadata.
type envelope struct {
	ID   uint64
	From string
	Resp bool
	Msg  Message
}

// UDP is a real UDP transport: one socket per datacenter, binary datagrams
// (codec.go), no retransmission or acknowledgement below the request/response
// layer. The paper's prototype used UDP with a 2-second loss-detection
// timeout; this transport reproduces those semantics faithfully — a dropped
// datagram in either direction simply surfaces as ErrTimeout.
//
// The read loop is allocation-free in steady state: datagrams are read with
// ReadFromUDPAddrPort (no per-packet address allocation), requests decode
// into pooled scratch that lives until the handler replies, and replies
// encode into pooled buffers. Responses to our own requests are decoded with
// fresh allocations because they outlive the loop iteration (they travel
// through the pending-call table to a waiting Send).
//
// A request addressed to the transport's own name never reaches the socket:
// Send hands it to the handler directly (see Send), and the handler's reply
// reaches the waiting Send through the same table.
type UDP struct {
	local   string
	conn    *net.UDPConn
	handler AsyncHandler
	// writeTo sends one datagram; a hook so tests can pin the serve path's
	// allocation profile without a live peer.
	writeTo func(b []byte, addr netip.AddrPort) (int, error)

	mu    sync.RWMutex
	peers map[string]netip.AddrPort
	// names is the sorted key set of peers, rebuilt (never edited in place)
	// when a peer is added, so Peers can hand it out without a copy.
	names []string
	// pending is the pending-call table: every Send in flight, by request ID.
	// A response is delivered under the read lock; Send removes its entry
	// under the write lock before it pools the call (deliver, hangUp).
	pending map[uint64]*call
	closed  bool

	nextID atomic.Uint64
	wg     sync.WaitGroup

	// written and read count the datagrams this socket sent and received.
	written, read atomic.Int64
}

// NewUDPAsync binds a UDP socket on bindAddr (e.g. "127.0.0.1:7001") for the
// datacenter named local and serves inbound requests through h, which the
// read loop invokes directly: the handler decides what runs inline and what
// moves to another goroutine. A nil h makes a client's socket, which refuses
// every request. peers maps every datacenter name (including local) to its
// UDP address; addresses are resolved eagerly so a bad one fails fast.
func NewUDPAsync(local, bindAddr string, peers map[string]string, h AsyncHandler) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("network: bind %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %q: %w", bindAddr, err)
	}
	u := &UDP{
		local:   local,
		conn:    conn,
		handler: h,
		peers:   make(map[string]netip.AddrPort, len(peers)),
		pending: make(map[uint64]*call),
	}
	u.writeTo = u.conn.WriteToUDPAddrPort
	for name, addr := range peers {
		a, err := resolveAddrPort(addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("network: peer %s=%q: %w", name, addr, err)
		}
		u.setPeerLocked(name, a)
	}
	u.wg.Add(1)
	go u.readLoop()
	return u, nil
}

// resolveAddrPort resolves a host:port string to a netip.AddrPort, going
// through the resolver for hostnames.
func resolveAddrPort(addr string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		return ap, nil
	}
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return a.AddrPort(), nil
}

// LocalAddr returns the bound socket address (useful with port 0 in tests).
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// SetPeer adds or updates a peer address after construction.
func (u *UDP) SetPeer(name, addr string) error {
	a, err := resolveAddrPort(addr)
	if err != nil {
		return fmt.Errorf("network: peer %s=%q: %w", name, addr, err)
	}
	u.mu.Lock()
	u.setPeerLocked(name, a)
	u.mu.Unlock()
	return nil
}

// setPeerLocked records name's address; a new name gets a fresh sorted list,
// so a slice Peers returned earlier is never written to. Caller holds u.mu
// (or is the constructor).
func (u *UDP) setPeerLocked(name string, a netip.AddrPort) {
	if _, known := u.peers[name]; !known {
		names := make([]string, 0, len(u.names)+1)
		names = append(append(names, u.names...), name)
		sort.Strings(names)
		u.names = names
	}
	u.peers[name] = a
}

func (u *UDP) Local() string { return u.local }

// Peers returns the peer names in sorted order. The slice is shared between
// callers — a position's four phases each ask for it — and must not be
// modified.
func (u *UDP) Peers() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.names
}

// Datagrams returns how many datagrams this transport has written to and read
// from its socket since it was opened. A self-addressed Send moves none.
func (u *UDP) Datagrams() (written, read int64) {
	return u.written.Load(), u.read.Load()
}

// maxDatagram bounds inbound datagram size; combined entries for the paper's
// workloads are far below this.
const maxDatagram = 64 * 1024

func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, raddr, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		u.read.Add(1)
		u.handleDatagram(buf[:n], raddr)
	}
}

// handleDatagram processes one inbound datagram: responses resolve a pending
// Send, requests go to the handler. Malformed datagrams are dropped, as real
// UDP services must.
func (u *UDP) handleDatagram(data []byte, raddr netip.AddrPort) {
	if len(data) < 2 || data[0] != wireVersion {
		return
	}
	if data[1]&envFlagResp != 0 {
		// Response: decoded without scratch because the message escapes to
		// the waiting sender through the pending-call table.
		if env, err := decodeEnvelope(data, nil); err == nil {
			u.deliver(env.ID, result{msg: env.Msg})
		}
		return
	}
	// Inbound request: decode into pooled scratch that stays alive until the
	// handler replies.
	dec := decoderPool.Get().(*decoder)
	env, err := decodeEnvelope(data, dec)
	if err != nil {
		decoderPool.Put(dec)
		return
	}
	u.serve(env, dec, raddr)
}

// serve hands one decoded request to the handler. The reply callback is
// idempotent (extra calls are dropped), returns the request's decode scratch
// to the pool, and sends the response from a pooled encode buffer.
func (u *UDP) serve(env envelope, dec *decoder, raddr netip.AddrPort) {
	id := env.ID
	var replied atomic.Bool
	reply := func(resp Message) {
		if !replied.CompareAndSwap(false, true) {
			return
		}
		decoderPool.Put(dec)
		bp := getEncBuf()
		out := appendEnvelope((*bp)[:0], envelope{ID: id, From: u.local, Resp: true, Msg: resp})
		u.write(out, raddr)
		*bp = out
		putEncBuf(bp)
	}
	if u.handler == nil {
		reply(Status(false, "no handler"))
		return
	}
	u.handler(env.From, env.Msg, reply)
}

// write sends one datagram and counts it. A failed write is loss, the
// failure model: nobody is told.
func (u *UDP) write(b []byte, addr netip.AddrPort) {
	if _, err := u.writeTo(b, addr); err == nil {
		u.written.Add(1)
	}
}

// call is one Send waiting for its response: a pooled entry of the
// pending-call table. Its channel has room for one result; a second is
// dropped, so the first response (or Close's ErrClosed) wins.
type call struct {
	ch chan result
}

// result is what a pending call receives: a response, or ErrClosed.
type result struct {
	msg Message
	err error
}

var calls = sync.Pool{New: func() any { return &call{ch: make(chan result, 1)} }}

// deliver hands res to the Send waiting on id, if it still waits. The
// hand-off happens under the table's read lock and hangUp removes an entry
// under the write lock before it pools the call, so a late or duplicate
// response can never reach the call's next use.
func (u *UDP) deliver(id uint64, res result) {
	u.mu.RLock()
	if c := u.pending[id]; c != nil {
		select {
		case c.ch <- res:
		default: // duplicate or late response; drop
		}
	}
	u.mu.RUnlock()
}

// hangUp removes the call registered under id and pools it, emptied: no
// response can arrive once the entry is gone, and the drained channel pins
// no payload.
func (u *UDP) hangUp(id uint64, c *call) {
	u.mu.Lock()
	delete(u.pending, id)
	u.mu.Unlock()
	select {
	case <-c.ch:
	default:
	}
	calls.Put(c)
}

// Send implements Transport. A request addressed to the transport's own name
// is a call, not a datagram: Send invokes the handler on the caller's
// goroutine under the read loop's contract — the handler must not block, req
// (the caller's own Message, backing arrays included) is the handler's to
// read until it replies, and a reply that comes after the caller's deadline
// is dropped. The caller sees what a peer's sender sees: the reply, or
// ErrTimeout at the deadline. A transport without a handler (a client's
// socket) has nobody to call and sends to its own address like any other.
//
// Either way the call waits in the pending-call table, where a response is
// delivered by request ID, and where Close fails it with ErrClosed at once.
// Send keeps no reference to ctx once it returns.
func (u *UDP) Send(ctx context.Context, to string, req Message) (Message, error) {
	id := u.nextID.Add(1)
	c := calls.Get().(*call)
	u.mu.Lock()
	addr, ok := u.peers[to]
	closed := u.closed
	if ok && !closed {
		u.pending[id] = c
	}
	u.mu.Unlock()
	if closed || !ok {
		calls.Put(c)
		if closed {
			return Message{}, ErrClosed
		}
		return Message{}, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	defer u.hangUp(id, c)
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		ph := deadline.Start(ctx, DefaultTimeout)
		defer ph.End()
		ctx = ph
	}

	if to == u.local && u.handler != nil {
		u.handler(u.local, req, func(resp Message) { u.deliver(id, result{msg: resp}) })
	} else {
		bp := getEncBuf()
		out := appendEnvelope((*bp)[:0], envelope{ID: id, From: u.local, Msg: req})
		// A failed write is loss: the call waits out its deadline like a
		// lost datagram's. A write failed by Close is not: Close has
		// already failed the call, so the wait below ends at once.
		u.write(out, addr)
		*bp = out
		putEncBuf(bp)
	}
	select {
	case r := <-c.ch:
		return r.msg, r.err
	case <-ctx.Done():
		return Message{}, ErrTimeout
	}
}

// Close shuts the socket down, fails every pending call with ErrClosed, and
// waits for the read loop to exit.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	for _, c := range u.pending {
		select {
		case c.ch <- result{err: ErrClosed}:
		default: // already answered
		}
	}
	u.mu.Unlock()
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
