package network

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
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
// through the pending-correlation channel to a waiting Send).
//
// A request addressed to the transport's own name never reaches the socket:
// Send hands it to the handler directly (see Send).
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
	names   []string
	pending map[uint64]chan Message
	closed  bool

	nextID atomic.Uint64
	wg     sync.WaitGroup

	// written and read count the datagrams this socket sent and received.
	written, read atomic.Int64
}

// NewUDP binds a UDP socket on bindAddr (e.g. "127.0.0.1:7001") for the
// datacenter named local and serves each inbound request in its own
// goroutine through the synchronous handler h. peers maps every datacenter
// name (including local) to its UDP address.
func NewUDP(local, bindAddr string, peers map[string]string, h Handler) (*UDP, error) {
	var ah AsyncHandler
	if h != nil {
		ah = func(from string, req Message, reply func(Message)) {
			go func() { reply(h(from, req)) }()
		}
	}
	return NewUDPAsync(local, bindAddr, peers, ah)
}

// NewUDPAsync binds a UDP socket like NewUDP but serves inbound requests
// through an AsyncHandler, which the read loop invokes directly: the handler
// decides what runs inline and what moves to another goroutine. Peer
// addresses are resolved eagerly so a bad address fails fast.
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
		pending: make(map[uint64]chan Message),
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
		// the waiting sender through the pending channel.
		env, err := decodeEnvelope(data, nil)
		if err != nil {
			return
		}
		u.mu.RLock()
		ch := u.pending[env.ID]
		u.mu.RUnlock()
		if ch != nil {
			select {
			case ch <- env.Msg:
			default: // duplicate or late response; drop
			}
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
		u.write(out, raddr) // best effort; loss is the failure model
		*bp = out
		putEncBuf(bp)
	}
	if u.handler == nil {
		reply(Status(false, "no handler"))
		return
	}
	u.handler(env.From, env.Msg, reply)
}

// write sends one datagram and counts it.
func (u *UDP) write(b []byte, addr netip.AddrPort) error {
	_, err := u.writeTo(b, addr)
	if err == nil {
		u.written.Add(1)
	}
	return err
}

// Send implements Transport. A request addressed to the transport's own name
// is a call, not a datagram: Send invokes the handler on the caller's
// goroutine under the read loop's contract — the handler must not block, req
// (the caller's own Message, backing arrays included) is the handler's to
// read until it replies, and a reply that comes after the caller's deadline
// is dropped. The caller sees what a peer's sender sees: the reply, or
// ErrTimeout at the deadline. A transport without a handler (a client's
// socket) has nobody to call and sends to its own address like any other.
func (u *UDP) Send(ctx context.Context, to string, req Message) (Message, error) {
	u.mu.RLock()
	addr, ok := u.peers[to]
	closed := u.closed
	u.mu.RUnlock()
	if closed {
		return Message{}, ErrClosed
	}
	if !ok {
		return Message{}, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}

	if to == u.local && u.handler != nil {
		got := make(chan Message, 1)
		u.handler(u.local, req, func(resp Message) {
			select {
			case got <- resp:
			default: // extra reply; the first one wins
			}
		})
		select {
		case resp := <-got:
			return resp, nil
		case <-ctx.Done():
			return Message{}, ErrTimeout
		}
	}

	id := u.nextID.Add(1)
	ch := make(chan Message, 1)
	u.mu.Lock()
	u.pending[id] = ch
	u.mu.Unlock()
	defer func() {
		u.mu.Lock()
		delete(u.pending, id)
		u.mu.Unlock()
	}()

	bp := getEncBuf()
	out := appendEnvelope((*bp)[:0], envelope{ID: id, From: u.local, Msg: req})
	err := u.write(out, addr)
	*bp = out
	putEncBuf(bp)
	if err != nil {
		// Treat send failure like loss: wait out the timeout so callers see
		// uniform behaviour, unless the context is already done.
		<-ctx.Done()
		return Message{}, ErrTimeout
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return Message{}, ErrTimeout
	}
}

// Close shuts the socket down and waits for the read loop to exit.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
