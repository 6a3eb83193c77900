package network

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"strings"
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

// UDP is the request/response transport: one datagram conn per endpoint —
// a socket (NewUDPAsync) or a port on a Sim switch (Sim.EndpointAsync) —
// binary datagrams (codec.go), no retransmission or acknowledgement below
// the request/response layer. The paper's prototype used UDP with a
// 2-second loss-detection timeout; this transport reproduces those
// semantics faithfully — a dropped datagram in either direction simply
// surfaces as ErrTimeout.
//
// The read loop is allocation-free in steady state: datagrams are read with
// ReadFromUDPAddrPort (no per-packet address allocation), requests decode
// into pooled scratch that lives until the handler replies, and replies
// encode into pooled buffers. Responses to our own requests are decoded with
// fresh allocations because they outlive the loop iteration (they travel
// through the pending-call table to the call's done).
//
// Every request in flight is one entry of the pending-call table, and there
// is one way in: Go, which calls its done with the response. Send is Go plus
// a wait on a pooled channel.
//
// A request a socket's transport addresses to its own name never reaches the
// socket: Go hands it to the handler directly, and the handler's reply
// reaches the call through the same table. A transport on a Sim switch
// (Sim.EndpointAsync) sends it across the switch like any other.
type UDP struct {
	local   string
	conn    datagramConn
	handler AsyncHandler
	// selfCall makes a request to local a call to handler rather than a
	// datagram: true on a socket, false on a Sim switch.
	selfCall bool
	// writeTo sends one datagram; a hook so tests can pin the serve path's
	// allocation profile without a live peer.
	writeTo func(b []byte, addr netip.AddrPort) (int, error)

	mu    sync.RWMutex
	peers map[string]netip.AddrPort
	// names is the sorted key set of peers, rebuilt (never edited in place)
	// when a peer is added, so Peers can hand it out without a copy.
	names []string
	// pending is the pending-call table: every call in flight, by request ID.
	// Whoever takes an entry out — the response's deliver, the caller's
	// hang-up, Close — does so under the write lock, so exactly one of them
	// ends each call.
	pending map[uint64]*pendingCall
	closed  bool

	nextID atomic.Uint64
	wg     sync.WaitGroup

	// written and read count the datagrams this conn sent and received.
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
	u := newUDP(local, conn, h, true, nil)
	u.wg.Add(1)
	go u.readLoop(conn)
	for name, addr := range peers {
		if err := u.SetPeer(name, addr); err != nil {
			u.Close()
			return nil, err
		}
	}
	return u, nil
}

// ParsePeers parses a peer list, "name=addr,name=addr,...", into the map
// NewUDPAsync takes. It refuses an entry without a name or an address and a
// name given twice: keeping one of two addresses would drop a datacenter from
// the process's topology without a word.
func ParsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" || strings.Contains(addr, "=") {
			return nil, fmt.Errorf("network: bad peer entry %q (want name=addr)", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("network: peer %q named twice", name)
		}
		out[name] = addr
	}
	return out, nil
}

// datagramConn is what a UDP transport writes datagrams through: a socket
// (*net.UDPConn), or a port on a Sim switch. What it reads comes from the
// socket's read loop (readLoop) or the port's (port.serve).
type datagramConn interface {
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	LocalAddr() net.Addr
	Close() error
}

// newUDP builds a transport over conn; the caller starts its read loop.
func newUDP(local string, conn datagramConn, h AsyncHandler, selfCall bool, peers map[string]netip.AddrPort) *UDP {
	u := &UDP{
		local:    local,
		conn:     conn,
		handler:  h,
		selfCall: selfCall,
		peers:    make(map[string]netip.AddrPort, len(peers)),
		pending:  make(map[uint64]*pendingCall),
	}
	u.writeTo = conn.WriteToUDPAddrPort
	for name, a := range peers {
		u.setPeerLocked(name, a)
	}
	return u
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

// LocalAddr returns the bound address (useful with port 0 in tests).
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
// from its conn since it was opened. A self-addressed Send on a socket moves
// none.
func (u *UDP) Datagrams() (written, read int64) {
	return u.written.Load(), u.read.Load()
}

// maxDatagram is the read buffer's size: no datagram is longer.
const maxDatagram = 64 * 1024

// SendLimit is the longest datagram the transport writes: the IPv4 UDP
// payload maximum, 65 535 bytes less the 8-byte UDP and 20-byte IP headers.
// Nothing longer is written, because a socket refuses it and a datagram's
// loss would cost its sender a timeout: Send fails at once, and a reply is
// replaced by a refusal, each naming the size (DESIGN.md §6).
const SendLimit = 65507

// PayloadRoom is the longest Payload a message of group between peers named
// at most as long as name can carry and still be sent: SendLimit less the
// envelope, the payload's length prefix and every other field at its widest,
// its strings but Group empty — the shape of the messages that carry a log
// entry (accept, apply, a vote in a prepare's reply, a catch-up fetch's
// reply). The master's pipeline builds no entry longer (DESIGN.md §8).
func PayloadRoom(group, name string) int {
	const wide = math.MinInt64 // the widest varint
	m := Message{Kind: KindAccept, Group: group, Pos: wide, Ballot: wide, TS: wide, Epoch: wide}
	frame := len(appendEnvelope(nil, envelope{ID: math.MaxUint64, From: name, Msg: m}))
	// The empty payload's one-byte length prefix becomes at most three.
	return SendLimit - frame - 2
}

// tooLong is the error of an n-byte datagram, over SendLimit.
func tooLong(n int) error {
	return fmt.Errorf("network: datagram of %d bytes over the %d-byte limit", n, SendLimit)
}

// readLoop serves the socket's datagrams until it closes.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.wg.Done()
	// buf lives on this goroutine's stack, and must: the runtime starts a
	// goroutine at the average stack size it last scanned, and these 64 KiB
	// frames are what let a service's per-request goroutines start big
	// enough not to grow. With buf on the heap, commit-mem spent ~5 % of
	// its CPU copying stacks and lost ~15 % of its throughput.
	buf := make([]byte, maxDatagram)
	for {
		n, raddr, err := conn.ReadFromUDPAddrPort(buf)
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
			u.deliver(env.ID, env.Msg, nil)
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

// serve hands one decoded request to the handler, with a pooled replier's
// reply as the callback.
func (u *UDP) serve(env envelope, dec *decoder, raddr netip.AddrPort) {
	r := u.replier(env.ID, dec, raddr)
	if u.handler == nil {
		r.reply(Status(false, "no handler"))
		return
	}
	u.handler(env.From, env.Msg, r.reply)
}

// replier takes a pooled replier for request id: one from raddr decoded into
// dec, or, with dec nil, one of the transport's own calls (Go).
func (u *UDP) replier(id uint64, dec *decoder, raddr netip.AddrPort) *replier {
	r, _ := repliers.Get().(*replier)
	if r == nil {
		r = new(replier)
		r.reply = r.send
	}
	r.u, r.dec, r.id, r.raddr = u, dec, id, raddr
	r.replied.Store(false)
	return r
}

// replier answers one inbound request. Repliers are pooled, and reply is
// bound to send once, when the replier is first made, so serving a request
// builds no closure.
type replier struct {
	u       *UDP
	dec     *decoder // nil for a request the transport sent itself
	id      uint64
	raddr   netip.AddrPort
	replied atomic.Bool
	reply   func(Message) // r.send
}

var repliers sync.Pool

// send is the reply callback. The first call pools the replier and answers:
// a request the transport sent itself by delivering the response to its
// call; one from a peer by returning the request's decode scratch to the
// pool and sending the response from a pooled encode buffer — or, if it
// encodes over SendLimit, a refusal naming its size. A later call is dropped
// until the replier is handed out again (AsyncHandler: reply exactly once).
func (r *replier) send(resp Message) {
	if !r.replied.CompareAndSwap(false, true) {
		return
	}
	u, dec, id := r.u, r.dec, r.id
	r.u, r.dec = nil, nil
	if dec == nil {
		repliers.Put(r)
		u.deliver(id, resp, nil)
		return
	}
	decoderPool.Put(dec)
	bp := getEncBuf()
	out := appendEnvelope((*bp)[:0], envelope{ID: id, From: u.local, Resp: true, Msg: resp})
	if err := u.write(out, r.raddr); err != nil {
		out = appendEnvelope(out[:0], envelope{ID: id, From: u.local, Resp: true, Msg: Status(false, err.Error())})
		u.write(out, r.raddr)
	}
	*bp = out
	putEncBuf(bp)
	repliers.Put(r)
}

// write sends one datagram and counts it. One over SendLimit is not sent:
// write returns its error. A failed write is loss, the failure model: nobody
// is told.
func (u *UDP) write(b []byte, addr netip.AddrPort) error {
	if len(b) > SendLimit {
		return tooLong(len(b))
	}
	if _, err := u.writeTo(b, addr); err == nil {
		u.written.Add(1)
	}
	return nil
}

// pendingCall is one entry of the pending-call table: the done of a call Go
// started. Entries are pooled. Whoever takes one out of the table — deliver,
// a hang-up, Close — pools it once its done has run or is known never to.
type pendingCall struct {
	done func(Message, error)
	// firing is the ID of the call whose done is running, 0 when none: a
	// hang-up that finds its entry already taken waits that done out.
	firing atomic.Uint64
}

var calls = sync.Pool{New: func() any { return new(pendingCall) }}

// result is one call's outcome, as a waiting Send receives it.
type result struct {
	msg Message
	err error
}

// waiter is a Send waiting for its call: a pooled channel with room for the
// one result, and put, the call's done, bound to it once.
type waiter struct {
	ch  chan result
	put func(Message, error) // w.deliver
}

func (w *waiter) deliver(msg Message, err error) { w.ch <- result{msg, err} }

var waiters = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan result, 1)}
	w.put = w.deliver
	return w
}}

// deliver ends call id with resp or err, if it is still in the table: it
// takes the entry out under the write lock — so a late or duplicate response,
// a hang-up and Close find it gone — and runs its done outside the lock.
func (u *UDP) deliver(id uint64, resp Message, err error) {
	u.mu.Lock()
	p := u.pending[id]
	if p != nil {
		delete(u.pending, id)
		p.firing.Store(id)
	}
	u.mu.Unlock()
	if p != nil {
		p.fire(resp, err)
	}
}

// fire runs the done of a call taken out of the table, then pools p.
func (p *pendingCall) fire(resp Message, err error) {
	done := p.done
	p.done = nil
	done(resp, err)
	p.firing.Store(0)
	calls.Put(p)
}

// hangUp ends call id, whose entry is p: it takes the entry out, or, if
// deliver or Close took it first, waits until its done has returned. p may
// have been pooled and reused since: firing names the call, not the entry.
func (u *UDP) hangUp(id uint64, p *pendingCall) {
	u.mu.Lock()
	_, waiting := u.pending[id]
	if waiting {
		delete(u.pending, id)
	}
	u.mu.Unlock()
	if waiting {
		p.done = nil
		calls.Put(p)
		return
	}
	for p.firing.Load() == id {
		runtime.Gosched() // a done does not block: it is returning
	}
}

// Go implements Transport. A request a socket's transport addresses to its
// own name is a call, not a datagram: Go invokes the handler on the caller's
// goroutine under the read loop's contract — the handler must not block, and
// req (the caller's own Message, backing arrays included) is the handler's to
// read until it replies — with a pooled replier whose reply delivers to the
// call, so done may run before Go returns. A transport without a handler (a
// client's socket) has nobody to call, and one on a Sim switch crosses the
// switch; both send to their own address like any other.
//
// A request that encodes over SendLimit is not written: done gets the error,
// naming its size, before Go returns. So do a request to an unknown peer and
// one on a closed transport.
func (u *UDP) Go(to string, req Message, done func(Message, error)) Call {
	id := u.nextID.Add(1)
	p := calls.Get().(*pendingCall)
	p.done = done
	u.mu.Lock()
	addr, ok := u.peers[to]
	closed := u.closed
	if ok && !closed {
		u.pending[id] = p
	}
	u.mu.Unlock()
	if closed || !ok {
		p.done = nil
		calls.Put(p)
		if closed {
			done(Message{}, ErrClosed)
		} else {
			done(Message{}, fmt.Errorf("%w: %q", ErrUnknownPeer, to))
		}
		return Call{}
	}
	if to == u.local && u.handler != nil && u.selfCall {
		u.handler(u.local, req, u.replier(id, nil, netip.AddrPort{}).reply)
	} else {
		bp := getEncBuf()
		out := appendEnvelope((*bp)[:0], envelope{ID: id, From: u.local, Msg: req})
		// A failed write is loss: the call waits for its caller's hang-up
		// like a lost datagram's. A write failed by Close is not: Close has
		// already ended the call with ErrClosed. A datagram over SendLimit
		// is not written, and the call ends now with its error.
		err := u.write(out, addr)
		*bp = out
		putEncBuf(bp)
		if err != nil {
			u.deliver(id, Message{}, err)
		}
	}
	return Call{u: u, p: p, id: id}
}

// Send implements Transport: Go, with a pooled waiter's put as done, and a
// wait on its channel until the response or the context's end — which hangs
// the call up and returns ErrTimeout. Send keeps no reference to ctx once it
// returns.
func (u *UDP) Send(ctx context.Context, to string, req Message) (Message, error) {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		ph := deadline.Start(ctx, DefaultTimeout)
		defer ph.End()
		ctx = ph
	}
	w := waiters.Get().(*waiter)
	c := u.Go(to, req, w.put)
	var res result
	select {
	case res = <-w.ch:
	case <-ctx.Done():
		c.HangUp()
		select {
		case res = <-w.ch: // answered before the hang-up
		default:
			res.err = ErrTimeout
		}
	}
	waiters.Put(w)
	return res.msg, res.err
}

// Close shuts the conn down, ends every pending call with ErrClosed, and
// waits for the read loop to exit.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	pending := make([]*pendingCall, 0, len(u.pending))
	for id, p := range u.pending {
		p.firing.Store(id)
		pending = append(pending, p)
	}
	clear(u.pending)
	u.mu.Unlock()
	for _, p := range pending {
		p.fire(Message{}, ErrClosed)
	}
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
