package network

import (
	"context"
	"errors"
	"time"
)

// Common transport errors.
var (
	// ErrTimeout reports that no response arrived before the deadline. The
	// sender cannot distinguish a lost request, a lost response, or a dead
	// peer — exactly the paper's failure model.
	ErrTimeout = errors.New("network: timeout")
	// ErrUnknownPeer reports a send to an address not in the topology.
	ErrUnknownPeer = errors.New("network: unknown peer")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("network: transport closed")
)

// DefaultTimeout is the paper's message-loss detection timeout (§6: "We
// utilize a two second timeout for message loss detection."). Experiments
// scale this alongside latencies.
const DefaultTimeout = 2 * time.Second

// AsyncHandler processes one inbound request and delivers the response
// through reply, which must be called exactly once. A second call is
// dropped while nothing has reused the reply, but UDP pools what stands
// behind it and reuses it for another request once it has been called, so a
// late second call could answer that one. Handlers must be safe for
// concurrent use, and must not block: a handler runs on its endpoint's read
// loop, so one that blocks stalls every datagram to that endpoint — the
// responses to its own requests included.
//
// The paper serves "each client request in its own service process". The
// transport gives no request a goroutine of its own; the handler chooses
// where the work runs. A service runs most requests on a goroutine of their
// own, as the paper does, but a request that waits on an event can leave
// reply to whatever signals it (a service answers an apply from the drain
// that makes it durable, and a submit from its pipeline) and hold no
// goroutine at all: a transport's reply never blocks. That is where a
// service departs from the paper.
//
// req — including the backing arrays of Payload, Keys, Vals, and Founds — is
// only valid until reply is called; a handler that retains any of it past
// the reply must copy first. It is also read-only: for a request a socket's
// transport sends to itself, UDP passes the sender's own Message, so those
// backing arrays are the sender's — not a copy — and the handler may be
// running on the sender's goroutine.
type AsyncHandler func(from string, req Message, reply func(Message))

// Transport sends a request to a peer datacenter and delivers its response:
// to a caller that waits for it (Send), or to a callback (Go).
type Transport interface {
	// Send delivers req to the named peer and returns its response. It
	// returns ErrTimeout if the request or response is lost or the peer does
	// not answer before the context deadline (or DefaultTimeout when the
	// context has none). An implementation must not keep ctx, or anything
	// derived from it, once Send returns: the caller's context may be a
	// pooled deadline.Phase, which its owner ends and reuses.
	Send(ctx context.Context, to string, req Message) (Message, error)
	// Go sends req to the named peer and calls done with its response, or
	// with the error that ended the call (an unknown peer, a closed
	// transport, a request too long to send), at most once. done runs on
	// whichever goroutine delivers: a read loop, a handler's reply for a
	// request to the transport's own name (which may be the caller's, before
	// Go returns), or Close. It must not block, and must not hang up its own
	// call.
	//
	// Go has no deadline: a call to a silent peer waits until its caller
	// hangs it up (Call.HangUp), and no callback runs after that returns.
	// Every call that may still be unanswered must be hung up, or its entry
	// stays in the pending-call table until Close. req is the transport's
	// until Go returns; for a request to the transport's own name, its
	// backing arrays are the handler's to read until it replies
	// (AsyncHandler).
	Go(to string, req Message, done func(Message, error)) Call
	// Local returns the name of the datacenter this endpoint belongs to.
	Local() string
	// Peers returns the names of all datacenters in the topology, including
	// the local one, in stable order.
	Peers() []string
	// Close releases resources. Subsequent Sends return ErrClosed.
	Close() error
}

// Call is one request Go started: the handle its caller hangs it up with.
// The zero Call has nothing to hang up; a transport that answered a request
// before Go returned, or never will, may return it.
type Call struct {
	u  *UDP
	p  *pendingCall
	id uint64
}

// HangUp ends the call. Once it returns, the call's done is not running and
// never runs again: a response that arrives later is dropped. Hanging up a
// call that has been answered only waits, if its done is still running, for
// that to return.
func (c Call) HangUp() {
	if c.u != nil {
		c.u.hangUp(c.id, c.p)
	}
}
