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
// through reply, which must be called exactly once (extra calls are
// ignored). Handlers must be safe for concurrent use.
//
// The paper serves "each client request in its own service process". This
// departs from it: no request gets a goroutine of its own by default, and
// the handler chooses where the work runs. Cheap requests answer inline on
// the transport's read path or on a per-group worker, expensive or blocking
// ones move to a goroutine of their own, and one that waits on an event can
// leave reply to whatever signals it (a service answers an apply from the
// drain that makes it durable, and a submit from its pipeline) and hold no
// goroutine at all: a transport's reply never blocks.
//
// req — including the backing arrays of Payload, Keys, Vals, and Founds — is
// only valid until reply is called; a handler that retains any of it past
// the reply must copy first. It is also read-only: Sim, and UDP for a
// request a transport sends to itself, pass the sender's own Message, so
// those backing arrays are the sender's — not a copy — and the handler may
// be running on the sender's goroutine.
type AsyncHandler func(from string, req Message, reply func(Message))

// Transport sends a request to a peer datacenter and waits for its response.
type Transport interface {
	// Send delivers req to the named peer and returns its response. It
	// returns ErrTimeout if the request or response is lost or the peer does
	// not answer before the context deadline (or DefaultTimeout when the
	// context has none). An implementation must not keep ctx, or anything
	// derived from it, once Send returns: the caller's context may be a
	// pooled deadline.Phase, which its owner ends and reuses.
	Send(ctx context.Context, to string, req Message) (Message, error)
	// Local returns the name of the datacenter this endpoint belongs to.
	Local() string
	// Peers returns the names of all datacenters in the topology, including
	// the local one, in stable order.
	Peers() []string
	// Close releases resources. Subsequent Sends return ErrClosed.
	Close() error
}
