// Package network provides the inter-datacenter communication substrate
// (paper §2.2, "Transaction tier"): unreliable request/response messaging
// where a message either arrives before a known timeout or is lost.
//
// One transport implements the Transport interface, UDP: binary datagrams,
// a pending-call table, no retransmission below the request/response layer
// (the paper's prototype used UDP). A request goes out one way, Go, which
// calls back with the response from whichever goroutine delivers it and
// can be hung up; Send is Go plus a wait. Its datagram conn is either
//
//   - a socket, one per datacenter (NewUDPAsync), or
//   - a port on Sim, an in-process datagram switch that reproduces the
//     paper's testbed — each datacenter pair has a configurable round-trip
//     time (Virginia–Virginia 1.5 ms, Virginia–Oregon/California 90 ms,
//     Oregon–California 20 ms), plus jitter, message loss, datacenter
//     outages, and partitions, with per-kind message counters
//     (Sim.EndpointAsync).
//
// The transaction tier is written against the Transport interface only, and
// a simulated deployment runs the same codec, envelope and pending-call
// table as a socket deployment.
//
// Message is the single wire unit; the UDP transport encodes it with a
// compact length-prefixed binary codec (codec.go, DESIGN.md §9) behind a
// leading version byte (0xB2, the layout that carries the master-epoch
// field of DESIGN.md §11). The codec is binary-only: the legacy JSON
// envelope and the pre-epoch 0xB1 layout are gone, and datagrams in any
// other format are dropped. The hot path is allocation-free in steady
// state — encode buffers and decode scratch are pooled, and request
// handling runs through AsyncHandler so the read loop never blocks on a
// slow request (DESIGN.md §13).
package network
