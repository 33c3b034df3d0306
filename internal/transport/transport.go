// Package transport is the typed communication layer between MixNN
// tiers. Every leg of the deployment — participant→proxy, proxy→proxy
// cascade, relay legs of a multi-process topology, proxy→aggregation
// server, and the admin plane — goes through one Transport interface
// with typed request/response envelopes, instead of each caller
// hand-rolling HTTP requests and header strings.
//
// Two implementations ship:
//
//   - HTTP speaks the bit-compatible wire protocol of the pre-transport
//     binaries (same paths, headers and content types, as documented in
//     package wire), so a new proxy interoperates with an old one in
//     either direction. Version negotiation rides the X-Mixnn-Proto
//     header: absent means version 1, which is what old binaries imply.
//   - Loopback dispatches to in-process Server implementations through a
//     name registry, with zero serialization overhead: request bodies
//     (already encrypted or encoded — that cost is inherent) are handed
//     to the receiver without HTTP framing, header encoding or a socket
//     copy. It makes the full mixing pipeline benchmarkable at hardware
//     speed and lets tests and experiments run a multi-tier deployment
//     in one process.
//
// The receiving side of the protocol is the Server interface; NewHandler
// adapts any Server onto net/http with exactly the wire behaviour the
// pre-transport handlers had, so HTTP becomes one codec of the typed
// protocol rather than the protocol itself.
package transport

import (
	"context"
	"errors"

	"mixnn/internal/wire"
)

// Transport is the client side of the typed inter-tier protocol. ep is
// the peer's endpoint: a base URL for HTTP, a registered name for
// Loopback.
//
// Methods return *StatusError for application-level rejections (the
// typed form of a non-2xx response) and ordinary errors for transport
// failures (peer unreachable) — the distinction callers classify retry
// policy on.
type Transport interface {
	// SendUpdate posts one participant update (an enclave ciphertext)
	// to a mixing proxy. The aggregation server does not serve it.
	SendUpdate(ctx context.Context, ep string, req UpdateRequest) (Receipt, error)
	// Hop posts one re-encrypted mixed update to /v1/hop. No in-repo
	// server serves it: proxies deliver mixed rounds only by SendBatch.
	Hop(ctx context.Context, ep string, req HopRequest) (Receipt, error)
	// SendBatch posts a drained round, or one part of a round too large
	// for one request, to the next proxy or the aggregation server.
	SendBatch(ctx context.Context, ep string, req BatchRequest) (Receipt, error)
	// Attest fetches the peer enclave's attestation report bound to the
	// caller's nonce.
	Attest(ctx context.Context, ep string, nonce []byte) (wire.AttestationResponse, error)
	// Model fetches the aggregation server's current global model.
	Model(ctx context.Context, ep string) (ModelResponse, error)
	// Topology reads (nil Directive) or stages (non-nil) the peer's
	// routing-plane topology.
	Topology(ctx context.Context, ep string, req TopologyRequest) (wire.TopologyStatus, error)
	// Status fetches the peer's status report (proxy or server form).
	Status(ctx context.Context, ep string) (StatusResponse, error)
	// Discover fetches the peer's control-plane advertisement: its peer
	// list, topology epoch, load signals and health score. SDKs
	// bootstrap and re-rank their failover lists from it.
	Discover(ctx context.Context, ep string) (wire.DiscoverResponse, error)
}

// Server is the receiving side of the typed protocol: what a mixing
// proxy or an aggregation server implements once, to be served over any
// Transport. An operation a given tier does not provide returns
// ErrNotSupported (the aggregation server has no cascade ingress or
// attestation; the proxy serves no model).
type Server interface {
	HandleUpdate(ctx context.Context, req UpdateRequest) (Receipt, error)
	HandleHop(ctx context.Context, req HopRequest) (Receipt, error)
	HandleBatch(ctx context.Context, req BatchRequest) (Receipt, error)
	HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error)
	HandleModel(ctx context.Context) (ModelResponse, error)
	HandleTopology(ctx context.Context, req TopologyRequest) (wire.TopologyStatus, error)
	HandleStatus(ctx context.Context) (StatusResponse, error)
	HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error)
}

// ErrNotSupported marks an operation the receiving tier does not serve;
// the HTTP adapter renders it as the 404 an unregistered route produced
// before the typed layer existed.
var ErrNotSupported = errors.New("transport: operation not supported by this endpoint")

// ErrUnreachable marks a send that provably never reached the peer (an
// unregistered Loopback name, a failed HTTP dial). The distinction
// matters to senders deciding whether a retry elsewhere is safe: an
// unreached request cannot have been ingested, while a timeout after
// the request went out is ambiguous. Detect it with Unreached, which
// also recognises HTTP dial failures.
var ErrUnreachable = errors.New("transport: peer unreachable")

// ErrBusy marks a send rejected at the peer's ingress door because its
// bounded delivery queue was full — backpressure, not failure. It is
// transient (retry with backoff, or fail over: the SDK and the outbox
// dispatcher both already classify it that way) and PROVABLY NOT
// INGESTED: the request was turned away before any handler saw it, so
// Unreached reports true and retrying elsewhere cannot double-count.
var ErrBusy = errors.New("transport: peer busy (ingress queue full)")
