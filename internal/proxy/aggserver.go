// Package proxy implements the networked deployment of MixNN (Figure 3):
// an HTTP aggregation server, the MixNN proxy running inside a (simulated)
// SGX enclave, and the participant-side client that encrypts updates for
// the attested enclave.
package proxy

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// AggServer is the HTTP aggregation server: it collects a fixed number of
// updates per round — delivered as drained rounds (or parts of one) on
// /v1/batch — averages them, and serves the global model.
// An optional fl.Observer sees each completed round's updates — this is
// how the adversarial-server experiments instrument the networked path.
type AggServer struct {
	expect int

	mu       sync.Mutex
	server   *fl.Server
	round    int
	pending  []nn.ParamSet
	observer fl.Observer
	// seen dedups batch idempotency ids so a proxy redelivering after a
	// lost acknowledgement cannot double-count a round.
	seen batchDedup
	// disseminated is the model as served for the current round (what
	// clients train on); recorded so observers get the exact base model.
	disseminated nn.ParamSet
	// encModel caches the encoded form of disseminated for the model
	// endpoint (participants poll it every few hundred ms; re-encoding
	// megabytes per poll would be pure garbage). modelGen bumps on every
	// disseminated change, invalidating the cache.
	encModel []byte
	modelGen uint64
}

// NewAggServer builds the server with its initial global model and the
// number of updates that completes a round.
func NewAggServer(initial nn.ParamSet, expectPerRound int) (*AggServer, error) {
	if expectPerRound <= 0 {
		return nil, fmt.Errorf("proxy: expectPerRound must be positive, got %d", expectPerRound)
	}
	return &AggServer{
		expect:       expectPerRound,
		server:       fl.NewServer(initial),
		disseminated: initial.Clone(),
	}, nil
}

// SetObserver installs an observer of completed rounds (e.g. ∇Sim).
func (s *AggServer) SetObserver(obs fl.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = obs
}

// SetDedupWindow sizes the batch-dedup FIFO (default DefaultDedupWindow).
// Call before serving.
func (s *AggServer) SetDedupWindow(n int) {
	s.seen.SetWindow(n)
}

// SetDisseminated overrides the model served to clients for the current
// round (the active-attack hook).
func (s *AggServer) SetDisseminated(ps nn.ParamSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disseminated = ps.Clone()
	s.encModel = nil
	s.modelGen++
}

// Round returns the current round number (completed rounds).
func (s *AggServer) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// Global returns the current global model.
func (s *AggServer) Global() nn.ParamSet { return s.server.Global() }

// Handler returns the HTTP API: the typed protocol served over the
// wire-compatible HTTP adapter. Endpoints the aggregation server does
// not provide (cascade ingress, attestation, topology admin) answer 404
// exactly as the unregistered routes did.
func (s *AggServer) Handler() http.Handler {
	return transport.NewHandler(s)
}

// absorb appends updates to the open round and closes as many rounds as
// they complete (a batch may span a round boundary — e.g. a restored
// proxy delivering a merged backlog). Round closure is unchanged:
// observe, aggregate, advance. It reports how many rounds closed so a
// batch handler can tell "rejected untouched" from "partially applied".
func (s *AggServer) absorb(updates []nn.ParamSet) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate structure against the global model BEFORE buffering
	// anything: a poison update must not enter pending, where it would
	// sink whole rounds of other senders' material when Aggregate fails.
	for i, u := range updates {
		if !s.disseminated.Compatible(u) {
			return 0, fmt.Errorf("update %d incompatible with the global model", i)
		}
	}
	closed := 0
	s.pending = append(s.pending, updates...)
	for len(s.pending) >= s.expect {
		batch := s.pending[:s.expect:s.expect]
		if s.observer != nil {
			s.observer.ObserveRound(fl.RoundRecord{
				Round:        s.round,
				Disseminated: s.disseminated,
				Updates:      batch,
			})
		}
		if err := s.server.Aggregate(batch); err != nil {
			// Drop only the failing round's material; later-arrived
			// updates already acknowledged to other senders stay
			// buffered for the rounds they belong to.
			s.pending = append([]nn.ParamSet(nil), s.pending[s.expect:]...)
			return closed, fmt.Errorf("aggregate: %w", err)
		}
		s.pending = s.pending[s.expect:]
		s.round++
		s.disseminated = s.server.Global()
		s.encModel = nil
		s.modelGen++
		closed++
	}
	return closed, nil
}

// HandleUpdate implements transport.Server: mixing proxies deliver
// only through HandleBatch, so the single-update endpoint is not served
// (HTTP answers 404).
func (s *AggServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}

// HandleBatch ingests a whole drained round in one request. The body is
// a plaintext wire.BatchEnvelope; the idempotency id makes redelivery
// safe: a batch the server already applied is acknowledged without
// reprocessing, so proxy retry after a lost acknowledgement cannot skew
// the round mean with duplicates. It implements transport.Server.
func (s *AggServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	batchID := req.ID
	env, err := wire.DecodeBatchEnvelope(req.Body)
	if err != nil {
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusBadRequest, "%s", err.Error())
	}
	// Decode every update before absorbing any, so a malformed item
	// cannot leave a round half-counted.
	updates := make([]nn.ParamSet, len(env.Updates))
	for i, raw := range env.Updates {
		// The request body's ownership transferred to this handler, so
		// the zero-copy decode is safe; aggregation never mutates updates.
		if updates[i], err = nn.DecodeParamSetNoCopy(raw); err != nil {
			return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusBadRequest, "decode batch update %d: %v", i, err)
		}
	}
	// Claim the id BEFORE absorbing: a retry overlapping a slow first
	// attempt must dedup, not re-apply — and an attempt still in flight
	// must not be acked as applied (the sender would consume its outbox
	// entry while this attempt can still fail).
	sender, senderSeq, hasSeq := req.Sender, req.Seq, req.HasSeq && req.Sender != ""
	if batchID != "" {
		switch s.seen.Begin(batchID, sender, senderSeq, hasSeq) {
		case dedupApplied:
			return transport.Receipt{Shard: -1, Duplicate: true}, nil
		case dedupInFlight:
			return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusConflict, "batch application in flight")
		case dedupStale:
			// Aged out of the window but provably superseded by the
			// sender's sequence watermark: re-absorbing would double-count
			// a round. The stale marker makes the sender quarantine
			// instead of retrying.
			return transport.Receipt{Shard: -1}, &transport.StatusError{
				Code: http.StatusConflict, Stale: true,
				Msg: "stale batch redelivery (sequence below the sender's applied watermark)",
			}
		}
	}
	closed, err := s.absorb(updates)
	if err != nil {
		// Structural failure (updates incompatible with the global
		// model) — permanent from the sender's point of view, so answer
		// 422: a 5xx here would make the proxy retry the same poison
		// batch forever. If the batch spanned round
		// boundaries and some rounds DID close before the failure, keep
		// its id recorded as applied: the entry will be quarantined
		// upstream, and should the operator ever re-inject the .bad
		// file, the dedup must stop the applied rounds from
		// double-counting.
		if batchID != "" {
			if closed == 0 {
				s.seen.Forget(batchID)
			} else {
				s.seen.Done(batchID, sender, senderSeq, hasSeq)
			}
		}
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusUnprocessableEntity, "%s", err.Error())
	}
	if batchID != "" {
		s.seen.Done(batchID, sender, senderSeq, hasSeq)
	}
	return transport.Receipt{Shard: -1}, nil
}

// HandleHop implements transport.Server: the aggregation server is not
// a cascade hop.
func (s *AggServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}

// HandleAttest implements transport.Server: the server runs no enclave.
func (s *AggServer) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	return wire.AttestationResponse{}, transport.ErrNotSupported
}

// HandleTopology implements transport.Server: the server has no
// routing plane.
func (s *AggServer) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	return wire.TopologyStatus{}, transport.ErrNotSupported
}

// HandleModel serves the current global model. It implements
// transport.Server. The encoded body is cached per model generation —
// participants poll this endpoint continuously, and the cache turns
// each poll into a buffer handoff instead of a clone + encode. The
// returned Body is shared between concurrent polls and MUST NOT be
// mutated by callers (the HTTP adapter only writes it; the SDK's
// FetchModel decodes it with the copying decoder).
func (s *AggServer) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	s.mu.Lock()
	if s.encModel != nil {
		resp := transport.ModelResponse{Round: s.round, Body: s.encModel}
		s.mu.Unlock()
		return resp, nil
	}
	round, gen := s.round, s.modelGen
	model := s.disseminated.Clone()
	s.mu.Unlock()
	// Encode outside the lock: a multi-megabyte encode must not block
	// ingress. The generation check below keeps a concurrent round
	// close (or an active-attack SetDisseminated) from caching a stale
	// body.
	body, err := nn.EncodeParamSet(model)
	if err != nil {
		return transport.ModelResponse{}, err
	}
	s.mu.Lock()
	if s.modelGen == gen && s.encModel == nil {
		s.encModel = body
	}
	s.mu.Unlock()
	return transport.ModelResponse{Round: round, Body: body}, nil
}

// HandleStatus implements transport.Server.
func (s *AggServer) HandleStatus(ctx context.Context) (transport.StatusResponse, error) {
	s.mu.Lock()
	st := wire.ServerStatus{Round: s.round, UpdatesInRound: len(s.pending), ExpectPerRound: s.expect}
	s.mu.Unlock()
	return transport.StatusResponse{Server: &st}, nil
}

// HandleDiscover implements transport.Server: the aggregation server is
// not a failover target for participant ingress, so it advertises
// nothing.
func (s *AggServer) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	return wire.DiscoverResponse{}, transport.ErrNotSupported
}
