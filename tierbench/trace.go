package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mixnn/internal/stats"
	"mixnn/internal/transport"
)

// spanKind says which side of a layer boundary a span was recorded on.
type spanKind uint8

const (
	kindSend   spanKind = iota // the load generator's timer around Participant.SendUpdate
	kindCall                   // a data-plane Transport call, on the caller's side
	kindHandle                 // a data-plane Server handler, on the receiver's side
)

// span is one timed call at a layer boundary. Spans of one update share
// a chain of parent ids: a SendUpdate span is the parent of the
// client's Transport call, which is the parent of the proxy's handler.
type span struct {
	id, parent uint64
	kind       spanKind
	tier       string // the calling tier for kindSend/kindCall, the receiving tier for kindHandle
	round      int32
	start, end time.Duration // since tracer.base
	// rejected marks a call or handler that ended in the typed session
	// rejection (HTTP 428), after which the sender re-establishes.
	rejected bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory. The decorators consult on before
// recording anything, so an untraced window runs the same wiring with
// recording off.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	round atomic.Int32 // the load generator's current round, stamped on each span
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span whose parent is the span id riding in ctx, and
// returns ctx carrying the new span's id for the layer below.
func (t *tracer) begin(ctx context.Context, kind spanKind, tierName string) (context.Context, span) {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id := t.ids.Add(1)
	sp := span{id: id, parent: parent, kind: kind, tier: tierName, round: t.round.Load(), start: time.Since(t.base)}
	return context.WithValue(ctx, spanKey{}, id), sp
}

func (t *tracer) finish(sp span, err error) {
	sp.end = time.Since(t.base)
	sp.rejected = err != nil && transport.SessionRejected(err)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// tracedTransport records a kindCall span around each data-plane call
// of one tier. Control-plane verbs pass through untraced.
type tracedTransport struct {
	transport.Transport
	tr   *tracer
	tier string
}

func (t *tracedTransport) SendUpdate(ctx context.Context, ep string, req transport.UpdateRequest) (transport.Receipt, error) {
	if !t.tr.on.Load() {
		return t.Transport.SendUpdate(ctx, ep, req)
	}
	ctx, sp := t.tr.begin(ctx, kindCall, t.tier)
	rec, err := t.Transport.SendUpdate(ctx, ep, req)
	t.tr.finish(sp, err)
	return rec, err
}

func (t *tracedTransport) Hop(ctx context.Context, ep string, req transport.HopRequest) (transport.Receipt, error) {
	if !t.tr.on.Load() {
		return t.Transport.Hop(ctx, ep, req)
	}
	ctx, sp := t.tr.begin(ctx, kindCall, t.tier)
	rec, err := t.Transport.Hop(ctx, ep, req)
	t.tr.finish(sp, err)
	return rec, err
}

func (t *tracedTransport) SendBatch(ctx context.Context, ep string, req transport.BatchRequest) (transport.Receipt, error) {
	if !t.tr.on.Load() {
		return t.Transport.SendBatch(ctx, ep, req)
	}
	ctx, sp := t.tr.begin(ctx, kindCall, t.tier)
	rec, err := t.Transport.SendBatch(ctx, ep, req)
	t.tr.finish(sp, err)
	return rec, err
}

// tracedServer records a kindHandle span around each data-plane handler
// of one registered peer.
type tracedServer struct {
	transport.Server
	tr   *tracer
	tier string
}

func (s *tracedServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	if !s.tr.on.Load() {
		return s.Server.HandleUpdate(ctx, req)
	}
	ctx, sp := s.tr.begin(ctx, kindHandle, s.tier)
	rec, err := s.Server.HandleUpdate(ctx, req)
	s.tr.finish(sp, err)
	return rec, err
}

func (s *tracedServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	if !s.tr.on.Load() {
		return s.Server.HandleHop(ctx, req)
	}
	ctx, sp := s.tr.begin(ctx, kindHandle, s.tier)
	rec, err := s.Server.HandleHop(ctx, req)
	s.tr.finish(sp, err)
	return rec, err
}

func (s *tracedServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	if !s.tr.on.Load() {
		return s.Server.HandleBatch(ctx, req)
	}
	ctx, sp := s.tr.begin(ctx, kindHandle, s.tier)
	rec, err := s.Server.HandleBatch(ctx, req)
	s.tr.finish(sp, err)
	return rec, err
}

// interval is one round of the traced window on the tracer's clock:
// from the round's first send to the aggregation server closing it.
type interval struct{ start, end time.Duration }

// spanMetrics derives the span-based per-layer metrics from the traced
// window. rounds[r-first] is round r's interval; spans stamped with a
// round outside the window are ignored.
func (t *tracer) spanMetrics(first int, rounds []interval) []metric {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	byRound := make([][]span, len(rounds))
	handlerOf := map[uint64]span{}         // a call's handler span, by the call's id
	callTime := map[uint64]time.Duration{} // the client calls' total time, by SendUpdate span id
	for _, sp := range spans {
		r := int(sp.round) - first
		if r < 0 || r >= len(rounds) {
			continue
		}
		byRound[r] = append(byRound[r], sp)
		switch {
		case sp.kind == kindHandle:
			handlerOf[sp.parent] = sp
		case sp.kind == kindCall && sp.tier == clientTag:
			callTime[sp.parent] += sp.dur()
		}
	}

	var (
		sends, clientCalls, rejects, proxyCalls  int
		selfUs, updateUs, batchUs, relayBatchUs  []float64
		cascadeBatchUs, aggUs, deliverUs, waitUs []float64
		queueUs, closeUs                         []float64
		uncovered, total                         time.Duration
	)
	for r, rs := range byRound {
		// The closing handler of each tier is its last handler of the
		// round to end; delivery of the round starts after it.
		closer := map[string]span{}
		firstCall := map[string]span{}
		for _, sp := range rs {
			switch sp.kind {
			case kindSend:
				sends++
				selfUs = append(selfUs, us(sp.dur()-callTime[sp.id]))
			case kindCall:
				if sp.tier == clientTag {
					clientCalls++
					if sp.rejected {
						rejects++
					}
				} else {
					proxyCalls++
					deliverUs = append(deliverUs, us(sp.dur()))
					if c, ok := firstCall[sp.tier]; !ok || sp.start < c.start {
						firstCall[sp.tier] = sp
					}
				}
				if h, ok := handlerOf[sp.id]; ok {
					queueUs = append(queueUs, us(sp.dur()-h.dur()))
				}
			case kindHandle:
				if sp.rejected {
					// A 428 rejection ingested nothing: it is neither ingest
					// work nor a round's closing handler.
					continue
				}
				switch sp.tier {
				case aggEP:
					aggUs = append(aggUs, us(sp.dur()))
				case frontEP:
					updateUs = append(updateUs, us(sp.dur()))
				case relayEP:
					batchUs = append(batchUs, us(sp.dur()))
					relayBatchUs = append(relayBatchUs, us(sp.dur()))
				case cascadeEP:
					batchUs = append(batchUs, us(sp.dur()))
					cascadeBatchUs = append(cascadeBatchUs, us(sp.dur()))
				}
				if c, ok := closer[sp.tier]; !ok || sp.end > c.end {
					closer[sp.tier] = sp
				}
			}
		}
		if c, ok := closer[frontEP]; ok {
			closeUs = append(closeUs, us(c.dur()))
		}
		for name, call := range firstCall {
			if c, ok := closer[name]; ok {
				waitUs = append(waitUs, us(call.start-c.end))
			}
		}
		total += rounds[r].end - rounds[r].start
		uncovered += rounds[r].end - rounds[r].start - covered(rs, rounds[r])
	}

	p50 := func(name string, xs []float64) metric {
		return metric{Name: name, Value: stats.Percentile(xs, 50), Unit: "us", Samples: len(xs)}
	}
	return []metric{
		p50("client.self_us_p50", selfUs),
		{Name: "client.attempts_per_send", Value: ratio(float64(clientCalls), float64(sends)), Unit: "attempts/send"},
		{Name: "client.reject_428_total", Value: float64(rejects), Unit: "count"},
		p50("proxy.update_us_p50", updateUs),
		p50("proxy.round_close_us_p50", closeUs),
		p50("proxy.batch_us_p50", batchUs),
		p50("proxy.relay_batch_us_p50", relayBatchUs),
		p50("proxy.cascade_batch_us_p50", cascadeBatchUs),
		p50("outbox.wait_us_p50", waitUs),
		p50("outbox.deliver_us_p50", deliverUs),
		{Name: "outbox.attempts_per_round", Value: ratio(float64(proxyCalls), float64(len(rounds))), Unit: "attempts/round"},
		p50("agg.absorb_us_p50", aggUs),
		p50("transport.queue_wait_us_p50", queueUs),
		{Name: "transport.queue_wait_us_p99", Value: stats.Percentile(queueUs, 99), Unit: "us", Samples: len(queueUs)},
		{Name: "trace.unaccounted_frac", Value: ratio(float64(uncovered), float64(total)), Unit: "ratio"},
	}
}

// covered is how much of the round's interval at least one span covers.
func covered(spans []span, iv interval) time.Duration {
	cut := make([]interval, 0, len(spans))
	for _, sp := range spans {
		s, e := max(sp.start, iv.start), min(sp.end, iv.end)
		if e > s {
			cut = append(cut, interval{s, e})
		}
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i].start < cut[j].start })
	var sum, reach time.Duration
	for _, c := range cut {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			sum += c.end - reach
			reach = c.end
		}
	}
	return sum
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
