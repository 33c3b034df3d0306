package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// gatedServer wraps an AggServer so tests can take the downstream
// offline (POSTs return 503) and bring it back — the outage half of the
// delivery pipeline's failure model.
type gatedServer struct {
	mu   sync.Mutex
	down bool
	next http.Handler
}

func (g *gatedServer) SetDown(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *gatedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down && r.Method == http.MethodPost {
		http.Error(w, "downstream outage", http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

// perturbed returns C recognisable updates derived from base.
func perturbed(base nn.ParamSet, c int, offset float64) []nn.ParamSet {
	updates := make([]nn.ParamSet, c)
	for i := range updates {
		u := base.Clone()
		u.Layers[0].Tensors[0].AddScalar(offset + float64(i+1))
		u.Layers[len(u.Layers)-1].Tensors[0].AddScalar(-(offset + float64(i+1)) / 2)
		updates[i] = u
	}
	return updates
}

// waitServerRound polls the aggregation server until it reaches round
// want (delivery is asynchronous even after Flush on multi-hop paths).
func waitServerRound(t *testing.T, agg *AggServer, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for agg.Round() < want {
		if time.Now().After(deadline) {
			t.Fatalf("server round = %d, want %d", agg.Round(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeliveryExactlyOnceAcrossOutageAndRestart is the acceptance e2e of
// the delivery pipeline: the downstream dies mid-drain, the proxy is
// crashed (sealed) and restarted over the same outbox directory, the
// downstream comes back — and the aggregated global model still equals
// the classic-FL mean at 1e-9, with no duplicate or lost updates.
func TestDeliveryExactlyOnceAcrossOutageAndRestart(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	gate := &gatedServer{next: agg.Handler()}
	aggSrv := httptest.NewServer(gate)
	t.Cleanup(aggSrv.Close)

	outboxDir := t.TempDir()
	cfg := ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 31,
		OutboxDir: outboxDir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	px1Srv := httptest.NewServer(px1.Handler())

	// Round 1 flows normally.
	round1 := perturbed(initial, clients, 0)
	for i, u := range round1 {
		resp := sendRaw(t, encl, px1Srv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round 1 send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, px1)
	if agg.Round() != 1 {
		t.Fatalf("round 1 did not close: %d", agg.Round())
	}

	// Downstream outage. Round 2 is still fully ingested — ingress never
	// blocks on the downstream — and the drained round commits to the
	// sealed outbox where delivery keeps retrying.
	gate.SetDown(true)
	round2 := perturbed(initial, clients, 100)
	for i, u := range round2 {
		resp := sendRaw(t, encl, px1Srv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round 2 send %d during outage: %s", i, resp.Status)
		}
	}
	st := px1.Status()
	if st.OutboxPending != 1 || st.Epoch != 2 {
		t.Fatalf("outage status pending/epoch = %d/%d, want 1/2", st.OutboxPending, st.Epoch)
	}

	// Crash the proxy mid-outage: seal, stop, restart over the SAME
	// outbox directory (the entry on disk is the round's durability).
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1Srv.Close()
	px1.Close()

	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	if err := px2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := px2.Status().OutboxPending; got != 1 {
		t.Fatalf("restarted proxy indexes %d outbox entries, want 1", got)
	}

	// Downstream recovers; the restarted dispatcher delivers round 2
	// exactly once.
	gate.SetDown(false)
	flushTier(t, px2)
	waitServerRound(t, agg, 2)
	if agg.Round() != 2 {
		t.Fatalf("server round = %d, want 2", agg.Round())
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) != 2 {
		t.Fatalf("observer saw %d rounds, want 2", len(obs.recs))
	}
	for r, rec := range obs.recs {
		if len(rec.Updates) != clients {
			t.Fatalf("round %d carried %d updates, want %d (lost or duplicated)", r, len(rec.Updates), clients)
		}
	}
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(round2); err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != classic FL mean after outage + crash + restart")
	}
}

// TestDeliveryPipelinedEpochs: with the downstream offline, the tier
// keeps ingesting — round N+1 lands in fresh mixers while rounds ≤ N sit
// in the outbox — and once the downstream recovers the backlog delivers
// in epoch order with per-round aggregation equivalence intact.
func TestDeliveryPipelinedEpochs(t *testing.T) {
	platform, encl := fixtures(t)
	const clients, epochs = 4, 3
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	gate := &gatedServer{next: agg.Handler()}
	gate.SetDown(true)
	aggSrv := httptest.NewServer(gate)
	t.Cleanup(aggSrv.Close)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 37,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	sent := make([][]nn.ParamSet, epochs)
	for e := 0; e < epochs; e++ {
		sent[e] = perturbed(initial, clients, float64(e*1000))
		for i, u := range sent[e] {
			resp := sendRaw(t, encl, pxSrv.URL, "", u)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("epoch %d send %d: %s", e, i, resp.Status)
			}
		}
	}
	st := px.Status()
	if st.Epoch != epochs || st.OutboxPending != epochs || st.Received != epochs*clients {
		t.Fatalf("pipelined status epoch/pending/received = %d/%d/%d, want %d/%d/%d",
			st.Epoch, st.OutboxPending, st.Received, epochs, epochs, epochs*clients)
	}

	gate.SetDown(false)
	flushTier(t, px)
	waitServerRound(t, agg, epochs)

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) != epochs {
		t.Fatalf("observer saw %d rounds, want %d", len(obs.recs), epochs)
	}
	for e, rec := range obs.recs {
		classic := fl.NewServer(initial)
		if err := classic.Aggregate(sent[e]); err != nil {
			t.Fatal(err)
		}
		got, err := nn.Average(rec.Updates)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(classic.Global(), 1e-9) {
			t.Fatalf("epoch %d delivered out of order or corrupted (round mean mismatch)", e)
		}
	}
}

// TestDeliveryOutboxGarbageRobustness plants truncated, bit-flipped and
// foreign-enclave entries in a proxy's outbox directory: all three are
// quarantined (renamed .bad, kept as evidence) and the queue keeps
// draining real rounds.
func TestDeliveryOutboxGarbageRobustness(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Plant garbage BEFORE the proxy opens the directory, as a corrupted
	// disk (or meddling host) would leave it.
	dir := t.TempDir()
	plant := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	plant("ob-0000000000000000.ent", []byte{0x01, 0x02}) // truncated
	// A well-formed sealed entry from a DIFFERENT enclave identity: the
	// open hook must reject it (sealing keys are measurement-bound).
	other, err := enclave.New(enclave.Config{CodeIdentity: "other-outbox", RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.SealLabeled(outboxLabel, []byte("MXOB-foreign"))
	if err != nil {
		t.Fatal(err)
	}
	plant("ob-0000000000000001.ent", foreign)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 2, RoundSize: clients, Shards: 2, Seed: 41,
		OutboxDir: dir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// Bit-flip a third entry AFTER sealing by corrupting a real one: run
	// a round while the downstream briefly rejects, flip the committed
	// entry, then let delivery continue — the flipped entry must be
	// quarantined, not looped on.
	for i, u := range perturbed(initial, clients, 0) {
		resp := sendRaw(t, encl, pxSrv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, px)
	waitServerRound(t, agg, 1)
	if agg.Round() != 1 {
		t.Fatalf("round did not survive the garbage: %d", agg.Round())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bad, live int
	for _, de := range entries {
		switch {
		case strings.HasSuffix(de.Name(), ".bad"):
			bad++
		case strings.HasSuffix(de.Name(), ".ent"):
			live++
		}
	}
	if bad != 2 {
		t.Fatalf("%d quarantined entries, want 2 (truncated + foreign)", bad)
	}
	if live != 0 {
		t.Fatalf("%d entries still queued after flush", live)
	}
}

// TestDeliveryBatchEndpointForgedHop pins the hardening of the cascade
// ingress, /v1/batch: the inter-proxy secret gates it, forged excess
// depth is rejected with 508 before any material is touched, and
// malformed depth is a plain 400.
func TestDeliveryBatchEndpointForgedHop(t *testing.T) {
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, RoundSize: 8, Shards: 2, Seed: 43, HopSecret: "s3cret",
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// A legitimate batch body, wrapped for the enclave.
	raw, err := nn.EncodeParamSet(testArch().New(3).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.BatchEnvelope{Updates: [][]byte{raw, raw}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ct := establishFor(t, encl, enc)
	post := func(auth, hop string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		if hop != "" {
			req.Header.Set(wire.HeaderHop, hop)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", "1"); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated batch returned %d, want 401", code)
	}
	if code := post("Bearer wrong", "1"); code != http.StatusUnauthorized {
		t.Fatalf("wrong-secret batch returned %d, want 401", code)
	}
	if code := post("Bearer s3cret", fmt.Sprint(DefaultMaxHops+1)); code != http.StatusLoopDetected {
		t.Fatalf("over-deep batch returned %d, want 508", code)
	}
	if code := post("Bearer s3cret", "-2"); code != http.StatusBadRequest {
		t.Fatalf("malformed hop batch returned %d, want 400", code)
	}
	if got := px.Status().HopReceived; got != 0 {
		t.Fatalf("rejected batches still counted %d updates", got)
	}
	if code := post("Bearer s3cret", "2"); code != http.StatusAccepted {
		t.Fatalf("authorized batch returned %d, want 202", code)
	}
	if got := px.Status().HopReceived; got != 2 {
		t.Fatalf("hop_received = %d, want 2 (both batch items)", got)
	}
	// Garbage bodies on the gated endpoint are a plain 400.
	req, _ := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", strings.NewReader("junk"))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage batch returned %s, want 400", resp.Status)
	}
}

// TestDeliveryBatchRedeliveryDedup: both receivers (aggregation server
// and cascade proxy) must treat a redelivered batch id as already
// applied — that is what turns at-least-once retry into exactly-once
// rounds.
func TestDeliveryBatchRedeliveryDedup(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	t.Run("aggserver", func(t *testing.T) {
		agg, err := NewAggServer(initial, clients)
		if err != nil {
			t.Fatal(err)
		}
		aggSrv := httptest.NewServer(agg.Handler())
		t.Cleanup(aggSrv.Close)

		updates := perturbed(initial, clients, 0)
		payloads := make([][]byte, clients)
		for i, u := range updates {
			if payloads[i], err = nn.EncodeParamSet(u); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := wire.BatchEnvelope{Updates: payloads}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		post := func() int {
			req, err := http.NewRequest(http.MethodPost, aggSrv.URL+"/v1/batch", bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(wire.HeaderBatch, "batch-under-test")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := post(); code != http.StatusAccepted {
			t.Fatalf("first delivery returned %d, want 202", code)
		}
		// The same batch redelivered (lost ack) is acknowledged without
		// starting a second round.
		if code := post(); code != http.StatusOK {
			t.Fatalf("redelivery returned %d, want 200 (already applied)", code)
		}
		if agg.Round() != 1 {
			t.Fatalf("server round = %d, want 1 (duplicate batch double-counted)", agg.Round())
		}
		want, err := nn.Average(updates)
		if err != nil {
			t.Fatal(err)
		}
		if !agg.Global().ApproxEqual(want, 1e-9) {
			t.Fatal("redelivery skewed the aggregate")
		}
	})

	t.Run("proxy", func(t *testing.T) {
		agg, err := NewAggServer(initial, 2*clients)
		if err != nil {
			t.Fatal(err)
		}
		aggSrv := httptest.NewServer(agg.Handler())
		t.Cleanup(aggSrv.Close)
		px, err := NewSharded(ShardedConfig{
			Upstream: aggSrv.URL, RoundSize: 2 * clients, Shards: 2, Seed: 47,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		pxSrv := httptest.NewServer(px.Handler())
		t.Cleanup(pxSrv.Close)

		raw, err := nn.EncodeParamSet(initial)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := wire.BatchEnvelope{Updates: [][]byte{raw, raw}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ct := establishFor(t, encl, enc)
		post := func() int {
			req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(wire.HeaderHop, "1")
			req.Header.Set(wire.HeaderBatch, "proxy-batch-under-test")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := post(); code != http.StatusAccepted {
			t.Fatalf("first delivery returned %d, want 202", code)
		}
		if code := post(); code != http.StatusOK {
			t.Fatalf("redelivery returned %d, want 200", code)
		}
		if got := px.Status().HopReceived; got != 2 {
			t.Fatalf("hop_received = %d, want 2 (redelivery must not re-ingest)", got)
		}
	})
}

// TestDeliverySplitBatch pins the splitter behind multi-part delivery:
// parts cover every update in order, each part's envelope fits the
// limit, part ids are deterministic and distinct, and an update too
// large to fit alone is permanent.
func TestDeliverySplitBatch(t *testing.T) {
	sizes := []int{10, 30, 5, 40, 1, 1, 25}
	updates := make([][]byte, len(sizes))
	for i, n := range sizes {
		updates[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
	}
	const limit = wire.BatchHeaderBytes + 2*wire.BatchItemHeaderBytes + 45
	parts, err := splitBatch(updates, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("%d parts, want a split", len(parts))
	}
	var flat [][]byte
	ids := map[string]bool{}
	for i, part := range parts {
		if len(part) == 0 {
			t.Fatalf("part %d is empty", i)
		}
		enc, err := wire.BatchEnvelope{Updates: part}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > limit {
			t.Fatalf("part %d encodes to %d bytes, over the %d limit", i, len(enc), limit)
		}
		flat = append(flat, part...)
		id := partID("entry", i)
		if id != partID("entry", i) || ids[id] {
			t.Fatalf("part %d id %q not deterministic or not distinct", i, id)
		}
		ids[id] = true
	}
	if partID("entry", 0) != "entry" {
		t.Fatal("part 0 must keep the entry id")
	}
	if len(flat) != len(updates) {
		t.Fatalf("parts cover %d updates, want %d", len(flat), len(updates))
	}
	for i := range updates {
		if !bytes.Equal(flat[i], updates[i]) {
			t.Fatalf("update %d out of order", i)
		}
	}
	if one, err := splitBatch(updates, maxBatchBody); err != nil || len(one) != 1 || len(one[0]) != len(updates) {
		t.Fatalf("an ordinary entry split into %d parts (%v), want one", len(one), err)
	}
	if parts, err := splitBatch(nil, limit); err != nil || len(parts) != 0 {
		t.Fatalf("empty entry: %d parts, %v", len(parts), err)
	}

	oversized := append(updates[:2:2], make([]byte, limit))
	_, err = splitBatch(oversized, limit)
	var perm *outbox.PermanentError
	if !errors.As(err, &perm) {
		t.Fatalf("oversized update: %v, want a permanent error", err)
	}
}

// recordingServer wraps a receiver and records every batch it answers:
// the part id, whether it was acked as a duplicate, and an optional
// one-shot failure for a chosen id.
type recordingServer struct {
	transport.Server
	mu     sync.Mutex
	failID string
	calls  []string
	dups   []bool
}

func (r *recordingServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	r.mu.Lock()
	if req.ID == r.failID {
		r.failID = ""
		r.mu.Unlock()
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusServiceUnavailable, "injected outage")
	}
	r.mu.Unlock()
	rcpt, err := r.Server.HandleBatch(ctx, req)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.calls = append(r.calls, req.ID)
		r.dups = append(r.dups, rcpt.Duplicate)
	}
	return rcpt, err
}

// TestDeliveryMultiPartEntryExactlyOnce drives one outbox entry that
// needs three requests into an AggServer. A part refused mid-entry is
// retried without resending the parts before it; the round closes at
// the classic mean; and a redelivery of the whole entry, as after a
// crash, is acked Duplicate part by part without touching the round.
func TestDeliveryMultiPartEntryExactlyOnce(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 5
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingServer{Server: agg}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", rec)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", RoundSize: clients, Seed: 91, Transport: lb,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)

	updates := perturbed(initial, clients, 0)
	raws := make([][]byte, clients)
	for i, u := range updates {
		if raws[i], err = nn.EncodeParamSet(u); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := (&outbox.Envelope{Epoch: 0, Updates: raws}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Two updates per request: the entry travels as parts of 2, 2 and 1.
	limit := wire.BatchHeaderBytes + 2*(wire.BatchItemHeaderBytes+len(raws[0]))
	const seq = 7
	id := batchIDFor(payload)
	rec.failID = partID(id, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := px.deliverPayload(ctx, seq, payload, limit); err == nil {
		t.Fatal("delivery succeeded through the injected outage")
	}
	if err := px.deliverPayload(ctx, seq, payload, limit); err != nil {
		t.Fatal(err)
	}
	want := []string{partID(id, 0), partID(id, 1), partID(id, 2)}
	if fmt.Sprint(rec.calls) != fmt.Sprint(want) || fmt.Sprint(rec.dups) != "[false false false]" {
		t.Fatalf("applied parts %v (duplicates %v), want each of %v once", rec.calls, rec.dups, want)
	}
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	mean, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(mean, 1e-9) {
		t.Fatal("multi-part delivery diverged from the classic mean")
	}

	// Crash-equivalent redelivery: the memo (and its part cursor) is gone.
	px.dcache.drop(seq)
	if err := px.deliverPayload(ctx, seq, payload, limit); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rec.calls[3:]) != fmt.Sprint(want) || fmt.Sprint(rec.dups[3:]) != "[true true true]" {
		t.Fatalf("redelivered parts %v acked duplicate %v, want every part a duplicate", rec.calls[3:], rec.dups[3:])
	}
	st, err := agg.HandleStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Round() != 1 || st.Server.UpdatesInRound != 0 {
		t.Fatalf("redelivery re-absorbed material: round %d, %d pending", agg.Round(), st.Server.UpdatesInRound)
	}
}

// TestDeliveryCountersSurviveSealRestore is the PR 2 follow-up: per-shard
// mixer counters (received/emitted) restore with the tier instead of
// resetting, exactly for an unchanged shard count and sum-preserving
// across a reshard — and the pending (emitted-but-uncommitted) updates
// survive too, so the finished round still matches classic FL.
func TestDeliveryCountersSurviveSealRestore(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 6
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// K=1 over 2 shards: the 4 pre-crash sends produce mid-round
	// emissions, so the pending buffer is non-empty at seal time.
	cfg := ShardedConfig{Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 59}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px1.Close)
	px1Srv := httptest.NewServer(px1.Handler())
	updates := perturbed(initial, clients, 0)
	for i := 0; i < 4; i++ {
		resp := sendRaw(t, encl, px1Srv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	sealedSt := px1.Status()
	var sealedEmitted int
	for _, sh := range sealedSt.Shards {
		sealedEmitted += sh.Emitted
	}
	if sealedEmitted == 0 {
		t.Fatal("test setup: no emissions before seal; counters not exercised")
	}
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1Srv.Close()

	// Same-shape restore: per-shard counters are exact.
	same, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(same.Close)
	if err := same.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	sameSt := same.Status()
	for s, sh := range sameSt.Shards {
		if sh.Received != sealedSt.Shards[s].Received || sh.Emitted != sealedSt.Shards[s].Emitted {
			t.Fatalf("shard %d counters %d/%d after restore, sealed %d/%d",
				s, sh.Received, sh.Emitted, sealedSt.Shards[s].Received, sealedSt.Shards[s].Emitted)
		}
	}

	// Resharded restore (2 → 3): totals are preserved.
	reshardCfg := cfg
	reshardCfg.Shards = 3
	resharded, err := NewSharded(reshardCfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resharded.Close)
	if err := resharded.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	var wantRecv, wantEmit, gotRecv, gotEmit int
	for _, sh := range sealedSt.Shards {
		wantRecv += sh.Received
		wantEmit += sh.Emitted
	}
	for _, sh := range resharded.Status().Shards {
		gotRecv += sh.Received
		gotEmit += sh.Emitted
	}
	if gotRecv != wantRecv || gotEmit != wantEmit {
		t.Fatalf("resharded counter totals %d/%d, sealed %d/%d", gotRecv, gotEmit, wantRecv, wantEmit)
	}

	// Finish the round on the same-shape restore; the pending emissions
	// must ride along — equivalence proves nothing was dropped.
	sameSrv := httptest.NewServer(same.Handler())
	t.Cleanup(sameSrv.Close)
	for i := 4; i < clients; i++ {
		resp := sendRaw(t, encl, sameSrv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, same)
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("restored pending emissions lost: aggregate != classic mean")
	}
}

// TestDeliveryPermanentRejectQuarantines: a downstream that definitively
// rejects a batch (4xx) must not be retried forever — the entry is
// quarantined and the queue keeps moving.
func TestDeliveryPermanentRejectQuarantines(t *testing.T) {
	platform, encl := fixtures(t)
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "schema mismatch", http.StatusBadRequest)
	}))
	t.Cleanup(reject.Close)

	dir := t.TempDir()
	px, err := NewSharded(ShardedConfig{
		Upstream: reject.URL, K: 1, RoundSize: 2, Shards: 1, Seed: 67,
		OutboxDir: dir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	for i := 0; i < 2; i++ {
		resp := sendRaw(t, encl, pxSrv.URL, "", testArch().New(int64(70+i)).SnapshotParams())
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	// The rejected entry leaves the queue (Flush returns) without ever
	// being counted as forwarded, and the evidence lands in a .bad file.
	flushTier(t, px)
	st := px.Status()
	if st.OutboxPending != 0 || st.Forwarded != 0 {
		t.Fatalf("pending/forwarded = %d/%d, want 0/0 (quarantined, not delivered)", st.OutboxPending, st.Forwarded)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".bad") {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("%d quarantined entries, want 1", bad)
	}
}

// TestDeliveryBatchIncompatibleWithOpenRound: a batch whose items cannot
// be mixed into the epoch's established model structure is rejected
// whole (nothing counted), so the upstream can safely quarantine it.
func TestDeliveryBatchIncompatibleWithOpenRound(t *testing.T) {
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, RoundSize: 8, Shards: 1, Seed: 73,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// Establish the epoch's structure with one participant update.
	resp := sendRaw(t, encl, pxSrv.URL, "", testArch().New(2).SnapshotParams())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed update: %s", resp.Status)
	}

	// A batch of a DIFFERENT architecture: every item fails to mix.
	other, err := nn.EncodeParamSet(nn.NewMLP("other", 3, []int{2}, 2).New(1).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.BatchEnvelope{Updates: [][]byte{other, other}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ct := establishFor(t, encl, enc)
	req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderHop, "1")
	req.Header.Set(wire.HeaderBatch, "incompatible-batch")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("incompatible batch returned %s, want 400", resp2.Status)
	}
	st := px.Status()
	if st.HopReceived != 0 || st.InRound != 1 {
		t.Fatalf("hop_received/in_round = %d/%d, want 0/1 (nothing from the batch counted)", st.HopReceived, st.InRound)
	}
	// The rejected batch released its id (nothing was applied), so a
	// redelivery is processed afresh — and still rejected, not 200-acked
	// as a duplicate of something that never landed.
	req2, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set(wire.HeaderHop, "1")
	req2.Header.Set(wire.HeaderBatch, "incompatible-batch")
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("redelivered rejected batch returned %s, want 400 (id must have been released)", resp3.Status)
	}
}

// TestDeliveryClassifyStatus pins the retry-vs-quarantine mapping the
// dispatcher depends on, now expressed over typed transport errors.
func TestDeliveryClassifyStatus(t *testing.T) {
	isPermanent := func(err error) bool {
		if err == nil {
			return false
		}
		var perm *outbox.PermanentError
		return errors.As(err, &perm)
	}
	permanent := func(code int) bool {
		return isPermanent(classifyDelivery(&transport.StatusError{Code: code, Msg: http.StatusText(code)}))
	}
	for _, code := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusNotFound,
		http.StatusUpgradeRequired, http.StatusLoopDetected} {
		if !permanent(code) {
			t.Fatalf("%d must be permanent (retry can never succeed)", code)
		}
	}
	for _, code := range []int{http.StatusUnauthorized, http.StatusForbidden, http.StatusRequestTimeout,
		http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable} {
		err := classifyDelivery(&transport.StatusError{Code: code, Msg: http.StatusText(code)})
		if err == nil || permanent(code) {
			t.Fatalf("%d must be transient (recoverable downstream state)", code)
		}
	}
	// A 409 is transient (an earlier attempt may still be applying) —
	// unless it carries the stale marker, which proves retrying can
	// never succeed.
	if isPermanent(classifyDelivery(&transport.StatusError{Code: http.StatusConflict})) {
		t.Fatal("plain 409 must stay transient")
	}
	if !isPermanent(classifyDelivery(&transport.StatusError{Code: http.StatusConflict, Stale: true})) {
		t.Fatal("stale 409 must be permanent")
	}
	// Transport-level failures (downstream unreachable) are transient by
	// definition.
	if isPermanent(classifyDelivery(errors.New("connection refused"))) {
		t.Fatal("transport errors must stay transient")
	}
}

// TestDeliveryStatusSurfaces covers the HTTP status endpoint and the
// tier-shape accessors the delivery pipeline extended.
func TestDeliveryStatusSurfaces(t *testing.T) {
	_, px, proxyURL, _ := shardedDeployment(t, 6, 2, 3)
	if px.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", px.Shards())
	}
	resp, err := http.Get(proxyURL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.ShardedProxyStatus
	if err := wire.DecodeJSON(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 || st.RoundSize != 6 || st.Epoch != 0 || st.OutboxPending != 0 {
		t.Fatalf("status over HTTP = %+v", st)
	}
}

// TestAggServerBatchRejectsGarbage: the server-side batch endpoint
// validates the envelope and every item before counting anything.
func TestAggServerBatchRejectsGarbage(t *testing.T) {
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)

	post := func(body []byte) int {
		resp, err := http.Post(srv.URL+"/v1/batch", wire.ContentTypeBatch, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("garbage envelope returned %d, want 400", code)
	}
	badItem, err := wire.BatchEnvelope{Updates: [][]byte{[]byte("not a param set")}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if code := post(badItem); code != http.StatusBadRequest {
		t.Fatalf("malformed batch item returned %d, want 400", code)
	}
	// A well-formed batch of the WRONG architecture is rejected before
	// anything is buffered (422, permanent), and — since nothing was
	// applied — its idempotency id is released for redelivery.
	wrongArch, err := nn.EncodeParamSet(nn.NewMLP("wrong", 3, []int{2}, 2).New(1).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	poison, err := wire.BatchEnvelope{Updates: [][]byte{wrongArch, wrongArch}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	postID := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.HeaderBatch, "poison-batch")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := postID(poison); code != http.StatusUnprocessableEntity {
			t.Fatalf("poison batch attempt %d returned %d, want 422", i, code)
		}
	}
	if agg.Round() != 0 {
		t.Fatalf("rejected batches advanced the round to %d", agg.Round())
	}
	st, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status wire.ServerStatus
	if err := wire.DecodeJSON(st.Body, &status); err != nil {
		t.Fatal(err)
	}
	if status.UpdatesInRound != 0 {
		t.Fatalf("rejected batch items were counted: %d", status.UpdatesInRound)
	}
}

// FuzzDeliveryEquivalence fuzzes the delivery pipeline's core invariant
// over epochs × shard count × round size × transport: every epoch's
// delivered round must average to exactly that epoch's classic-FL mean.
func FuzzDeliveryEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(3), false)
	f.Add(uint8(2), uint8(2), uint8(4), false)
	f.Add(uint8(3), uint8(3), uint8(5), true)
	f.Add(uint8(2), uint8(2), uint8(4), true)
	f.Add(uint8(2), uint8(2), uint8(6), false)
	f.Add(uint8(3), uint8(1), uint8(7), true)
	f.Fuzz(func(t *testing.T, epochs, shards, c uint8, loop bool) {
		e := int(epochs)%3 + 1
		p := int(shards)%4 + 1
		clients := p + int(c)%8
		platform, encl := fixtures(t)
		initial := testArch().New(1).SnapshotParams()

		agg, err := NewAggServer(initial, clients)
		if err != nil {
			t.Fatal(err)
		}
		obs := &roundObserver{}
		agg.SetObserver(obs)
		// Transport dimension: the same pipeline over real HTTP or over
		// the in-process Loopback must deliver identical aggregates.
		tn := newTestNet(t, loop)
		aggEP := tn.serve("loop://agg", agg)
		px, err := NewSharded(ShardedConfig{
			Upstream: aggEP, K: 1, RoundSize: clients, Shards: p,
			Seed:      int64(e*100 + p*10 + clients),
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			Transport: tn.cfgTransport(),
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		pxEP := tn.serve("loop://front", px)

		// Every client holds one session across epochs: its first update
		// is the establish frame, every later one a data frame.
		sessions := make([]*enclave.Session, clients)
		for i := range sessions {
			if sessions[i], err = enclave.NewSession(encl.PublicKey()); err != nil {
				t.Fatal(err)
			}
		}
		sent := make([][]nn.ParamSet, e)
		for epoch := 0; epoch < e; epoch++ {
			sent[epoch] = perturbed(initial, clients, float64(epoch*1000))
			for i, u := range sent[epoch] {
				sendSessionTyped(t, tn.tr(), sessions[i], pxEP, fmt.Sprintf("c%d", i), u)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := px.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		waitServerRound(t, agg, e)

		obs.mu.Lock()
		defer obs.mu.Unlock()
		if len(obs.recs) != e {
			t.Fatalf("observer saw %d rounds, want %d", len(obs.recs), e)
		}
		for epoch, rec := range obs.recs {
			want, err := nn.Average(sent[epoch])
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn.Average(rec.Updates)
			if err != nil {
				t.Fatal(err)
			}
			if !got.ApproxEqual(want, 1e-9) {
				t.Fatalf("epoch %d (P=%d C=%d): delivered mean != classic mean", epoch, p, clients)
			}
		}
	})
}
