package proxy

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/wire"
)

// shardedDeployment stands up an aggregation server fronted by a sharded
// proxy tier over httptest.
func shardedDeployment(t *testing.T, expect, k, shards int) (*AggServer, *ShardedProxy, string, string) {
	t.Helper()
	platform, encl := fixtures(t)

	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), expect)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: k, RoundSize: expect, Shards: shards, Seed: 42,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	return agg, px, pxSrv.URL, aggSrv.URL
}

// sendRaw encrypts one update for the enclave and posts it directly,
// optionally tagging the participant id (the Participant client does not
// set HeaderClient).
func sendRaw(t *testing.T, encl *enclave.Enclave, proxyURL, clientID string, ps nn.ParamSet) *http.Response {
	t.Helper()
	raw, err := nn.EncodeParamSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	ct := establishFor(t, encl, raw)
	req, err := http.NewRequest(http.MethodPost, proxyURL+"/v1/update", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeUpdate)
	if clientID != "" {
		req.Header.Set(wire.HeaderClient, clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestShardedProxyRoundClosure(t *testing.T) {
	platform, encl := fixtures(t)
	const clients, shards = 6, 2
	agg, px, proxyURL, serverURL := shardedDeployment(t, clients, 2, shards)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	updates := make([]nn.ParamSet, clients)
	for i := 0; i < clients; i++ {
		p := newParticipant(proxyURL, serverURL)
		if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
			t.Fatalf("participant %d attest: %v", i, err)
		}
		_, model, err := p.FetchModel(ctx)
		if err != nil {
			t.Fatal(err)
		}
		u := model.Clone()
		u.Layers[0].Tensors[0].AddScalar(float64(i + 1))
		updates[i] = u
		if err := p.SendUpdate(ctx, u); err != nil {
			t.Fatalf("participant %d send: %v", i, err)
		}
	}

	flushTier(t, px)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("sharded mixing broke aggregation equivalence over the network")
	}

	st := px.Status()
	if len(st.Shards) != shards {
		t.Fatalf("status reports %d shards, want %d", len(st.Shards), shards)
	}
	if st.Received != clients || st.Forwarded != clients || st.Rounds != 1 || st.InRound != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.Epoch != 1 || st.OutboxPending != 0 || st.BatchesSent != 1 {
		t.Fatalf("delivery status epoch/pending/batches = %d/%d/%d, want 1/0/1", st.Epoch, st.OutboxPending, st.BatchesSent)
	}
	// Round-robin routing splits 6 updates evenly over 2 shards (the
	// per-shard counters survive the epoch swap at round close), and the
	// close drains both buffers.
	for _, sh := range st.Shards {
		if sh.Received != clients/shards {
			t.Fatalf("shard %d received %d, want %d", sh.Shard, sh.Received, clients/shards)
		}
		if sh.Buffered != 0 {
			t.Fatalf("shard %d still buffers %d after round close", sh.Shard, sh.Buffered)
		}
		if sh.K != 2 {
			t.Fatalf("shard %d k = %d, want 2", sh.Shard, sh.K)
		}
	}
}

func TestShardedProxyStickyClientRouting(t *testing.T) {
	_, encl := fixtures(t)
	_, px, proxyURL, _ := shardedDeployment(t, 8, 2, 4)

	// The same client id must always land on the same shard.
	ps := testArch().New(2).SnapshotParams()
	var shard string
	for i := 0; i < 3; i++ {
		resp := sendRaw(t, encl, proxyURL, "client-42", ps)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
		got := resp.Header.Get(wire.HeaderShard)
		if got == "" {
			t.Fatal("no shard header on response")
		}
		if shard == "" {
			shard = got
		} else if got != shard {
			t.Fatalf("client-42 routed to shard %s then %s", shard, got)
		}
	}
	if px.Status().Received != 3 {
		t.Fatalf("received = %d, want 3", px.Status().Received)
	}
}

// TestShardedProxyHopLimit: cascade depth enters a proxy only through
// the gated /v1/batch endpoint (whose depth rules
// TestDeliveryBatchEndpointForgedHop pins). The single-update /v1/hop
// endpoint is not served, and a depth header on the participant
// endpoint is rejected outright.
func TestShardedProxyHopLimit(t *testing.T) {
	_, encl := fixtures(t)
	_, px, proxyURL, _ := shardedDeployment(t, 4, 2, 2)

	raw, err := nn.EncodeParamSet(testArch().New(3).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	ct := establishFor(t, encl, raw)
	for _, hop := range []string{"1", strconv.Itoa(DefaultMaxHops + 1)} {
		req, err := http.NewRequest(http.MethodPost, proxyURL+"/v1/hop", bytes.NewReader(ct))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.HeaderHop, hop)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/v1/hop at depth %s returned %s, want 404", hop, resp.Status)
		}
	}
	if got := px.Status().HopReceived; got != 0 {
		t.Fatalf("rejected hop still counted: %d", got)
	}

	// Participants must not be able to forge cascade depth: any
	// X-Mixnn-Hop on /v1/update is rejected outright.
	req, err := http.NewRequest(http.MethodPost, proxyURL+"/v1/update", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderHop, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged hop header on /v1/update returned %s, want 400", resp.Status)
	}
}

// TestShardedProxyConcurrentRequests is the shard router's race test: a
// full round delivered from concurrent goroutines must still close with
// exact aggregation equivalence.
func TestShardedProxyConcurrentRequests(t *testing.T) {
	_, encl := fixtures(t)
	const clients, shards = 32, 4
	agg, px, proxyURL, _ := shardedDeployment(t, clients, 4, shards)

	base := testArch().New(1).SnapshotParams()
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		u := base.Clone()
		u.Layers[0].Tensors[0].AddScalar(float64(i + 1))
		updates[i] = u
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := sendRaw(t, encl, proxyURL, fmt.Sprintf("client-%d", i), updates[i])
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("participant %d: %s", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	flushTier(t, px)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("concurrent sharded round broke aggregation equivalence")
	}
	st := px.Status()
	if st.Received != clients || st.Forwarded != clients {
		t.Fatalf("received %d forwarded %d, want %d each", st.Received, st.Forwarded, clients)
	}
}

// TestCascadeHopWatermark: forwarded depth must be one past the highest
// incoming depth of the round, not the triggering request's depth —
// otherwise a proxy cycle would reset the counter each round and the
// MaxHops guard would never fire. With batched forwarding the whole
// round arrives as ONE /v1/batch POST stamped with the watermark.
func TestCascadeHopWatermark(t *testing.T) {
	platform, encl := fixtures(t)

	type batchReq struct {
		hop, batchID string
		body         []byte
	}
	var (
		mu      sync.Mutex
		batches []batchReq
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			t.Errorf("unexpected downstream path %s", r.URL.Path)
			http.Error(w, "wrong path", http.StatusNotFound)
			return
		}
		body, err := wire.ReadBody(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		batches = append(batches, batchReq{
			hop: r.Header.Get(wire.HeaderHop), batchID: r.Header.Get(wire.HeaderBatch), body: body,
		})
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(stub.Close)

	px, err := NewSharded(ShardedConfig{
		NextHop: stub.URL, NextHopKey: enclave.PinnedHop(encl.PublicKey(), encl.Measurement()),
		K: 2, RoundSize: 4, Shards: 2, Seed: 42,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	raw, err := nn.EncodeParamSet(testArch().New(4).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.BatchEnvelope{Updates: [][]byte{raw}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ct := establishFor(t, encl, enc)
	// Three participant updates (depth 0) and a one-update cascade batch
	// at depth 2 close the round; the delivered batch must be stamped 3.
	for i := 0; i < 3; i++ {
		resp := sendRaw(t, encl, pxSrv.URL, "", testArch().New(4).SnapshotParams())
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("participant update %d: %s", i, resp.Status)
		}
	}
	req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderHop, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cascade batch: %s", resp.Status)
	}
	flushTier(t, px)

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 {
		t.Fatalf("next hop saw %d batch POSTs, want 1 (the whole round coalesced)", len(batches))
	}
	got := batches[0]
	if got.hop != "3" {
		t.Fatalf("batch stamped hop %q, want 3 (watermark 2 + 1)", got.hop)
	}
	if got.batchID == "" {
		t.Fatal("batch POST carries no idempotency id")
	}
	// The body is the round's BatchEnvelope wrapped for the hop enclave.
	plain, err := encl.Decrypt(got.body)
	if err != nil {
		t.Fatalf("batch body not wrapped for the hop enclave: %v", err)
	}
	env, err := wire.DecodeBatchEnvelope(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Updates) != 4 {
		t.Fatalf("batch carries %d updates, want the whole round of 4", len(env.Updates))
	}
	for i, u := range env.Updates {
		if _, err := nn.DecodeParamSet(u); err != nil {
			t.Fatalf("batch update %d does not decode: %v", i, err)
		}
	}
}

func TestNewShardedValidation(t *testing.T) {
	platform, encl := fixtures(t)
	cases := []ShardedConfig{
		{},                     // no upstream, no next hop
		{Upstream: "http://x"}, // no round size
		{Upstream: "http://x", RoundSize: 2, Shards: 3}, // shards > round size
		{NextHop: "http://next", RoundSize: 4},          // next hop without key
	}
	for i, cfg := range cases {
		if _, err := NewSharded(cfg, encl, platform); err == nil {
			t.Fatalf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewSharded(ShardedConfig{Upstream: "http://x", RoundSize: 4}, nil, nil); err == nil {
		t.Fatal("nil enclave accepted")
	}
}
