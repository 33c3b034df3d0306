package proxy

import (
	"context"
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
	"mixnn/internal/nn"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// gatedRemoteShard is remoteShardFixture with a gatedServer in front of
// the peer's handler, so a test can take ONE peer of a multi-shard
// topology offline while the rest of the tier keeps running. Attestation
// happens before the caller closes the gate (the gate only blocks POSTs,
// and the handshake is a GET, but the ordering keeps the fixture honest).
func gatedRemoteShard(t *testing.T, platform *enclave.Platform, upstream string, roundSize int, seed int64) (*ShardedProxy, *gatedServer, string, RemoteShard) {
	t.Helper()
	encl, err := enclave.New(enclave.Config{CodeIdentity: fmt.Sprintf("shard-enclave-%d", seed), RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	px, err := NewSharded(ShardedConfig{
		Upstream: upstream, K: 1, RoundSize: roundSize, Shards: 1, Seed: seed,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	gate := &gatedServer{next: px.Handler()}
	srv := httptest.NewServer(gate)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key, err := AttestHopOver(ctx, transport.NewHTTP(nil), srv.URL, platform.AttestationPublicKey(), encl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	return px, gate, srv.URL, RemoteShard{Key: key}
}

func laneStatus(st wire.ShardedProxyStatus, dest string) (wire.OutboxLaneStatus, bool) {
	for _, ls := range st.OutboxLanes {
		if ls.Dest == dest {
			return ls, true
		}
	}
	return wire.OutboxLaneStatus{}, false
}

// TestDeliveryLaneIsolationDeadPeer is the acceptance e2e of the
// per-destination lane split: one remote peer of a three-shard tier is
// down for N rounds while the aggregation-server lane and the healthy
// peer's lane keep delivering within normal backoff time. The old single
// ordered queue wedged ALL of them behind the dead peer's first entry.
// After the peer recovers, the parked backlog drains and the aggregate
// still equals the classic mean at 1e-9 — degradation, not loss.
func TestDeliveryLaneIsolationDeadPeer(t *testing.T) {
	const c, epochs = 6, 3
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Three shards, quota 2 each: local, a healthy peer, a doomed peer.
	pxHealthy, addrHealthy, rsHealthy := remoteShardFixture(t, platform, aggSrv.URL, 2, 201)
	_, gate, addrDead, rsDead := gatedRemoteShard(t, platform, aggSrv.URL, 2, 202)
	gate.SetDown(true)

	front, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 203,
		Routing:    route.ModeHashQuota,
		ShardSpecs: []route.ShardSpec{{}, {Addr: addrHealthy}, {Addr: addrDead}},
		RemoteShards: map[string]RemoteShard{
			addrHealthy: rsHealthy,
			addrDead:    rsDead,
		},
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		DeliveryWorkers: 3,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	frontSrv := httptest.NewServer(front.Handler())
	t.Cleanup(frontSrv.Close)

	// N full rounds ingest while the peer is dead: every epoch commits one
	// entry per destination, and the dead peer's entries sit BETWEEN the
	// healthy ones in global sequence order.
	var sent []nn.ParamSet
	for e := 0; e < epochs; e++ {
		updates := perturbed(initial, c, float64(300+40*e))
		sent = append(sent, updates...)
		for i, u := range updates {
			resp := sendRaw(t, encl, frontSrv.URL, fmt.Sprintf("lane-%d-%d", e, i), u)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("epoch %d send %d: %s", e, i, resp.Status)
			}
		}
	}

	// The healthy lanes must complete while the dead peer is STILL down:
	// agg + healthy-peer deliveries for all N epochs, the dead lane
	// holding its full backlog. 10s against millisecond backoffs is
	// "normal backoff time" with an enormous margin.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := front.Status()
		deadLane, _ := laneStatus(st, addrDead)
		aggLane, _ := laneStatus(st, "")
		healthyLane, _ := laneStatus(st, addrHealthy)
		if aggLane.Pending == 0 && aggLane.Delivered == epochs &&
			healthyLane.Pending == 0 && healthyLane.Delivered == epochs &&
			pxHealthy.Status().HopReceived == 2*epochs {
			if deadLane.Pending != epochs {
				t.Fatalf("dead lane pending = %d, want %d (one entry per epoch)", deadLane.Pending, epochs)
			}
			if deadLane.Failures == 0 || deadLane.BackoffMs <= 0 {
				t.Fatalf("dead lane stat %+v, want recorded failures and a backoff", deadLane)
			}
			if aggLane.BackoffMs != 0 || healthyLane.BackoffMs != 0 {
				t.Fatalf("healthy lanes report backoff (agg %v, peer %v), want 0", aggLane.BackoffMs, healthyLane.BackoffMs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy lanes did not deliver during the peer outage: status %+v", st.OutboxLanes)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Peer recovers: the parked lane drains and every update lands
	// exactly once. Rounds at the server recompose across lanes, so the
	// invariant is conservation + the overall layer-wise mean (mixing
	// preserves the multiset of layers, hence the mean).
	gate.SetDown(false)
	flushTier(t, front, pxHealthy)
	waitServerRound(t, agg, epochs)

	obs.mu.Lock()
	var delivered []nn.ParamSet
	for r, rec := range obs.recs {
		if len(rec.Updates) != c {
			obs.mu.Unlock()
			t.Fatalf("server round %d carried %d updates, want %d (lost or duplicated)", r, len(rec.Updates), c)
		}
		delivered = append(delivered, rec.Updates...)
	}
	obs.mu.Unlock()
	if len(delivered) != epochs*c {
		t.Fatalf("server saw %d updates, want %d", len(delivered), epochs*c)
	}
	wantMean, err := nn.Average(sent)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := nn.Average(delivered)
	if err != nil {
		t.Fatal(err)
	}
	if !gotMean.ApproxEqual(wantMean, 1e-9) {
		t.Fatal("layer-wise mean diverged across the dead-peer outage and recovery")
	}
}

// TestDeliveryLaneCrashRestartProgress proves per-lane delivery is
// exactly-once across a crash: the peer refuses the peer lane's batch
// while the agg lane completes; the proxy crashes with only the peer
// entry on disk; the restarted proxy delivers that batch exactly once
// and the round closes with the classic mean.
func TestDeliveryLaneCrashRestartProgress(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// The peer refuses every batch until the gate opens.
	peerEncl, err := enclave.New(enclave.Config{CodeIdentity: "shard-enclave-210", RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: 2, Shards: 1, Seed: 210,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, peerEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peer.Close)
	var (
		mu       sync.Mutex
		accepted int
		refused  int
		gateOpen bool
	)
	peerGate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			ok := gateOpen
			if ok {
				accepted++
			} else {
				refused++
			}
			mu.Unlock()
			if !ok {
				http.Error(w, "peer outage", http.StatusServiceUnavailable)
				return
			}
		}
		peer.Handler().ServeHTTP(w, r)
	})
	peerSrv := httptest.NewServer(peerGate)
	t.Cleanup(peerSrv.Close)
	actx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
	key, err := AttestHopOver(actx, transport.NewHTTP(nil), peerSrv.URL, platform.AttestationPublicKey(), peerEncl.Measurement())
	acancel()
	if err != nil {
		t.Fatal(err)
	}

	outboxDir := filepath.Join(t.TempDir(), "outbox")
	cfg := ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 211,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: peerSrv.URL}},
		RemoteShards: map[string]RemoteShard{peerSrv.URL: {Key: key}},
		OutboxDir:    outboxDir,
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	px1Srv := httptest.NewServer(px1.Handler())
	updates := perturbed(initial, c, 500)
	for i, u := range updates {
		resp := sendRaw(t, encl, px1Srv.URL, fmt.Sprintf("cr-%d", i), u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}

	// Wait until the independent lanes reach the crash point: the agg
	// lane fully delivered (its batch straight to the server), the peer
	// lane's batch refused at least once.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := px1.Status()
		aggLane, _ := laneStatus(st, "")
		mu.Lock()
		n := refused
		mu.Unlock()
		if aggLane.Pending == 0 && aggLane.Delivered == 1 && n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lanes did not reach the crash point: agg %+v, peer refused %d", st.OutboxLanes, n)
		}
		time.Sleep(time.Millisecond)
	}

	// Crash. On disk: only the peer entry remains — the agg lane's entry
	// was acked and removed.
	px1Srv.Close()
	px1.Close()
	var ents int
	names, err := os.ReadDir(outboxDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), ".ent") {
			ents++
		}
	}
	if ents != 1 {
		t.Fatalf("crash left %d entries, want 1 (peer lane only)", ents)
	}

	// Restart over the same outbox; the peer recovers. The resumed lane
	// must deliver its batch exactly once.
	mu.Lock()
	gateOpen = true
	mu.Unlock()
	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	flushTier(t, px2, peer)
	waitServerRound(t, agg, 1)
	mu.Lock()
	total := accepted
	mu.Unlock()
	if total != 1 {
		t.Fatalf("peer accepted %d POSTs, want exactly 1 (the peer lane's batch)", total)
	}
	if hr := peer.Status().HopReceived; hr != 2 {
		t.Fatalf("peer ingested %d hop updates, want 2", hr)
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged across the per-lane crash-resume")
	}
}
