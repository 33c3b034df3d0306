package client_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/proxy"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// attestCounter wraps a real proxy and counts attestation handshakes,
// delegating everything to the wrapped Server.
type attestCounter struct {
	transport.Server
	n atomic.Int32
}

func (a *attestCounter) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	a.n.Add(1)
	return a.Server.HandleAttest(ctx, nonce)
}

// blockingIngress wraps a real proxy and parks HandleUpdate on a gate,
// so a test can hold the peer's loopback workers busy; every other
// operation (attestation included) passes through.
type blockingIngress struct {
	transport.Server
	entered chan struct{}
	release chan struct{}
}

func (b *blockingIngress) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Server.HandleUpdate(ctx, req)
}

// twoProxyTier stands up an agg server plus two real single-shard
// proxies (same code identity, so one (authority, measurement) pin
// covers both) over lb, registering them as primaryEP/backupEP via the
// given wrappers.
func twoProxyTier(t *testing.T, lb *transport.Loopback, primary, backup func(transport.Server) transport.Server) (*enclave.Platform, *enclave.Enclave, *proxy.ShardedProxy, *proxy.ShardedProxy) {
	t.Helper()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := proxy.NewAggServer(testUpdate(), 4)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://agg", agg)
	mk := func(id string, seed int64) (*enclave.Enclave, *proxy.ShardedProxy) {
		encl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-failover-test"}, platform)
		if err != nil {
			t.Fatal(err)
		}
		px, err := proxy.NewSharded(proxy.ShardedConfig{
			Upstream: "loop://agg", K: 2, RoundSize: 4, Shards: 1,
			Seed: seed, Transport: lb,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		return encl, px
	}
	enclA, pxA := mk("a", 1)
	_, pxB := mk("b", 2)
	lb.Register("loop://primary", primary(pxA))
	lb.Register("loop://backup", backup(pxB))
	return platform, enclA, pxA, pxB
}

func ident(s transport.Server) transport.Server { return s }

// wedgePrimary parks one raw send inside the gated handler and then
// fills the depth-1 queue with a second, returning a WaitGroup that
// drains once gate.release is closed. The two sends MUST be staged
// sequentially — launched together they race into the depth-1 queue,
// and if the second arrives before the worker dequeues the first it
// bounces ErrBusy, leaving the queue empty once the worker parks in
// the gate (and a Queued>=1 poll waiting forever).
func wedgePrimary(lb *transport.Loopback, gate *blockingIngress) *sync.WaitGroup {
	wedged := &sync.WaitGroup{}
	send := func() {
		defer wedged.Done()
		lb.SendUpdate(context.Background(), "loop://primary", transport.UpdateRequest{Body: []byte("wedge")})
	}
	wedged.Add(1)
	go send()
	<-gate.entered // the worker owns the first send
	wedged.Add(1)
	go send()
	for { // wait until the second fills the queue
		queued := false
		for _, s := range lb.Stats() {
			if s.Endpoint == "loop://primary" && s.Queued >= 1 {
				queued = true
			}
		}
		if queued {
			return wedged
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverAttestSingleFlight pins the duplicate-attest fix: many
// goroutines sharing one Participant fail over simultaneously (the
// primary is dead), and the fallback proxy must see exactly ONE
// attestation handshake — the stampede waits on the single flight
// instead of each sender re-running the handshake and re-pinning the
// key over its neighbour's. Run under -race, this also pins the
// key-map writes the old stampede raced on.
func TestFailoverAttestSingleFlight(t *testing.T) {
	lb := transport.NewLoopback()
	defer lb.Close()
	counter := &attestCounter{}
	platform, encl, _, pxB := twoProxyTier(t, lb, ident, func(s transport.Server) transport.Server {
		counter.Server = s
		return counter
	})
	lb.Unregister("loop://primary") // the primary is dead from the start

	c, err := client.New(client.Config{
		Proxies: []string{"loop://primary", "loop://backup"}, Server: "loop://agg",
		Transport: lb, Authority: platform.AttestationPublicKey(), Measurement: encl.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const senders = 32
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, senders)
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = c.SendUpdate(ctx, testUpdate())
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d failed over unsuccessfully: %v", i, err)
		}
	}
	if got := counter.n.Load(); got != 1 {
		t.Fatalf("failover storm ran %d attestation handshakes against the fallback, want exactly 1 (single-flight)", got)
	}
	if got := pxB.Status().Received; got != senders {
		t.Fatalf("fallback ingested %d updates, want %d", got, senders)
	}
}

// TestSendUpdateFailsOverOnBusy: a primary whose bounded ingress queue
// is full rejects with ErrBusy — transient and provably-not-ingested —
// and the SDK fails over to the next proxy instead of surfacing an
// error or risking a duplicate.
func TestSendUpdateFailsOverOnBusy(t *testing.T) {
	lb := transport.NewLoopbackWith(transport.LoopbackOptions{QueueDepth: 1, Workers: 1})
	defer lb.Close()
	gate := &blockingIngress{entered: make(chan struct{}, 8), release: make(chan struct{})}
	platform, encl, _, pxB := twoProxyTier(t, lb, func(s transport.Server) transport.Server {
		gate.Server = s
		return gate
	}, ident)

	c, err := client.New(client.Config{
		Proxies: []string{"loop://primary", "loop://backup"}, Server: "loop://agg",
		Transport: lb, Authority: platform.AttestationPublicKey(), Measurement: encl.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Wedge the primary: one request inside the handler, one filling the
	// depth-1 queue. (Raw sends — they park in the gate before the real
	// proxy would decode them.) Staged sequentially: the second send may
	// only go out after the worker owns the first, or the two race into
	// the depth-1 queue and one bounces ErrBusy, leaving nothing queued.
	wedged := wedgePrimary(lb, gate)

	if err := c.SendUpdate(ctx, testUpdate()); err != nil {
		t.Fatalf("send with a busy primary must fail over cleanly, got %v", err)
	}
	if got := pxB.Status().Received; got != 1 {
		t.Fatalf("backup ingested %d updates, want 1 (the failed-over send)", got)
	}
	close(gate.release)
	wedged.Wait()
}

// establishDelayer wraps a real proxy and holds every session
// ESTABLISH frame ("MXSE" magic) for delay before handling it, so
// data frames wrapped under a just-created session reliably race
// ahead of the establish that would make the enclave recognise them.
type establishDelayer struct {
	transport.Server
	delay time.Duration
}

func (d *establishDelayer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	if len(req.Body) >= 4 && string(req.Body[:4]) == "MXSE" {
		time.Sleep(d.delay)
	}
	return d.Server.HandleUpdate(ctx, req)
}

// TestSendUpdateConcurrentSessionEstablishRace pins the re-establish
// retry against wire reordering: many goroutines share ONE participant,
// so all but the first wrap data frames under a session whose establish
// frame is still in flight (held by the delayer), and every one of them
// draws a typed 428. The retry must resend a SELF-CONTAINED establish
// frame — re-wrapping through the session cache can pick up a
// neighbouring retrier's session whose own establish is also still in
// flight, drawing a second 428 that surfaces to the caller.
func TestSendUpdateConcurrentSessionEstablishRace(t *testing.T) {
	lb := transport.NewLoopback()
	defer lb.Close()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-sess-race-test"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := proxy.NewAggServer(testUpdate(), 8)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://agg", agg)
	px, err := proxy.NewSharded(proxy.ShardedConfig{
		Upstream: "loop://agg", K: 2, RoundSize: 8, Shards: 1,
		Seed: 1, Transport: lb,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	lb.Register("loop://front", &establishDelayer{Server: px, delay: 5 * time.Millisecond})

	c, err := client.New(client.Config{
		Proxies: []string{"loop://front"}, Server: "loop://agg",
		Transport: lb, Authority: platform.AttestationPublicKey(), Measurement: encl.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const senders = 8
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, senders)
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = c.SendUpdate(ctx, testUpdate())
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d surfaced a session rejection the retry should absorb: %v", i, err)
		}
	}
	if got := px.Status().Received; got != senders {
		t.Fatalf("proxy ingested %d updates, want %d", got, senders)
	}
}

// TestSendUpdateBusyBackoffBounded pins the busy-retry fix: against a
// tier whose EVERY proxy answers ErrBusy (wedged bounded queue, no
// fallback), SendUpdate must keep retrying under jittered exponential
// backoff until its context expires — a handful of walks over hundreds
// of milliseconds, not the thousands a hot spin produces (the
// participant-scale load run measured 10.4M busy rejections) and not
// the single walk the old code gave up after.
func TestSendUpdateBusyBackoffBounded(t *testing.T) {
	lb := transport.NewLoopbackWith(transport.LoopbackOptions{QueueDepth: 1, Workers: 1})
	defer lb.Close()
	gate := &blockingIngress{entered: make(chan struct{}, 8), release: make(chan struct{})}
	platform, encl, _, _ := twoProxyTier(t, lb, func(s transport.Server) transport.Server {
		gate.Server = s
		return gate
	}, ident)

	// Single-proxy list: no fallback to absorb the send, so every walk
	// ends busy.
	c, err := client.New(client.Config{
		Proxies: []string{"loop://primary"}, Server: "loop://agg",
		Transport: lb, Authority: platform.AttestationPublicKey(), Measurement: encl.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attest BEFORE wedging the queue (the single worker about to park in
	// the gate serves attestation too).
	attCtx, attCancel := context.WithTimeout(context.Background(), time.Minute)
	defer attCancel()
	if err := c.Attest(attCtx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}

	// Wedge the primary: one request inside the handler, one filling the
	// depth-1 queue (staged sequentially, see wedgePrimary).
	wedged := wedgePrimary(lb, gate)

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	err = c.SendUpdate(ctx, testUpdate())
	close(gate.release)
	wedged.Wait()
	if err == nil {
		t.Fatal("send against a fully wedged tier returned nil")
	}
	// Every walk the client ran was rejected at the door and counted by
	// the peer's busy counter; the two wedge sends never saw the counter
	// (one entered the handler, one queued).
	walks := uint64(0)
	for _, s := range lb.Stats() {
		if s.Endpoint == "loop://primary" {
			walks = s.Busy
		}
	}
	if walks < 2 {
		t.Fatalf("client gave up after %d walks; the busy backoff must retry within the context budget", walks)
	}
	if walks > 16 {
		t.Fatalf("client ran %d walks in 400ms: busy backoff is not backing off (hot spin)", walks)
	}
}

// TestBouncedEstablishLeavesNoSession pins the establish-ack rule: a
// session counts as established only once one of its frames is
// acknowledged. The only proxy is wedged, so the send's first establish
// frame bounces with ErrBusy (provably not ingested) and the SDK backs
// off; the gate opens during that backoff. The retry walk must open a
// FRESH establish — wrapping a data frame under the bounced session
// draws a 428 from an enclave that never saw the session, and pays a
// second RSA wrap on the re-establish.
func TestBouncedEstablishLeavesNoSession(t *testing.T) {
	lb := transport.NewLoopbackWith(transport.LoopbackOptions{QueueDepth: 1, Workers: 1})
	defer lb.Close()
	gate := &blockingIngress{entered: make(chan struct{}, 8), release: make(chan struct{})}
	platform, encl, pxA, _ := twoProxyTier(t, lb, func(s transport.Server) transport.Server {
		gate.Server = s
		return gate
	}, ident)

	c, err := client.New(client.Config{
		Proxies: []string{"loop://primary"}, Server: "loop://agg",
		Transport: lb, Authority: platform.AttestationPublicKey(), Measurement: encl.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Attest before wedging: the worker about to park serves attestation.
	if err := c.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	wedged := wedgePrimary(lb, gate)
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	defer release()
	stop := make(chan struct{})
	defer close(stop)
	go func() { // open the gate once the send's first establish bounced
		for {
			for _, s := range lb.Stats() {
				if s.Endpoint == "loop://primary" && s.Busy >= 1 {
					release()
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	if err := c.SendUpdate(ctx, testUpdate()); err != nil {
		t.Fatalf("send must succeed once the wedge clears, got %v", err)
	}
	wedged.Wait()
	st := pxA.Status()
	if st.Received != 1 {
		t.Fatalf("proxy ingested %d updates, want 1", st.Received)
	}
	if st.SessionMisses != 0 {
		t.Fatalf("retry wrapped a data frame under the bounced session: %d session misses, want 0", st.SessionMisses)
	}
	if st.SessionsEstablished != 1 {
		t.Fatalf("enclave established %d sessions, want 1", st.SessionsEstablished)
	}
}
