// Activity recognition over a real network: this example deploys the full
// MixNN pipeline on localhost — aggregation server, enclave-hosted MixNN
// proxy, and federated participants training on the MotionSense-like
// activity-recognition task. Every update travels over HTTP, encrypted for
// the attested enclave, and is layer-mixed before reaching the server.
//
//	go run ./examples/activity
package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"mixnn"
	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/proxy"
)

const rounds = 3

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec, err := mixnn.DatasetByKey("motionsense", mixnn.ScaleQuick, 5)
	if err != nil {
		return err
	}
	parts := spec.Source.Participants(5)
	cfg := spec.FL
	if err := cfg.Validate(); err != nil {
		return err
	}

	// --- Aggregation server ---------------------------------------------
	agg, err := proxy.NewAggServer(spec.Arch.New(5^0x6d78).SnapshotParams(), len(parts))
	if err != nil {
		return err
	}
	serverURL, stopServer, err := serve(agg.Handler())
	if err != nil {
		return err
	}
	defer stopServer()

	// --- MixNN proxy in a simulated enclave ------------------------------
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	encl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-activity-demo"}, platform)
	if err != nil {
		return err
	}
	px, err := proxy.NewSharded(proxy.ShardedConfig{
		Upstream:  serverURL,
		K:         len(parts) / 2,
		RoundSize: len(parts),
		Seed:      42,
	}, encl, platform)
	if err != nil {
		return err
	}
	defer px.Close()
	proxyURL, stopProxy, err := serve(px.Handler())
	if err != nil {
		return err
	}
	defer stopProxy()

	meas := encl.Measurement()
	fmt.Printf("deployed: server %s, proxy %s (enclave %s...)\n\n",
		serverURL, proxyURL, hex.EncodeToString(meas[:8]))

	// --- Participants -----------------------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	clients := make([]*fl.Client, len(parts))
	for i, p := range parts {
		clients[i] = fl.NewClient(p, spec.Arch, cfg)
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, len(parts))
		for i := range parts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = participate(ctx, clients[i], proxyURL, serverURL, platform, encl, r)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("participant %d round %d: %w", i, r, err)
			}
		}

		// Delivery is asynchronous: sends are only ACCEPTED into the
		// mixing tier, so wait for the server to close the round before
		// evaluating the new global model.
		for agg.Round() <= r {
			select {
			case <-ctx.Done():
				return fmt.Errorf("round %d never closed: %w", r+1, ctx.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
		// Evaluate the new global model on every participant's test data.
		global := agg.Global()
		sum := 0.0
		for _, c := range clients {
			acc, err := c.TestAccuracy(global)
			if err != nil {
				return err
			}
			sum += acc
		}
		fmt.Printf("round %d complete: mean activity-recognition accuracy %.3f\n", r+1, sum/float64(len(clients)))
	}

	st := px.Status()
	fmt.Printf("\nproxy stats: %d updates received, %d forwarded, update size %.1f KB\n",
		st.Received, st.Forwarded, float64(st.UpdateBytes)/1024)
	fmt.Printf("per-update cost: decrypt %.3f ms, store %.3f ms, mix %.3f ms\n",
		st.DecryptMillis, st.StoreMillis, st.MixMillis)
	return nil
}

// participate performs one participant's round: attest, fetch, train, send.
func participate(ctx context.Context, c *fl.Client, proxyURL, serverURL string, platform *enclave.Platform, encl *enclave.Enclave, round int) error {
	t, err := client.New(client.Config{Proxies: []string{proxyURL}, Server: serverURL})
	if err != nil {
		return err
	}
	if err := t.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		return err
	}
	_, global, err := t.WaitForRound(ctx, round, 50*time.Millisecond)
	if err != nil {
		return err
	}
	update, err := c.LocalTrain(global)
	if err != nil {
		return err
	}
	return t.SendUpdate(ctx, update)
}

// serve starts an HTTP server on an ephemeral localhost port.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}
