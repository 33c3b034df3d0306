package main

import (
	"context"
	"fmt"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
)

// Endpoint names double as the tier names the trace reports.
const (
	aggEP     = "agg"
	frontEP   = "front"
	relayEP   = "relay"
	cascadeEP = "cascade"
	clientTag = "client"

	relaySecret   = "tierbench-relay-secret"
	cascadeSecret = "tierbench-cascade-secret"
)

// tier is one deployed mixing tier: every proxy and the aggregation
// server registered in one Loopback, plus the participant population,
// split into its warm and its cold set.
type tier struct {
	lb       *transport.Loopback
	agg      *proxy.AggServer
	proxies  map[string]*proxy.ShardedProxy
	enclaves []*enclave.Enclave
	warm     []*client.Participant
	cold     []*client.Participant
	// enclaveNew is how long each enclave.New call of the deployment
	// took; RSA-2048 key generation makes these the noisiest part of
	// set-up.
	enclaveNew []time.Duration
}

// deploy builds the workload's tier from the public constructors. With
// tr non-nil every transport and server is wrapped in the trace
// decorators; they record nothing until tr.on is set.
func deploy(ctx context.Context, w workload, seed int64, initial nn.ParamSet, obs *observer, tr *tracer) (_ *tier, err error) {
	t := &tier{lb: transport.NewLoopback(), proxies: map[string]*proxy.ShardedProxy{}}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	if t.agg, err = proxy.NewAggServer(initial, roundSize); err != nil {
		return nil, err
	}
	t.agg.SetObserver(obs)
	t.register(tr, aggEP, t.agg)

	// newProxy hosts one proxy in its own production enclave (RSA-2048,
	// default session cache) and registers it under name.
	newProxy := func(name string, cfg proxy.ShardedConfig) (*enclave.Enclave, error) {
		t0 := time.Now()
		encl, err := enclave.New(enclave.Config{CodeIdentity: "tierbench-" + name}, platform)
		if err != nil {
			return nil, err
		}
		t.enclaveNew = append(t.enclaveNew, time.Since(t0))
		cfg.K, cfg.Transport = mixK, t.transport(tr, name)
		cfg.RetryBase, cfg.RetryMax = 2*time.Millisecond, 50*time.Millisecond
		p, err := proxy.NewSharded(cfg, encl, platform)
		if err != nil {
			return nil, err
		}
		t.proxies[name] = p
		t.enclaves = append(t.enclaves, encl)
		t.register(tr, name, p)
		return encl, nil
	}
	var front *enclave.Enclave
	if !w.cascade {
		front, err = newProxy(frontEP, proxy.ShardedConfig{
			Upstream: aggEP, RoundSize: roundSize, Shards: 2, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
	} else {
		// The wiring of experiment.RunLoadgen without its churn and its
		// second front: front → {local lane, relay} → cascade → agg.
		encl, err := newProxy(cascadeEP, proxy.ShardedConfig{
			Upstream: aggEP, RoundSize: roundSize, Shards: 1,
			HopSecret: cascadeSecret, Seed: seed + 11,
		})
		if err != nil {
			return nil, err
		}
		cascadeKey, err := proxy.AttestHopOver(ctx, t.lb, cascadeEP, platform.AttestationPublicKey(), encl.Measurement())
		if err != nil {
			return nil, err
		}
		if encl, err = newProxy(relayEP, proxy.ShardedConfig{
			Upstream: aggEP, NextHop: cascadeEP, NextHopKey: cascadeKey, NextHopSecret: cascadeSecret,
			HopSecret: relaySecret, RoundSize: roundSize / 2, Shards: 1, Seed: seed + 21,
		}); err != nil {
			return nil, err
		}
		relayKey, err := proxy.AttestHopOver(ctx, t.lb, relayEP, platform.AttestationPublicKey(), encl.Measurement())
		if err != nil {
			return nil, err
		}
		if front, err = newProxy(frontEP, proxy.ShardedConfig{
			Upstream: aggEP, NextHop: cascadeEP, NextHopKey: cascadeKey, NextHopSecret: cascadeSecret,
			Routing:      route.ModeHashQuota,
			ShardSpecs:   []route.ShardSpec{{}, {Addr: relayEP}},
			RemoteShards: map[string]proxy.RemoteShard{relayEP: {Key: relayKey, Secret: relaySecret}},
			RoundSize:    roundSize, Seed: seed + 31,
		}); err != nil {
			return nil, err
		}
	}

	clientTr := t.transport(tr, clientTag)
	parts := make([]*client.Participant, w.warm+w.cold)
	t.warm, t.cold = parts[:w.warm], parts[w.warm:]
	for i := range parts {
		if parts[i], err = client.New(client.Config{
			Proxies: []string{frontEP}, Server: aggEP, Transport: clientTr,
			ClientID:  fmt.Sprintf("p-%d", i),
			Authority: platform.AttestationPublicKey(), Measurement: front.Measurement(),
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tier) transport(tr *tracer, name string) transport.Transport {
	if tr == nil {
		return t.lb
	}
	return &tracedTransport{Transport: t.lb, tr: tr, tier: name}
}

func (t *tier) register(tr *tracer, name string, s transport.Server) {
	if tr != nil {
		s = &tracedServer{Server: s, tr: tr, tier: name}
	}
	t.lb.Register(name, s)
}

func (t *tier) close() {
	for _, p := range t.proxies {
		p.Close()
	}
	t.lb.Close()
}
