// Command tierbench is the mixing tier's end-to-end benchmark. It
// deploys the real tier over transport.Loopback from the public
// constructors, drives synchronous federated-learning rounds through
// it, checks what reaches the aggregation server, and prints every
// metric by name with its unit. The last line of its output is one JSON
// object: the end-to-end metrics with -trace 0, the per-layer metrics of
// a separate traced window with -trace 1. README.md describes the
// workloads and metrics.
//
//	go run . -workload warm-direct -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/nn"
	"mixnn/internal/stats"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

const (
	// roundSize is C, the updates per round at the aggregation server.
	// A round-closing send is 1/64 of all sends, so send_ms_p99 falls
	// inside the closing sends rather than on the edge between them and
	// the rest.
	roundSize = 64
	// mixK is the stream mixer's list capacity on every proxy.
	mixK = 8
	// poolSize updates are generated from the seed; send n carries
	// update n mod poolSize. It exceeds a round, so a round's updates
	// are distinct, and is prime, so a participant's update changes from
	// pass to pass.
	poolSize = 257
	// extraKeygens is how many enclave.New calls a run times before its
	// set-ups, in addition to those of its deployments; see setupSeconds.
	extraKeygens = 32
	// runTimeout bounds a whole run; the benchmark must exit within 180s.
	runTimeout = 170 * time.Second
)

// workload is one tier shape and participant population. Each round's
// sends come from warm participants in turn, except coldPerRound sends,
// spread evenly over the round, that come from cold participants in
// turn. A cold set that fills the rest of the enclave session cache
// (warm + cold > enclave.DefaultSessionCacheEntries) is evicted before
// each of its participants sends again, so every cold send takes the
// 428 → re-establish path while the warm sends keep hitting the cache.
type workload struct {
	warm, cold   int
	coldPerRound int
	cascade      bool
	// setups is how many times the run deploys and warms the tier; the
	// last deployment is measured. See setupSeconds for setup_s.
	setups int
}

var workloads = map[string]workload{
	// Well under the enclave session cache: steady state is one AES-GCM
	// wrap and decrypt per update.
	"warm-direct": {warm: 512, setups: 5},
	// A warm set as on warm-direct plus a cold set that overflows the
	// session cache: one send in 16 re-establishes over RSA.
	"mixed-sessions": {warm: 512, cold: enclave.DefaultSessionCacheEntries, coldPerRound: 4, setups: 3},
	// A quarter more participants than the session cache holds: the LRU
	// misses on every send and every update re-establishes over RSA.
	"cold-sessions": {cold: enclave.DefaultSessionCacheEntries * 5 / 4, coldPerRound: roundSize, setups: 3},
	// Front → {local lane, relay} → cascade → agg: batch ingress, hop
	// sessions and three delivery legs.
	"cascade-relay": {warm: 512, cascade: true, setups: 5},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named result.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // samples behind a percentile; 0 for other metrics
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tierbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "warm-direct, mixed-sessions, cold-sessions or cascade-relay")
	seed := fs.Int64("seed", 1, "seed of the generated updates and of the mixing randomness")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tierbench: want -workload in {warm-direct, mixed-sessions, cold-sessions, cascade-relay}, -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	b := &bench{name: *name, w: w, seed: *seed, senders: runtime.NumCPU(), stdout: stdout}
	res, err := b.run(ctx, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "tierbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "tierbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	name    string
	w       workload
	seed    int64
	senders int
	stdout  io.Writer
}

// run sets the tier up, measures it and checks it. A nil result means
// the run stopped before it could measure; a result with Correct false
// failed the correctness gate.
func (b *bench) run(ctx context.Context, seconds time.Duration, traced bool) (*result, error) {
	arch := experiment.PerfModels(experiment.ScaleQuick)[0]
	rng := rand.New(rand.NewSource(b.seed))
	pool := make([]nn.ParamSet, poolSize)
	for i := range pool {
		pool[i] = arch.Arch.New(rng.Int63()).SnapshotParams()
	}
	initial := arch.Arch.New(rng.Int63()).SnapshotParams()
	raw, err := nn.EncodeParamSet(pool[0])
	if err != nil {
		return nil, err
	}
	b.stamp(arch.Name, len(raw), seconds, traced)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		t        *tier
		g        *generator
		obs      *observer
		rest     []float64 // each set-up's time outside enclave.New
		keygens  []float64 // every timed enclave.New call
		heapBase uint64
	)
	if keygens, err = timeEnclaveNew(extraKeygens); err != nil {
		return nil, err
	}
	bufs := newSamples()
	for s := 0; s < b.w.setups; s++ {
		if g != nil {
			g.stop()
			t.close()
			t, g = nil, nil
		}
		// The live heap before deploy holds the harness alone: the pool,
		// the sample buffers and the observer. heap_live_mib is the
		// growth over it.
		if obs, err = newObserver(pool, roundSize); err != nil {
			return nil, err
		}
		heapBase = liveHeap()
		t0 := time.Now()
		if t, g, err = b.setUp(ctx, pool, initial, obs, bufs, tr); err != nil {
			return nil, err
		}
		total := time.Since(t0)
		for _, d := range t.enclaveNew {
			total -= d
			keygens = append(keygens, d.Seconds())
		}
		rest = append(rest, total.Seconds())
	}
	setupS := setupSeconds(rest, keygens, len(t.enclaveNew))
	fmt.Fprintf(b.stdout, "setup rest_s=%v enclave_new_s=%v\n", rest, keygens)
	defer t.close()
	defer g.stop()

	var metrics []metric
	attempts0 := g.attempts
	if !traced {
		win, err := g.measure(ctx, seconds)
		if err != nil {
			return failed(g, attempts0), err
		}
		metrics = endToEnd(win, heapBase, setupS)
	} else {
		untraced, err := g.measure(ctx, seconds/2)
		if err != nil {
			return failed(g, attempts0), err
		}
		before := snapshot(t)
		tr.on.Store(true)
		win, err := g.measure(ctx, seconds/2)
		tr.on.Store(false)
		if err != nil {
			return failed(g, attempts0), err
		}
		metrics = perLayer(tr, win, untraced, before, snapshot(t))
	}

	v, cerr := obs.check(pool, g.sent, mixK)
	fmt.Fprintf(b.stdout, "check slots=%d sent=%d conserved=%t intact_frac=%.6f intact_bound=%.6f\n",
		v.Slots, v.Sent, v.Conserved, v.IntactFrac, v.IntactBound)
	res := &result{Correct: cerr == nil, Attempted: g.attempts - attempts0, Failed: g.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(b.stdout, "metric send_fail_ratio %g ratio (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		if m.Samples > 0 {
			fmt.Fprintf(b.stdout, "metric %s %g %s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(b.stdout, "metric %s %g %s\n", m.Name, m.Value, m.Unit)
		}
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return res, cerr
}

// setUp deploys the tier and drives the warm-up pass over the whole
// population, which must pass the correctness gate.
func (b *bench) setUp(ctx context.Context, pool []nn.ParamSet, initial nn.ParamSet, obs *observer, bufs *samples, tr *tracer) (*tier, *generator, error) {
	t, err := deploy(ctx, b.w, b.seed, initial, obs, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: %w", err)
	}
	g := newGenerator(ctx, t, obs, pool, bufs, tr, b.senders, b.w.coldPerRound)
	err = g.pass(ctx)
	if err == nil {
		_, err = obs.check(pool, g.sent, mixK)
	}
	if err != nil {
		g.stop()
		t.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return t, g, nil
}

// setupSeconds is setup_s: the median time of a set-up outside its
// enclave.New calls, plus the tier's number of enclaves times the median
// of every enclave.New call the run timed. enclave.New generates an
// RSA-2048 key, whose prime search takes from a tenth to five times its
// median depending on the key; the median of a few whole set-ups
// follows that luck, while the median of many calls repeats, and a
// change to any part of set-up still moves the sum.
func setupSeconds(rest, keygens []float64, enclaves int) float64 {
	return stats.Percentile(rest, 50) + float64(enclaves)*stats.Percentile(keygens, 50)
}

// timeEnclaveNew times n enclave.New calls made as deploy makes them.
func timeEnclaveNew(n int) ([]float64, error) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for range n {
		t0 := time.Now()
		if _, err := enclave.New(enclave.Config{CodeIdentity: "tierbench-keygen"}, platform); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// failed is the result of a run that stopped on an error: no metrics,
// and the sends since attempts0.
func failed(g *generator, attempts0 int) *result {
	return &result{Attempted: g.attempts - attempts0, Failed: g.failed, Metrics: map[string]metricValue{}}
}

// endToEnd turns an untraced window into the end-to-end metrics;
// heapBase is the live heap before the measured deployment.
func endToEnd(w window, heapBase uint64, setupS float64) []metric {
	n := float64(w.updates)
	return []metric{
		{Name: "updates_per_s", Value: n / w.wall.Seconds(), Unit: "updates/s"},
		{Name: "round_ms_p50", Value: stats.Percentile(w.roundMs, 50), Unit: "ms", Samples: len(w.roundMs)},
		{Name: "round_ms_p90", Value: stats.Percentile(w.roundMs, 90), Unit: "ms", Samples: len(w.roundMs)},
		{Name: "send_ms_p50", Value: stats.Percentile(w.sendMs, 50), Unit: "ms", Samples: len(w.sendMs)},
		{Name: "send_ms_p99", Value: stats.Percentile(w.sendMs, 99), Unit: "ms", Samples: len(w.sendMs)},
		{Name: "cpu_ms_per_update", Value: w.cpu.Seconds() * 1000 / n, Unit: "ms"},
		{Name: "allocs_per_update", Value: float64(w.mallocs) / n, Unit: "count"},
		{Name: "alloc_bytes_per_update", Value: float64(w.bytes) / n, Unit: "B"},
		{Name: "heap_live_mib", Value: (float64(w.heapLive) - float64(heapBase)) / (1 << 20), Unit: "MiB"},
		{Name: "setup_s", Value: setupS, Unit: "s"},
	}
}

// counters is a snapshot of the tier's public counters.
type counters struct {
	status   map[string]wire.ShardedProxyStatus
	enclaves []enclave.Stats
	peers    []transport.LoopbackPeerStats
}

func snapshot(t *tier) counters {
	c := counters{status: map[string]wire.ShardedProxyStatus{}, peers: t.lb.Stats()}
	for name, p := range t.proxies {
		c.status[name] = p.Status()
	}
	for _, e := range t.enclaves {
		c.enclaves = append(c.enclaves, e.Stats())
	}
	return c
}

// perLayer combines the traced window's spans with the public counters
// read around it.
func perLayer(tr *tracer, w, untraced window, before, after counters) []metric {

	var est, hits, misses, evicts uint64
	for i, a := range after.enclaves {
		p := before.enclaves[i]
		est += a.SessionsEstablished - p.SessionsEstablished
		hits += a.SessionHits - p.SessionHits
		misses += a.SessionMisses - p.SessionMisses
		evicts += a.SessionEvictions - p.SessionEvictions
	}

	// Status reports lifetime means; weighting them by the ingests behind
	// them gives the window's means across every proxy.
	var ingests, decryptUs, storeMs, mixMs float64
	for name, a := range after.status {
		p := before.status[name]
		na, np := float64(a.Received+a.HopReceived), float64(p.Received+p.HopReceived)
		ingests += na - np
		decryptUs += a.DecryptMicros*na - p.DecryptMicros*np
		storeMs += a.StoreMillis*na - p.StoreMillis*np
		mixMs += a.MixMillis*na - p.MixMillis*np
	}
	var recv []float64
	for i, s := range after.status[frontEP].Shards {
		recv = append(recv, float64(s.Received-before.status[frontEP].Shards[i].Received))
	}
	var busy uint64
	peak := 0
	for i, a := range after.peers {
		busy += a.Busy - before.peers[i].Busy
		peak = max(peak, a.Peak)
	}

	tracedUps := float64(w.updates) / w.wall.Seconds()
	untracedUps := float64(untraced.updates) / untraced.wall.Seconds()
	ms := append(tr.spanMetrics(w.firstRnd, w.ivs), []metric{
		{Name: "enclave.rsa_establishes", Value: float64(est), Unit: "count"},
		{Name: "enclave.session_hit_rate", Value: ratio(float64(hits), float64(hits+misses)), Unit: "ratio"},
		{Name: "enclave.session_evictions", Value: float64(evicts), Unit: "count"},
		{Name: "proxy.decrypt_us_mean", Value: ratio(decryptUs, ingests), Unit: "us"},
		{Name: "proxy.store_ms_mean", Value: ratio(storeMs, ingests), Unit: "ms"},
		{Name: "proxy.mix_ms_mean", Value: ratio(mixMs, ingests), Unit: "ms"},
		{Name: "route.shard_skew", Value: ratio(slices.Max(recv), stats.Mean(recv)), Unit: "ratio"},
		{Name: "transport.busy_total", Value: float64(busy), Unit: "count"},
		{Name: "transport.queue_peak", Value: float64(peak), Unit: "count"},
		{Name: "trace.overhead_frac", Value: 1 - ratio(tracedUps, untracedUps), Unit: "ratio"},
	}...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// stamp prints the host and the run's parameters, so every result
// carries the machine and the commit it was measured on.
func (b *bench) stamp(model string, updateBytes int, seconds time.Duration, traced bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(),
		"go": runtime.Version(), "commit": commit, "seed": b.seed, "workload": b.name,
		"warm": b.w.warm, "cold": b.w.cold, "cold_per_round": b.w.coldPerRound, "round_size": roundSize, "k": mixK, "senders": b.senders,
		"pool": poolSize, "setups": b.w.setups, "extra_keygens": extraKeygens, "model": model, "update_bytes": updateBytes,
		"seconds": seconds.Seconds(), "trace": traced,
	}
	line, _ := json.Marshal(host) // a map of strings, numbers and bools always encodes
	fmt.Fprintf(b.stdout, "host %s\n", line)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
