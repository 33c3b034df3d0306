// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus the ablations called out in DESIGN.md §9.
//
// Figure benches run one miniature experiment per iteration and attach the
// headline quantity (accuracy, inference accuracy, neighbour count) via
// b.ReportMetric, so `go test -bench` both times the pipeline and shows
// the reproduced result. See EXPERIMENTS.md for paper-vs-measured numbers.
package mixnn

import (
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnn/internal/attack"
	"mixnn/internal/core"
	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/nn"
	"mixnn/internal/privacy"
	"mixnn/internal/stats"
)

// benchSpec returns a reduced quick spec so one bench iteration is one
// short federated run.
func benchSpec(b *testing.B, key string, rounds int) experiment.DatasetSpec {
	b.Helper()
	spec, err := experiment.DatasetByKey(key, experiment.ScaleQuick, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.FL.Rounds = rounds
	spec.AttackEpochs = 2
	spec.AuxPerClass = 48
	return spec
}

// --- Figure 5: utility per arm -------------------------------------------

func BenchmarkFig5Utility(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense", "mobiact", "lfw"} {
		for _, arm := range experiment.Arms() {
			b.Run(fmt.Sprintf("%s/%s", dataset, arm.Key), func(b *testing.B) {
				spec := benchSpec(b, dataset, 2)
				var acc float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunUtility(spec, arm, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					acc = res.FinalAccuracy()
				}
				b.ReportMetric(acc, "accuracy")
			})
		}
	}
}

// --- Figure 6: per-participant accuracy CDF ------------------------------

func BenchmarkFig6AccuracyCDF(b *testing.B) {
	spec := benchSpec(b, "cifar10", 2)
	var median float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunUtility(spec, experiment.Arms()[0], int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		per := res.PerClientAt(spec.FL.Rounds - 1)
		_ = stats.CDF(per)
		median = stats.Percentile(per, 50)
	}
	b.ReportMetric(median, "median-accuracy")
}

// --- Figure 7: active ∇Sim inference per arm ------------------------------

func BenchmarkFig7Inference(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense", "mobiact", "lfw"} {
		for _, arm := range experiment.Arms() {
			b.Run(fmt.Sprintf("%s/%s", dataset, arm.Key), func(b *testing.B) {
				spec := benchSpec(b, dataset, 2)
				var acc float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					acc = res.FinalAccuracy()
				}
				b.ReportMetric(acc, "inference-accuracy")
			})
		}
	}
}

// --- Figure 8: background-knowledge ratio sweep ---------------------------

func BenchmarkFig8Background(b *testing.B) {
	for _, ratio := range []float64{0.2, 1.0} {
		b.Run(fmt.Sprintf("ratio=%.1f", ratio), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, experiment.Arms()[0], true, ratio, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// --- Figure 9: close-neighbour CDF ----------------------------------------

func BenchmarkFig9Neighbours(b *testing.B) {
	for _, dataset := range []string{"cifar10", "motionsense"} {
		b.Run(dataset, func(b *testing.B) {
			spec := benchSpec(b, dataset, 1)
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunNeighbours(spec, experiment.DefaultNeighbourRadius, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, n := range res.Neighbours {
					total += n
				}
				mean = float64(total) / float64(len(res.Neighbours))
			}
			b.ReportMetric(mean, "mean-neighbours")
		})
	}
}

// --- §6.5 system performance ----------------------------------------------

// BenchmarkProxyDecrypt isolates the enclave decryption of one
// CIFAR-model-sized update — the dominant §6.5 cost (0.17 of 0.19 s in the
// paper's setup). The update travels as a session establish frame, so
// each decrypt is the RSA-OAEP key unwrap plus the AES-GCM open.
func BenchmarkProxyDecrypt(b *testing.B) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	update := experiment.PerfModels(experiment.ScaleQuick)[0].Arch.New(1).SnapshotParams()
	raw, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sess.Wrap(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encl.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// cryptoBenchArm is one measured arm of the ingress-crypto benchmark,
// persisted in BENCH_crypto.json (see writeCryptoBench).
type cryptoBenchArm struct {
	Name          string  `json:"name"`
	NsPerUpdate   float64 `json:"ns_per_update"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	Updates       int     `json:"updates"`
}

var cryptoBench struct {
	sync.Mutex
	Model       string
	UpdateBytes int
	Arms        []cryptoBenchArm
}

func recordCryptoArm(b *testing.B, model string, updateBytes, updates int, elapsed time.Duration) {
	b.Helper()
	arm := cryptoBenchArm{
		Name:          b.Name(),
		NsPerUpdate:   float64(elapsed.Nanoseconds()) / float64(updates),
		UpdatesPerSec: float64(updates) / elapsed.Seconds(),
		Updates:       updates,
	}
	b.ReportMetric(arm.NsPerUpdate, "ns/update")
	b.ReportMetric(arm.UpdatesPerSec, "updates/sec")
	cryptoBench.Lock()
	defer cryptoBench.Unlock()
	cryptoBench.Model = model
	cryptoBench.UpdateBytes = updateBytes
	for i := range cryptoBench.Arms {
		if cryptoBench.Arms[i].Name == arm.Name {
			cryptoBench.Arms[i] = arm
			arm.Name = ""
		}
	}
	if arm.Name != "" {
		cryptoBench.Arms = append(cryptoBench.Arms, arm)
	}
}

func writeCryptoBench(b *testing.B) {
	b.Helper()
	cryptoBench.Lock()
	defer cryptoBench.Unlock()
	if len(cryptoBench.Arms) == 0 {
		return
	}
	var establish, session float64
	for _, arm := range cryptoBench.Arms {
		switch {
		case strings.HasSuffix(arm.Name, "/establish"):
			establish = arm.NsPerUpdate
		case strings.HasSuffix(arm.Name, "/session"):
			session = arm.NsPerUpdate
		}
	}
	snap := struct {
		Model                     string           `json:"model"`
		UpdateBytes               int              `json:"update_bytes"`
		Arms                      []cryptoBenchArm `json:"arms"`
		SpeedupSessionVsEstablish float64          `json:"speedup_session_vs_establish,omitempty"`
	}{cryptoBench.Model, cryptoBench.UpdateBytes, cryptoBench.Arms, 0}
	if establish > 0 && session > 0 {
		snap.SpeedupSessionVsEstablish = establish / session
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_crypto.json", append(enc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProxyCrypto measures the full per-update crypto round trip —
// sender wrap plus enclave decrypt, both in-loop. The establish arm is
// what a cold participant pays: a fresh session per update, so every
// update carries an RSA-OAEP wrap and unwrap. The session arm is a warm
// participant: RSA amortised into one establish handshake, steady state
// is one AES-GCM pass each side. The gcm-floor arm is the raw seal+open of the
// same payload with no framing: the theoretical lower bound the session
// path should sit within a small constant factor of. Writes
// BENCH_crypto.json so CI can gate on the steady-state cost.
func BenchmarkProxyCrypto(b *testing.B) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{}, platform)
	if err != nil {
		b.Fatal(err)
	}
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	raw, err := nn.EncodeParamSet(model.Arch.New(1).SnapshotParams())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("establish", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess, err := enclave.NewSession(encl.PublicKey())
			if err != nil {
				b.Fatal(err)
			}
			ct, err := sess.Wrap(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := encl.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, model.Name, len(raw), b.N, time.Since(start))
	})

	b.Run("session", func(b *testing.B) {
		sess, err := enclave.NewSession(encl.PublicKey())
		if err != nil {
			b.Fatal(err)
		}
		est, err := sess.Wrap(raw) // one-time handshake, amortised away
		if err != nil {
			b.Fatal(err)
		}
		if _, err := encl.Decrypt(est); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, err := sess.Wrap(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := encl.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, model.Name, len(raw), b.N, time.Since(start))
	})

	b.Run("gcm-floor", func(b *testing.B) {
		key := make([]byte, 32)
		if _, err := crand.Read(key); err != nil {
			b.Fatal(err)
		}
		blk, err := aes.NewCipher(key)
		if err != nil {
			b.Fatal(err)
		}
		aead, err := cipher.NewGCM(blk)
		if err != nil {
			b.Fatal(err)
		}
		nonce := make([]byte, aead.NonceSize())
		sealBuf := make([]byte, 0, len(raw)+aead.Overhead())
		openBuf := make([]byte, 0, len(raw))
		b.SetBytes(int64(len(raw)))
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(nonce, uint64(i)+1)
			ct := aead.Seal(sealBuf[:0], nonce, raw, nil)
			if _, err := aead.Open(openBuf[:0], nonce, ct, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordCryptoArm(b, model.Name, len(raw), b.N, time.Since(start))
	})

	writeCryptoBench(b)
}

// BenchmarkProxyStore isolates decode-and-buffer (the §6.5 "storage" step).
func BenchmarkProxyStore(b *testing.B) {
	update := experiment.PerfModels(experiment.ScaleQuick)[0].Arch.New(1).SnapshotParams()
	raw, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.DecodeParamSet(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyMix isolates the mixing operation (the §6.5 0.03 s step).
func BenchmarkProxyMix(b *testing.B) {
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	updates := make([]nn.ParamSet, 8)
	for i := range updates {
		updates[i] = arch.New(int64(i)).SnapshotParams()
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BatchMix(updates, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyMixSharded scales the mixing step across shard counts:
// one round of C updates through the sharded stream-mixer tier for
// P ∈ {1, 2, 4}. The per-layer work per shard shrinks with P, which is
// the horizontal-scaling claim of the sharded deployment.
func BenchmarkProxyMixSharded(b *testing.B) {
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	updates := make([]nn.ParamSet, 16)
	for i := range updates {
		updates[i] = arch.New(int64(i)).SnapshotParams()
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			tr := core.ShardedStreamTransform{K: 4, Shards: p}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Apply(updates, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProxyMixShardedHTTP drives the full networked sharded tier —
// concurrent encrypted participants through P shards into a real
// aggregation server — and reports round throughput per shard count.
// The rounds=4 arms exercise cross-round pipelining: ingest of round N+1
// overlaps batched delivery of round N, so per-round time should drop
// relative to rounds=1. Each iteration stands up a fresh deployment (key
// generation, attestation), so ns/op is setup-dominated; the
// authoritative numbers are the reported round-ms / updates-per-sec
// means, which time only the rounds themselves inside RunShardedPerf.
func BenchmarkProxyMixShardedHTTP(b *testing.B) {
	m := experiment.PerfModels(experiment.ScaleQuick)[0]
	for _, p := range []int{1, 2, 4} {
		for _, rounds := range []int{1, 4} {
			b.Run(fmt.Sprintf("shards=%d/rounds=%d", p, rounds), func(b *testing.B) {
				var roundMs, upsPerSec float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunShardedPerf(m.Name, m.Arch, 8, 2, p, false, rounds, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					roundMs += res.RoundMillis
					upsPerSec += res.UpdatesPerSec
				}
				b.ReportMetric(upsPerSec/float64(b.N), "updates/sec")
				b.ReportMetric(roundMs/float64(b.N), "round-ms")
			})
		}
	}
}

// BenchmarkProxyMixShardedTransport runs the identical sharded §6.5
// pipeline under both transports — "http" over real loopback sockets,
// "loopback" over the in-process typed transport — so the delta is
// exactly the serialization tax (HTTP framing, header encode/parse,
// socket copies): the mixer, enclave crypto and outbox delivery are the
// same code on both arms. Loopback's updates/sec should beat HTTP's.
func BenchmarkProxyMixShardedTransport(b *testing.B) {
	m := experiment.PerfModels(experiment.ScaleQuick)[0]
	for _, kind := range []string{"http", "loopback"} {
		b.Run(kind, func(b *testing.B) {
			var roundMs, upsPerSec float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunShardedPerfTransport(m.Name, m.Arch, 8, 2, 2, false, 4, "", kind, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				roundMs += res.RoundMillis
				upsPerSec += res.UpdatesPerSec
			}
			b.ReportMetric(upsPerSec/float64(b.N), "updates/sec")
			b.ReportMetric(roundMs/float64(b.N), "round-ms")
		})
	}
}

// BenchmarkOutboxLaneDeadPeer measures the per-destination outbox lanes
// under the failure they exist for: one remote peer of a three-destination
// tier is unreachable for the whole run, and the reported updates/sec is
// the delivery throughput of the HEALTHY lanes during the outage. Before
// the lane split this number was ~0 — the single ordered queue wedged
// behind the dead peer's first entry. The dead-lane-depth metric is the
// parked backlog (one sealed entry per round: degradation, not loss).
//
// The run also writes BENCH_outbox.json next to the test binary's working
// directory so CI can persist the numbers as a comparable artifact.
func BenchmarkOutboxLaneDeadPeer(b *testing.B) {
	m := experiment.PerfModels(experiment.ScaleQuick)[0]
	var (
		ups, drainMs, depth float64
		last                experiment.LanePerfResult
	)
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLanePerf(m.Name, m.Arch, 6, 2, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		ups += res.UpdatesPerSec
		drainMs += res.DrainMillis
		depth += float64(res.DeadLaneDepth)
		last = res
	}
	n := float64(b.N)
	b.ReportMetric(ups/n, "updates/sec")
	b.ReportMetric(drainMs/n, "healthy-drain-ms")
	b.ReportMetric(depth/n, "dead-lane-depth")
	writeOutboxBench(b, outboxBenchSnapshot{
		Bench:            "BenchmarkOutboxLaneDeadPeer",
		Model:            last.Model,
		Participants:     last.Participants,
		Shards:           last.Shards,
		Rounds:           last.Rounds,
		HealthyUpdates:   last.HealthyUpdates,
		UpdatesPerSec:    ups / n,
		HealthyDrainMs:   drainMs / n,
		DeadLaneDepth:    depth / n,
		DeadLaneFailures: last.DeadLaneFailures,
		Iterations:       b.N,
	})
}

// outboxBenchSnapshot is the persisted shape of BENCH_outbox.json — the
// repo's first committed perf baseline. Keep fields append-only so old
// baselines stay comparable.
type outboxBenchSnapshot struct {
	Bench            string  `json:"bench"`
	Model            string  `json:"model"`
	Participants     int     `json:"participants"`
	Shards           int     `json:"shards"`
	Rounds           int     `json:"rounds"`
	HealthyUpdates   int     `json:"healthy_updates"`
	UpdatesPerSec    float64 `json:"updates_per_sec"`
	HealthyDrainMs   float64 `json:"healthy_drain_ms"`
	DeadLaneDepth    float64 `json:"dead_lane_depth"`
	DeadLaneFailures uint64  `json:"dead_lane_failures"`
	Iterations       int     `json:"iterations"`
}

func writeOutboxBench(b *testing.B, snap outboxBenchSnapshot) {
	b.Helper()
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_outbox.json", append(enc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProxyEndToEnd reproduces the §6.5 table: encrypted updates
// through a real HTTP proxy into a real aggregation server, for both model
// sizes.
func BenchmarkProxyEndToEnd(b *testing.B) {
	for _, m := range experiment.PerfModels(experiment.ScaleQuick) {
		b.Run(m.Name, func(b *testing.B) {
			var res experiment.PerfResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiment.RunSystemPerf(m.Name, m.Arch, 4, 2, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.UpdateBytes)/1024, "update-KB")
			b.ReportMetric(res.DecryptMillis, "decrypt-ms")
			b.ReportMetric(res.MixMillis, "mix-ms")
			b.ReportMetric(res.EndToEndMillis, "e2e-ms")
		})
	}
}

// --- Ablations (DESIGN.md §9) ----------------------------------------------

// BenchmarkAblationGranularity compares mixing granularities: per-layer
// (paper), per-tensor (finer) and whole-model (sender unlinking only) by
// the inference accuracy they leave to an active ∇Sim.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []core.Granularity{core.GranularityLayer, core.GranularityTensor, core.GranularityModel} {
		b.Run(g.String(), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.Arm{Key: "mixnn-" + g.String(), Transform: core.Transform{Granularity: g}}
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationBufferK sweeps the streaming mixer's list capacity k.
func BenchmarkAblationBufferK(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.StreamArm(k)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, arm, true, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationActivePassive compares the two ∇Sim variants on the
// unprotected pipeline.
func BenchmarkAblationActivePassive(b *testing.B) {
	for _, active := range []bool{true, false} {
		name := "passive"
		if active {
			name = "active"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunInference(spec, experiment.Arms()[0], active, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "inference-accuracy")
		})
	}
}

// BenchmarkAblationNoiseScale sweeps the noisy baseline's sigma, the
// trade-off MixNN avoids.
func BenchmarkAblationNoiseScale(b *testing.B) {
	for _, sigma := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("sigma=%.2f", sigma), func(b *testing.B) {
			spec := benchSpec(b, "cifar10", 2)
			arm := experiment.Arm{Key: "noisy", Transform: privacy.NoisyTransform{Sigma: sigma}}
			var acc float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunUtility(spec, arm, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.FinalAccuracy()
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// --- Micro-benchmarks of the core pipeline stages --------------------------

// mixBenchArm is one measured arm of the slab-vs-legacy hot-path
// benchmarks, persisted in BENCH_mix.json (see writeMixBench).
type mixBenchArm struct {
	Name            string  `json:"name"`
	NsPerUpdate     float64 `json:"ns_per_update"`
	AllocsPerUpdate float64 `json:"allocs_per_update"`
	BytesPerUpdate  float64 `json:"bytes_per_update"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	Updates         int     `json:"updates"`
}

// mixBench collects arms across the mixer benchmarks of one `go test
// -bench` run; each parent benchmark rewrites BENCH_mix.json with
// everything collected so far, so a run covering both parents leaves the
// complete before/after picture.
var mixBench struct {
	sync.Mutex
	Model       string        `json:"model"`
	UpdateBytes int           `json:"update_bytes"`
	RoundSize   int           `json:"round_size"`
	Arms        []mixBenchArm `json:"arms"`
}

func recordMixArm(b *testing.B, model string, updateBytes, roundSize, updates int, elapsed time.Duration, mallocs, bytes uint64) {
	b.Helper()
	arm := mixBenchArm{
		Name:            b.Name(),
		NsPerUpdate:     float64(elapsed.Nanoseconds()) / float64(updates),
		AllocsPerUpdate: float64(mallocs) / float64(updates),
		BytesPerUpdate:  float64(bytes) / float64(updates),
		UpdatesPerSec:   float64(updates) / elapsed.Seconds(),
		Updates:         updates,
	}
	b.ReportMetric(arm.AllocsPerUpdate, "allocs/update")
	b.ReportMetric(arm.UpdatesPerSec, "updates/sec")
	mixBench.Lock()
	defer mixBench.Unlock()
	mixBench.Model = model
	mixBench.UpdateBytes = updateBytes
	mixBench.RoundSize = roundSize
	for i := range mixBench.Arms {
		if mixBench.Arms[i].Name == arm.Name {
			mixBench.Arms[i] = arm
			arm.Name = ""
		}
	}
	if arm.Name != "" {
		mixBench.Arms = append(mixBench.Arms, arm)
	}
}

func writeMixBench(b *testing.B) {
	b.Helper()
	mixBench.Lock()
	defer mixBench.Unlock()
	if len(mixBench.Arms) == 0 {
		return
	}
	snap := struct {
		Model       string        `json:"model"`
		UpdateBytes int           `json:"update_bytes"`
		RoundSize   int           `json:"round_size"`
		Arms        []mixBenchArm `json:"arms"`
	}{mixBench.Model, mixBench.UpdateBytes, mixBench.RoundSize, mixBench.Arms}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_mix.json", append(enc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// mixRoundSize is the per-mixer round the hot-path benchmarks cycle:
// every mixRoundSize updates the round closes — drain, encode for the
// outbox, swap to a fresh mixer (recycling the slab in slab mode) —
// exactly the steady-state epoch cycle of the sharded proxy.
const mixRoundSize = 64

// BenchmarkStreamMixerAdd measures the §6.5 store+mix hot path per
// storage mode over the REAL per-update cycle: a fresh wire buffer (the
// decrypt output each request materialises), AddWire into the mixer, and
// at each round close the drain plus the outbox-side re-encode of every
// mixed update. The legacy arm is the pre-slab pipeline (zero-copy
// decode aliasing the buffer, per-emission allocations, EncodeParamSet
// per outgoing update); the slab arm decodes into pooled slab rows and
// re-encodes through the skeleton fast path into a reused buffer.
func BenchmarkStreamMixerAdd(b *testing.B) {
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	update := model.Arch.New(1).SnapshotParams()
	wire, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"legacy", "slab"} {
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pool := core.NewSlabPool()
			newMixer := func() *core.StreamMixer {
				var m *core.StreamMixer
				var err error
				if mode == "slab" {
					m, err = core.NewStreamMixerSlab(8, rng, pool)
				} else {
					m, err = core.NewStreamMixer(8, rng)
				}
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			closeRound := func(m *core.StreamMixer, emitted []nn.ParamSet, encBuf []byte) []byte {
				emitted = append(emitted, m.Drain()...)
				for _, ps := range emitted {
					if mode == "slab" {
						encBuf = encBuf[:0]
						var err error
						if encBuf, err = nn.AppendParamSet(encBuf, ps); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := nn.EncodeParamSet(ps); err != nil {
							b.Fatal(err)
						}
					}
				}
				m.ReleaseSlab()
				return encBuf
			}
			m := newMixer()
			emitted := make([]nn.ParamSet, 0, mixRoundSize)
			encBuf := make([]byte, 0, len(wire))
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The decrypt output is a fresh buffer per request in both
				// modes; the slab arm drops it immediately after the copy,
				// the legacy arm's views pin it until the round closes.
				buf := make([]byte, len(wire))
				copy(buf, wire)
				out, err := m.AddWire(buf)
				if err != nil {
					b.Fatal(err)
				}
				if out != nil {
					emitted = append(emitted, *out)
				}
				if (i+1)%mixRoundSize == 0 {
					encBuf = closeRound(m, emitted, encBuf)
					emitted = emitted[:0]
					m = newMixer()
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			recordMixArm(b, model.Name, len(wire), mixRoundSize, b.N, elapsed,
				ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
		})
	}
	writeMixBench(b)
}

// BenchmarkProxyMixWire is the sharded wire-ingress benchmark: one round
// of raw encoded updates round-robined across P shards (the proxy's
// ingest path minus crypto), per storage mode, including each round's
// drain + outbox re-encode. The slab arms are what a default-config
// sharded proxy runs per update since the slab refactor.
func BenchmarkProxyMixWire(b *testing.B) {
	model := experiment.PerfModels(experiment.ScaleQuick)[0]
	update := model.Arch.New(1).SnapshotParams()
	wire, err := nn.EncodeParamSet(update)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		for _, mode := range []string{"legacy", "slab"} {
			b.Run(fmt.Sprintf("shards=%d/%s", p, mode), func(b *testing.B) {
				pool := core.NewSlabPool()
				newTier := func(epoch int64) []*core.StreamMixer {
					tier := make([]*core.StreamMixer, p)
					for s := range tier {
						rng := rand.New(rand.NewSource(epoch*int64(p) + int64(s)))
						var err error
						if mode == "slab" {
							tier[s], err = core.NewStreamMixerSlab(8, rng, pool)
						} else {
							tier[s], err = core.NewStreamMixer(8, rng)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					return tier
				}
				encode := func(ps nn.ParamSet, encBuf []byte) []byte {
					if mode == "slab" {
						encBuf = encBuf[:0]
						var err error
						if encBuf, err = nn.AppendParamSet(encBuf, ps); err != nil {
							b.Fatal(err)
						}
						return encBuf
					}
					if _, err := nn.EncodeParamSet(ps); err != nil {
						b.Fatal(err)
					}
					return encBuf
				}
				tier := newTier(0)
				epoch := int64(0)
				encBuf := make([]byte, 0, len(wire))
				b.ReportAllocs()
				b.SetBytes(int64(len(wire)))
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf := make([]byte, len(wire))
					copy(buf, wire)
					out, err := tier[i%p].AddWire(buf)
					if err != nil {
						b.Fatal(err)
					}
					if out != nil {
						encBuf = encode(*out, encBuf)
					}
					if (i+1)%mixRoundSize == 0 {
						for _, m := range tier {
							for _, ps := range m.Drain() {
								encBuf = encode(ps, encBuf)
							}
							m.ReleaseSlab()
						}
						epoch++
						tier = newTier(epoch)
					}
				}
				b.StopTimer()
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				recordMixArm(b, model.Name, len(wire), mixRoundSize, b.N, elapsed,
					ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
			})
		}
	}
	writeMixBench(b)
}

func BenchmarkLocalTraining(b *testing.B) {
	spec := benchSpec(b, "cifar10", 1)
	sim, _, err := experiment.BuildFederation(spec, experiment.Arms()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackReferenceTraining(b *testing.B) {
	spec := benchSpec(b, "cifar10", 1)
	adv, err := attack.New(attack.Config{
		Arch:        spec.Arch,
		Source:      spec.Source,
		AuxPerClass: 48,
		Epochs:      1,
		BatchSize:   16,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = adv
	sim, attrs, err := experiment.BuildFederation(spec, experiment.Arms()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.Observer = adv
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunRound(i); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := adv.Accuracy(attrs); err != nil {
		b.Fatal(err)
	}
}
