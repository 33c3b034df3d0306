package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"mixnn/internal/core"
	"mixnn/internal/experiment"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
)

// testRound returns one round of distinct updates of the benchmark's model
// and the sent counts that say each was acknowledged once.
func testRound(t *testing.T) ([]nn.ParamSet, []int) {
	t.Helper()
	arch := experiment.PerfModels(experiment.ScaleQuick)[0].Arch
	pool := make([]nn.ParamSet, roundSize)
	sent := make([]int, roundSize)
	for i := range pool {
		pool[i] = arch.New(int64(i)).SnapshotParams()
		sent[i] = 1
	}
	return pool, sent
}

// mixed runs the round through the paper's stream mixer with the
// benchmark's k, as one proxy shard would.
func mixed(t *testing.T, pool []nn.ParamSet) []nn.ParamSet {
	t.Helper()
	out, err := core.StreamTransform{K: mixK}.Apply(pool, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func observe(t *testing.T, pool, updates []nn.ParamSet) *observer {
	t.Helper()
	obs, err := newObserver(pool, roundSize)
	if err != nil {
		t.Fatal(err)
	}
	obs.ObserveRound(fl.RoundRecord{Updates: updates})
	return obs
}

func TestCheckAcceptsMixedRound(t *testing.T) {
	pool, sent := testRound(t)
	v, err := observe(t, pool, mixed(t, pool)).check(pool, sent, mixK)
	if err != nil {
		t.Fatalf("a mixed, complete round failed the gate: %v", err)
	}
	if !v.Conserved || v.Slots != roundSize || v.IntactFrac > v.IntactBound {
		t.Fatalf("verdict %+v", v)
	}
}

func TestCheckRejectsPassThrough(t *testing.T) {
	pool, sent := testRound(t)
	v, err := observe(t, pool, pool).check(pool, sent, mixK)
	if err == nil || !strings.Contains(err.Error(), "intact_frac") {
		t.Fatalf("an unmixed round passed the gate (err %v)", err)
	}
	if v.IntactFrac != 1 || !v.Conserved {
		t.Fatalf("a pass-through conserves the mean and keeps every update intact; verdict %+v", v)
	}
}

func TestCheckRejectsDroppedUpdate(t *testing.T) {
	pool, sent := testRound(t)
	m := mixed(t, pool)
	obs, err := newObserver(pool, roundSize)
	if err != nil {
		t.Fatal(err)
	}
	obs.ObserveRound(fl.RoundRecord{Updates: m[1:]})
	if _, err := obs.check(pool, sent, mixK); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("a round missing one update passed the gate (err %v)", err)
	}
}

func TestCheckRejectsAlteredValue(t *testing.T) {
	pool, sent := testRound(t)
	m := mixed(t, pool)
	// Change a value the fingerprint does not sample: only conservation
	// can see it.
	m[0] = m[0].Clone()
	m[0].Layers[2].Tensors[0].Data()[1] += 1e-6
	if _, err := observe(t, pool, m).check(pool, sent, mixK); err == nil || !strings.Contains(err.Error(), "mean") {
		t.Fatalf("an altered update passed the gate (err %v)", err)
	}
}

func TestIntactBound(t *testing.T) {
	for _, c := range []struct {
		k, layers int
		want      float64
	}{{8, 5, 1.0 / 64}, {8, 2, 1.0 / 8}, {4, 6, 1.0 / 64}} {
		if got := intactBound(c.k, c.layers); got != c.want {
			t.Errorf("intactBound(%d, %d) = %g, want %g", c.k, c.layers, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{start: ms(0), end: ms(3)},  // clipped to the round's start at 1
		{start: ms(2), end: ms(4)},  // overlaps the first
		{start: ms(6), end: ms(7)},  // after a gap of 2
		{start: ms(8), end: ms(12)}, // clipped to the round's end at 10
	}
	if got := covered(spans, interval{ms(1), ms(10)}); got != ms(6) {
		t.Fatalf("covered = %v, want 6ms", got)
	}
}
