package core

import (
	"math/rand"
	"testing"

	"mixnn/internal/nn"
)

// encodeAll serialises updates to wire bytes (fresh buffer each — the
// slab ingress takes ownership of the buffer it is handed).
func encodeAll(t testing.TB, updates []nn.ParamSet) [][]byte {
	t.Helper()
	out := make([][]byte, len(updates))
	for i, u := range updates {
		raw, err := nn.EncodeParamSet(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

// TestSlabAddWireBitEquivalent drives the identical update stream through
// a legacy mixer (zero-copy decode + Add) and a slab mixer (AddWire) with
// the same seed: every emission and the round-close drain must be
// BIT-identical, because slab mode changes storage, not mixing decisions.
func TestSlabAddWireBitEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	updates := makeUpdates(23, 3, rng)
	wires := encodeAll(t, updates)

	legacy, err := NewStreamMixer(5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	slab, err := NewStreamMixerSlab(5, rand.New(rand.NewSource(7)), NewSlabPool())
	if err != nil {
		t.Fatal(err)
	}

	var legacyOut, slabOut []nn.ParamSet
	for i := range updates {
		lo, err := legacy.Add(updates[i])
		if err != nil {
			t.Fatal(err)
		}
		so, err := slab.AddWire(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		if (lo == nil) != (so == nil) {
			t.Fatalf("update %d: legacy emitted %v, slab emitted %v", i, lo != nil, so != nil)
		}
		if lo != nil {
			legacyOut = append(legacyOut, *lo)
			slabOut = append(slabOut, *so)
		}
	}
	legacyOut = append(legacyOut, legacy.Drain()...)
	slabOut = append(slabOut, slab.Drain()...)
	if len(legacyOut) != len(updates) || len(slabOut) != len(updates) {
		t.Fatalf("emitted %d legacy / %d slab updates from %d inputs", len(legacyOut), len(slabOut), len(updates))
	}
	for i := range legacyOut {
		if !legacyOut[i].ApproxEqual(slabOut[i], 0) {
			t.Fatalf("output %d differs between legacy and slab storage", i)
		}
	}
	if got, want := slab.Received(), legacy.Received(); got != want {
		t.Fatalf("slab received %d, legacy %d", got, want)
	}
}

// TestSlabWireRoundtripBitExact proves the skeleton encoder closes the
// loop: wire → slab row → AppendWire must reproduce the input bytes
// exactly (the outbox encode path re-emits what ingress absorbed).
func TestSlabWireRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := makeUpdates(1, 4, rng)[0]
	wire, err := nn.EncodeParamSet(u)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := nn.SlabLayoutFromWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, layout.Stride())
	if err := layout.DecodeIntoSlab(row, wire); err != nil {
		t.Fatal(err)
	}
	out, err := layout.AppendWire(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(wire) {
		t.Fatal("AppendWire did not reproduce the input bytes")
	}
}

// TestSlabRejectsForeignStructure pins the header-skeleton check: an
// update of a different model structure must be rejected without
// corrupting the mixer (the claimed row is reclaimed, counters and later
// ingress are unaffected).
func TestSlabRejectsForeignStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	good := makeUpdates(4, 2, rng)
	bad := makeUpdates(1, 3, rng)[0] // different layer count
	goodWires := encodeAll(t, good)
	badWire := encodeAll(t, []nn.ParamSet{bad})[0]

	m, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddWire(goodWires[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddWire(badWire); err == nil {
		t.Fatal("slab mixer accepted a structurally foreign update")
	}
	if _, err := m.Add(bad); err == nil {
		t.Fatal("slab mixer accepted a structurally foreign decoded update")
	}
	if got := m.Received(); got != 1 {
		t.Fatalf("received %d after rejections, want 1", got)
	}
	// The mixer keeps working on compatible material.
	for _, w := range goodWires[1:] {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	emitted := m.Emitted()
	if got := len(m.Drain()) + emitted; got != len(good) {
		t.Fatalf("drained+emitted %d, want %d", got, len(good))
	}
}

// TestSlabPoolRecyclesChunks pins the round-scoped pool lifecycle: after
// ReleaseSlab, a fresh mixer of the same layout draws the SAME chunk
// (same backing array) instead of allocating. sync.Pool may drop any
// Put (the race detector drops one in four on purpose), so the cycle
// runs a few times and must recycle at least once.
func TestSlabPoolRecyclesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	updates := makeUpdates(6, 2, rng)
	wires := encodeAll(t, updates)
	pool := NewSlabPool()

	for attempt := 0; attempt < 8; attempt++ {
		m1, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(1)), pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wires {
			if _, err := m1.AddWire(w); err != nil {
				t.Fatal(err)
			}
		}
		m1.Drain()
		first := &m1.slab.chunks[0].data[0]
		m1.ReleaseSlab()

		m2, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(2)), pool)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.AddWire(wires[0]); err != nil {
			t.Fatal(err)
		}
		if &m2.slab.chunks[0].data[0] == first {
			return
		}
		m2.Drain()
		m2.ReleaseSlab()
	}
	t.Fatal("fresh mixer never recycled the released chunk")
}

// TestSlabReleaseRefusesBufferedMaterial: a mixer still holding a round's
// material must not recycle its storage out from under it.
func TestSlabReleaseRefusesBufferedMaterial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	wires := encodeAll(t, makeUpdates(2, 2, rng))
	pool := NewSlabPool()
	m, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(1)), pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseSlab() // must be a no-op: 2 updates still buffered
	if got := len(m.Drain()); got != 2 {
		t.Fatalf("drained %d updates after a refused release, want 2", got)
	}
}

// TestSlabRestorePastK mirrors the over-full restore contract of the
// legacy mixer: restores may push the buffer past k and the mixer stays
// conservative.
func TestSlabRestorePastK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	updates := makeUpdates(7, 2, rng)
	m, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if err := m.RestoreEntry(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Buffered(); got != len(updates) {
		t.Fatalf("buffered %d, want %d", got, len(updates))
	}
	drained := m.Drain()
	if len(drained) != len(updates) {
		t.Fatalf("drained %d, want %d", len(drained), len(updates))
	}
	before, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nn.Average(drained)
	if err != nil {
		t.Fatal(err)
	}
	// 1e-9, not 0: Drain reorders which entry each layer ends up in, so
	// the mean's float additions run in a different order.
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("over-full slab restore changed the aggregate")
	}
}

// TestSlabSealRestoreV4Unchanged is the seal-compat contract of slab
// mode: a slab-backed tier seals into a v4 blob BYTE-IDENTICAL to the
// one a legacy tier with the same contents produces, and that blob
// restores into either storage mode with bit-identical buffered
// material — so seal blobs taken before and after this refactor are
// interchangeable in both directions.
func TestSlabSealRestoreV4Unchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// 6 updates over 2 shards of k=3 leave both tiers exactly full with
	// no mid-round emissions, so every input is in the sealed blob.
	updates := makeUpdates(6, 3, rng)

	build := func(slab bool) []*StreamMixer {
		tier := make([]*StreamMixer, 2)
		for s := range tier {
			var m *StreamMixer
			var err error
			if slab {
				m, err = NewStreamMixerSlab(3, rand.New(rand.NewSource(int64(s))), NewSlabPool())
			} else {
				m, err = NewStreamMixer(3, rand.New(rand.NewSource(int64(s))))
			}
			if err != nil {
				t.Fatal(err)
			}
			tier[s] = m
		}
		for i, u := range updates {
			if _, err := tier[i%2].Add(u); err != nil {
				t.Fatal(err)
			}
		}
		return tier
	}
	meta := ShardedStateMeta{Routing: RoutingHashRR, InRound: len(updates), Received: len(updates)}
	legacyBlob, err := SealShardedState(asShards(build(false)), meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	slabBlob, err := SealShardedState(asShards(build(true)), meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(legacyBlob) != string(slabBlob) {
		t.Fatal("slab-mode tier sealed a different v4 blob than the legacy tier")
	}

	// The blob restores into both storage modes with identical contents.
	restore := func(slab bool) []nn.ParamSet {
		tier := make([]*StreamMixer, 2)
		for s := range tier {
			var m *StreamMixer
			var err error
			if slab {
				m, err = NewStreamMixerSlab(3, rand.New(rand.NewSource(int64(50+s))), nil)
			} else {
				m, err = NewStreamMixer(3, rand.New(rand.NewSource(int64(50+s))))
			}
			if err != nil {
				t.Fatal(err)
			}
			tier[s] = m
		}
		if _, err := RestoreShardedState(legacyBlob, asShards(tier), nil); err != nil {
			t.Fatal(err)
		}
		var out []nn.ParamSet
		for _, m := range tier {
			out = append(out, m.SnapshotEntries()...)
		}
		return out
	}
	intoLegacy, intoSlab := restore(false), restore(true)
	if len(intoLegacy) != len(updates) || len(intoSlab) != len(updates) {
		t.Fatalf("restored %d legacy / %d slab entries from %d sealed", len(intoLegacy), len(intoSlab), len(updates))
	}
	for i := range intoLegacy {
		if !intoLegacy[i].ApproxEqual(intoSlab[i], 0) {
			t.Fatalf("restored entry %d differs between storage modes", i)
		}
	}
}

// TestSlabAddWireSteadyStateAllocs pins the tentpole's allocation claim
// at the mixer level: once the slab's first chunk exists, AddWire on the
// emit path stays under 2 allocations per update on average (the row
// store, views, and emission structures are all amortised arenas; the
// occasional chunk/arena growth is the only allocation left).
func TestSlabAddWireSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	updates := makeUpdates(64, 3, rng)
	wires := encodeAll(t, updates)
	m, err := NewStreamMixerSlab(8, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer and force the first chunk + arenas into existence.
	for _, w := range wires[:16] {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	i := 16
	avg := testing.AllocsPerRun(32, func() {
		if _, err := m.AddWire(wires[i%len(wires)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 2 {
		t.Fatalf("steady-state AddWire costs %.1f allocs/update, want <= 2", avg)
	}
}
