package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mixnn/internal/nn"
)

// newTier builds p fresh mixers with capacity k each, as the Shard
// interface the seal/restore API operates on.
func newTier(t testing.TB, p, k int) []Shard {
	t.Helper()
	tier := make([]Shard, p)
	for s := range tier {
		m, err := NewStreamMixer(k, rand.New(rand.NewSource(int64(100+s))))
		if err != nil {
			t.Fatal(err)
		}
		tier[s] = m
	}
	return tier
}

// feedTier routes updates round-robin into the tier and collects whatever
// the mixers emit.
func feedTier(t testing.TB, tier []Shard, updates []nn.ParamSet) []nn.ParamSet {
	t.Helper()
	var out []nn.ParamSet
	for i, u := range updates {
		mixed, err := tier[i%len(tier)].Add(u)
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if mixed != nil {
			out = append(out, *mixed)
		}
	}
	return out
}

func drainTier(tier []Shard) []nn.ParamSet {
	var out []nn.ParamSet
	for _, m := range tier {
		out = append(out, m.Drain()...)
	}
	return out
}

// TestShardedStateReshardRoundTrip is the tentpole property as a table
// test: a tier sealed at P shards mid-round restores into P′ shards
// (including P′ > total buffered and P′ small enough to over-fill k) and
// the finished round's layer-wise mean equals the mean of all inputs.
func TestShardedStateReshardRoundTrip(t *testing.T) {
	cases := []struct {
		c, split, p, pPrime, k int
	}{
		{6, 3, 2, 2, 2},  // same shape
		{6, 3, 2, 3, 2},  // reshard up
		{8, 5, 4, 1, 2},  // reshard down: 5 buffered into one k=2 mixer (over-full)
		{12, 7, 3, 4, 2}, // reshard up mid-emission
		{5, 1, 1, 4, 5},  // single buffered entry over a wide tier
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("C%d_seal%d_P%d_to_P%d_k%d", tc.c, tc.split, tc.p, tc.pPrime, tc.k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			updates := makeUpdates(tc.c, 3, rng)

			tier := newTier(t, tc.p, tc.k)
			emitted := feedTier(t, tier, updates[:tc.split])

			blob, err := SealShardedState(tier, ShardedStateMeta{
				Routing: RoutingHashRR, RRCursor: tc.split, InRound: tc.split,
				Received: tc.split, Forwarded: len(emitted),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}

			fresh := newTier(t, tc.pPrime, tc.k)
			meta, err := RestoreShardedState(blob, fresh, nil)
			if err != nil {
				t.Fatal(err)
			}
			if meta.SealedShards != tc.p {
				t.Fatalf("SealedShards = %d, want %d", meta.SealedShards, tc.p)
			}
			if meta.InRound != tc.split || meta.Received != tc.split || meta.Forwarded != len(emitted) {
				t.Fatalf("ledger = %+v", meta)
			}
			buffered := 0
			for _, m := range fresh {
				buffered += m.Buffered()
			}
			if buffered != tc.split-len(emitted) {
				t.Fatalf("restored buffered = %d, want %d", buffered, tc.split-len(emitted))
			}

			// Finish the round on the restored tier.
			emitted = append(emitted, feedTier(t, fresh, updates[tc.split:])...)
			emitted = append(emitted, drainTier(fresh)...)
			if len(emitted) != tc.c {
				t.Fatalf("round emitted %d updates, want %d", len(emitted), tc.c)
			}
			want, err := nn.Average(updates)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn.Average(emitted)
			if err != nil {
				t.Fatal(err)
			}
			if !want.ApproxEqual(got, 1e-9) {
				t.Fatal("resharded restore changed the layer-wise aggregate")
			}
		})
	}
}

// TestShardedStateSealedSections drives the per-shard seal/open hooks: the
// open func must be called with the seal-time shard indices, and a
// mismatched open must surface as an error, not silent corruption.
func TestShardedStateSealedSections(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tier := newTier(t, 3, 2)
	feedTier(t, tier, makeUpdates(5, 2, rng))

	xor := func(shard int, data []byte) []byte {
		out := make([]byte, len(data))
		for i, b := range data {
			out[i] = b ^ byte(shard+1)
		}
		return out
	}
	var sealed []int
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: RoutingHashRR}, func(s int, plain []byte) ([]byte, error) {
		sealed = append(sealed, s)
		return xor(s, plain), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pending section seals first (as PendingSection), then one call
	// per shard.
	if len(sealed) != 4 || sealed[0] != PendingSection || sealed[1] != 0 || sealed[2] != 1 || sealed[3] != 2 {
		t.Fatalf("seal called for shards %v, want [%d 0 1 2]", sealed, PendingSection)
	}

	var opened []int
	if _, err := RestoreShardedState(blob, newTier(t, 2, 2), func(s int, sec []byte) ([]byte, error) {
		opened = append(opened, s)
		return xor(s, sec), nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(opened) != 4 {
		t.Fatalf("open called for shards %v, want all 4 sections", opened)
	}

	// Opening with the wrong per-shard key material must fail loudly.
	if _, err := RestoreShardedState(blob, newTier(t, 2, 2), func(s int, sec []byte) ([]byte, error) {
		return xor(s+1, sec), nil
	}); err == nil {
		t.Fatal("mismatched section opener accepted")
	}
	// As must skipping the opener entirely.
	if _, err := RestoreShardedState(blob, newTier(t, 2, 2), nil); err == nil {
		t.Fatal("sealed sections restored without an opener")
	}
}

// TestShardedStateLedgersAndPendingRoundTrip pins the v2 additions: the
// per-shard mixer ledgers and the pending-emission buffer survive
// seal/restore, with same-shape restores landing each shard's material
// back in its own mixer.
func TestShardedStateLedgersAndPendingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	updates := makeUpdates(9, 2, rng)

	tier := newTier(t, 2, 2)
	emitted := feedTier(t, tier, updates[:6]) // both k=2 mixers overflow → emissions
	if len(emitted) == 0 {
		t.Fatal("tier emitted nothing; test setup broken")
	}
	blob, err := SealShardedState(tier, ShardedStateMeta{
		Routing: RoutingHashRR, InRound: 6, Received: 6,
		ShardReceived: []int{13, 7}, ShardEmitted: []int{9, 4},
		Pending: emitted,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newTier(t, 2, 2)
	meta, err := RestoreShardedState(blob, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.ShardReceived) != 2 || meta.ShardReceived[0] != 13 || meta.ShardReceived[1] != 7 {
		t.Fatalf("ShardReceived = %v, want [13 7]", meta.ShardReceived)
	}
	if len(meta.ShardEmitted) != 2 || meta.ShardEmitted[0] != 9 || meta.ShardEmitted[1] != 4 {
		t.Fatalf("ShardEmitted = %v, want [9 4]", meta.ShardEmitted)
	}
	if len(meta.Pending) != len(emitted) {
		t.Fatalf("restored %d pending updates, want %d", len(meta.Pending), len(emitted))
	}
	// Same-shape restore: each mixer holds exactly what it held at seal.
	for s := range tier {
		if fresh[s].Buffered() != tier[s].Buffered() {
			t.Fatalf("shard %d buffered %d, sealed %d", s, fresh[s].Buffered(), tier[s].Buffered())
		}
	}
	// The whole round — buffered everywhere plus pending — is conserved:
	// finishing it must reproduce the classic mean.
	var out []nn.ParamSet
	out = append(out, meta.Pending...)
	out = append(out, feedTier(t, fresh, updates[6:])...)
	out = append(out, drainTier(fresh)...)
	want, _ := nn.Average(updates)
	got, err := nn.Average(out)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("pending + buffered restore broke conservation")
	}

	// Mismatched ledger lengths are rejected at seal time.
	if _, err := SealShardedState(tier, ShardedStateMeta{ShardReceived: []int{1}}, nil); err == nil {
		t.Fatal("mismatched shard ledger length accepted")
	}
}

func TestRestoreShardedStateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tier := newTier(t, 2, 2)
	feedTier(t, tier, makeUpdates(3, 2, rng))
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: RoutingHashRR, InRound: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() []Shard { return newTier(t, 2, 2) }
	t.Run("garbage", func(t *testing.T) {
		if _, err := RestoreShardedState([]byte("not a blob"), fresh(), nil); err == nil {
			t.Fatal("garbage accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] = 'Z'
		if _, err := RestoreShardedState(bad, fresh(), nil); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		// Every reader accepts exactly ShardedStateVersion: older blobs
		// (1–3) are no longer read, newer ones are not yet understood.
		for _, v := range []uint32{1, 2, 3, ShardedStateVersion + 1, 0xFE} {
			bad := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(bad[4:], v)
			if _, err := RestoreShardedState(bad, fresh(), nil); err == nil {
				t.Errorf("RestoreShardedState accepted version %d", v)
			}
			if _, err := ShardedStateTopo(bad); err == nil {
				t.Errorf("ShardedStateTopo accepted version %d", v)
			}
			if _, err := ShardedStateRounds(bad); err == nil {
				t.Errorf("ShardedStateRounds accepted version %d", v)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := RestoreShardedState(blob[:len(blob)-5], fresh(), nil); err == nil {
			t.Fatal("truncated blob accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := RestoreShardedState(append(append([]byte(nil), blob...), 0xAA), fresh(), nil); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("non-fresh target", func(t *testing.T) {
		used := fresh()
		feedTier(t, used, makeUpdates(1, 2, rng))
		if _, err := RestoreShardedState(blob, used, nil); err == nil {
			t.Fatal("restore into used tier accepted")
		}
	})
	t.Run("zero target shards", func(t *testing.T) {
		if _, err := RestoreShardedState(blob, nil, nil); err == nil {
			t.Fatal("restore into empty tier accepted")
		}
	})
	t.Run("forged section length", func(t *testing.T) {
		// A valid header claiming a near-limit section length against a
		// tiny blob must be rejected before any large allocation.
		var forged bytes.Buffer
		forged.WriteString("MXSH")
		for _, v := range []uint32{ShardedStateVersion, 1} {
			binary.Write(&forged, binary.LittleEndian, v)
		}
		forged.WriteByte(byte(RoutingHashRR))
		for i := 0; i < 4; i++ {
			binary.Write(&forged, binary.LittleEndian, uint32(0))
		}
		for i := 0; i < 3; i++ { // tier ledger
			binary.Write(&forged, binary.LittleEndian, uint64(0))
		}
		for i := 0; i < 2; i++ { // shard 0 ledger
			binary.Write(&forged, binary.LittleEndian, uint64(0))
		}
		for i := 0; i < 2; i++ { // shard 0 load, empty topology
			binary.Write(&forged, binary.LittleEndian, uint32(0))
		}
		// Forge the trust-section length (the first length-prefixed
		// section).
		binary.Write(&forged, binary.LittleEndian, uint32(maxSectionBytes-1))
		if _, err := RestoreShardedState(forged.Bytes(), fresh(), nil); err == nil {
			t.Fatal("forged oversized section length accepted")
		}
	})
}

func TestSealShardedStateRejects(t *testing.T) {
	if _, err := SealShardedState(nil, ShardedStateMeta{}, nil); err == nil {
		t.Fatal("seal of zero shards accepted")
	}
	tier := newTier(t, 1, 2)
	if _, err := SealShardedState(tier, ShardedStateMeta{InRound: -1}, nil); err == nil {
		t.Fatal("negative ledger field accepted")
	}
}

// TestRestoredOverfullMixerStaysConservative pins the over-stuffed
// restore contract restoreEntry documents: a mixer holding more than k
// entries still swap-emits one update per Add and drains completely.
func TestRestoredOverfullMixerStaysConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	updates := makeUpdates(6, 2, rng)

	tier := newTier(t, 4, 2)
	if got := feedTier(t, tier, updates[:4]); len(got) != 0 {
		t.Fatalf("tier emitted %d during fill", len(got))
	}
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: RoutingHashRR, InRound: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 4 buffered entries land in ONE k=2 mixer: over-full by 2.
	narrow := newTier(t, 1, 2)
	if _, err := RestoreShardedState(blob, narrow, nil); err != nil {
		t.Fatal(err)
	}
	if narrow[0].Buffered() != 4 {
		t.Fatalf("buffered = %d, want 4", narrow[0].Buffered())
	}
	var emitted []nn.ParamSet
	emitted = append(emitted, feedTier(t, narrow, updates[4:])...)
	if len(emitted) != 2 {
		t.Fatalf("over-full mixer emitted %d on 2 adds, want 2", len(emitted))
	}
	emitted = append(emitted, drainTier(narrow)...)
	if len(emitted) != 6 {
		t.Fatalf("round emitted %d, want 6", len(emitted))
	}
	want, _ := nn.Average(updates)
	got, err := nn.Average(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("over-full restore broke conservation")
	}
}

// TestSealShardedStateConcurrentWithAdd exercises the seal path against
// concurrent mixing at the core level (run under -race): snapshotting a
// tier while every shard is being fed must neither race nor produce an
// unparseable blob.
func TestSealShardedStateConcurrentWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const p, rounds = 3, 40
	tier := newTier(t, p, 2)
	updates := makeUpdates(rounds, 2, rng)

	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < rounds; i += p {
				if _, err := tier[s].Add(updates[i]); err != nil {
					t.Errorf("shard %d add %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	sealDone := make(chan struct{})
	go func() {
		defer close(sealDone)
		for j := 0; j < 50; j++ {
			blob, err := SealShardedState(tier, ShardedStateMeta{Routing: RoutingHashRR}, nil)
			if err != nil {
				t.Errorf("concurrent seal: %v", err)
				return
			}
			if _, err := RestoreShardedState(blob, newTier(t, 2, 2), nil); err != nil {
				t.Errorf("concurrent seal produced unrestorable blob: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-sealDone
}

// TestShardedStateV3TopoAndLoads pins the v3 additions: the opaque
// topology blob and per-shard quota loads round-trip, and the topology
// is peekable without a full parse.
func TestShardedStateV3TopoAndLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tier := newTier(t, 2, 2)
	feedTier(t, tier, makeUpdates(3, 2, rng))
	topoBlob := []byte("opaque-topology-bytes")
	blob, err := SealShardedState(tier, ShardedStateMeta{
		Routing:   RoutingHashQuota,
		InRound:   3,
		ShardLoad: []int{2, 1},
		Topo:      topoBlob,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	peeked, err := ShardedStateTopo(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(peeked) != string(topoBlob) {
		t.Fatalf("peeked topo = %q, want %q", peeked, topoBlob)
	}
	meta, err := RestoreShardedState(blob, newTier(t, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Routing != RoutingHashQuota {
		t.Fatalf("routing = %d, want hash-quota", meta.Routing)
	}
	if len(meta.ShardLoad) != 2 || meta.ShardLoad[0] != 2 || meta.ShardLoad[1] != 1 {
		t.Fatalf("ShardLoad = %v, want [2 1]", meta.ShardLoad)
	}
	if string(meta.Topo) != string(topoBlob) {
		t.Fatalf("restored topo = %q", meta.Topo)
	}
	// Mismatched load length is rejected at seal time.
	if _, err := SealShardedState(tier, ShardedStateMeta{ShardLoad: []int{1}}, nil); err == nil {
		t.Fatal("mismatched shard-load length accepted")
	}
	// ShardedStateTopo rejects garbage and pre-v3 blobs gracefully.
	if _, err := ShardedStateTopo([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted by topo peek")
	}
}

// TestRelayShardConservation: the remote-placement buffer is trivially
// conservative (Drain returns exactly what Add received) and implements
// the full Shard contract including snapshot/restore.
func TestRelayShardConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	updates := makeUpdates(4, 2, rng)
	r := NewRelayShard(4)
	for _, u := range updates {
		out, err := r.Add(u)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			t.Fatal("relay shard emitted mid-round")
		}
	}
	if r.Buffered() != 4 || r.Received() != 4 || r.Emitted() != 0 {
		t.Fatalf("ledger = %d/%d/%d", r.Buffered(), r.Received(), r.Emitted())
	}
	snap := r.SnapshotEntries()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	drained := r.Drain()
	if len(drained) != 4 || r.Buffered() != 0 || r.Emitted() != 4 {
		t.Fatalf("drain: %d entries, buffered %d, emitted %d", len(drained), r.Buffered(), r.Emitted())
	}
	for i := range drained {
		got, _ := nn.Average([]nn.ParamSet{drained[i]})
		want, _ := nn.Average([]nn.ParamSet{updates[i]})
		if !got.ApproxEqual(want, 0) {
			t.Fatalf("drained entry %d differs from input (relay must not mix)", i)
		}
	}
	// Restore path: entries land back, counted.
	r2 := NewRelayShard(4)
	for _, u := range snap {
		if err := r2.RestoreEntry(u); err != nil {
			t.Fatal(err)
		}
	}
	if r2.Buffered() != 4 || r2.Received() != 4 {
		t.Fatalf("restored relay ledger = %d/%d", r2.Buffered(), r2.Received())
	}
	if _, err := r.Add(nn.ParamSet{}); err == nil {
		t.Fatal("empty update accepted by relay")
	}
}

// TestShardedStateRelayInTier: a tier mixing StreamMixers and a
// RelayShard seals and restores like any other tier — the relay's
// buffered (unmixed) material is a shard section like the rest.
func TestShardedStateRelayInTier(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	updates := makeUpdates(6, 2, rng)
	m, err := NewStreamMixer(2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tier := []Shard{m, NewRelayShard(3)}
	emitted := feedTier(t, tier, updates)
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: RoutingHashQuota, InRound: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewStreamMixer(2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := []Shard{m2, NewRelayShard(3)}
	if _, err := RestoreShardedState(blob, fresh, nil); err != nil {
		t.Fatal(err)
	}
	out := append([]nn.ParamSet{}, emitted...)
	out = append(out, drainTier(fresh)...)
	want, _ := nn.Average(updates)
	got, err := nn.Average(out)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("relay-bearing tier broke conservation across seal/restore")
	}
}
