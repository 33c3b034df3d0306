package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mixnn/internal/nn"
)

// Shard-aware durable state for a whole mixing tier. Where state.go
// snapshots ONE StreamMixer, this file snapshots every shard of a tier
// plus the routing metadata and round ledger that make the snapshot
// restorable — including into a tier with a DIFFERENT shard count
// (resharding on restore).
//
// Binary layout (little-endian); the readers accept only the current
// version:
//
//	magic    [4]byte "MXSH"
//	version  uint32 (currently 4)
//	shards   uint32 P at seal time
//	routing  uint8  RoutingMode tag
//	rr       uint32 round-robin routing cursor
//	inRound  uint32 updates received in the open round
//	rounds   uint32 completed rounds (the tier's delivery epoch)
//	hopMark  uint32 round hop-depth watermark
//	received, hopReceived, forwarded uint64 (tier ledger)
//	per shard: shardReceived uint64, shardEmitted uint64 (shard ledger)
//	per shard: shardLoad uint32 (updates routed this round — the
//	  quota-routing state of the open round)
//	topoLen  uint32, topo bytes (the routing-plane topology blob,
//	  opaque here — internal/route marshals it; zero length = none)
//	trustLen uint32, trust section (the remote shards' attestation
//	  trust material, opaque here and sealed under TrustSection; zero
//	  length = none)
//	pendingLen uint32, pending section (updates the mixers emitted
//	  mid-round that have not yet been committed to the delivery outbox)
//	per shard: sectionLen uint32, section bytes
//
// Each shard section holds that shard's buffered material as complete
// pseudo-updates (one ParamSet assembled from slot j of every per-layer
// list). Because a mixer's lists always have equal length, slot-major
// regrouping is lossless, and because the §4.2 equivalence theorem only
// depends on the multiset of buffered layers, the pseudo-updates can be
// redistributed over any number of fresh mixers without changing the
// layer-wise aggregate — that is what makes restore reshard-safe.
//
// Sections pass through SealSectionFunc/OpenSectionFunc so the proxy can
// encrypt each shard's material under a per-shard derived sealing key
// (enclave.SealLabeled); core itself stays crypto-free and tests run on
// plaintext sections (nil funcs).
//
// Section layout: entries uint32, then one ParamSet encoding per entry.
const (
	shardedStateMagic = "MXSH"

	// ShardedStateVersion is the current seal-blob format version.
	// Version 2 added the per-shard mixer ledgers and the
	// pending-emission section for the asynchronous delivery pipeline;
	// version 3 adds the routing-plane topology blob and the open
	// round's per-shard quota loads, so a restored tier comes back under
	// the exact topology (mode, weights, remote placement) it was sealed
	// under; version 4 adds a remote-trust section (sealed like a shard
	// section, under the TrustSection index) so a restarted tier can
	// RE-ATTEST its remote shards from the blob alone. The readers
	// accept exactly this version.
	ShardedStateVersion = 4

	// maxSealedShards bounds the shard count a blob may claim (the blob
	// crosses the sealing boundary, so parse limits guard allocations).
	maxSealedShards = 1 << 12
	// maxSectionBytes bounds one shard section.
	maxSectionBytes = 512 << 20
	// maxSectionEntries bounds the buffered pseudo-updates per section.
	maxSectionEntries = 1 << 20
)

// RoutingMode tags how a tier routed updates to shards when it was
// sealed. It travels in the blob so a restoring tier can refuse state it
// would route differently.
type RoutingMode uint8

// The routing modes a blob may be sealed under. The values mirror
// internal/route's Mode tags (core stays free of the route dependency;
// the proxy maps between them).
const (
	// RoutingHashRR is sticky routing: stable FNV client-hash with a
	// round-robin fallback for anonymous participants.
	RoutingHashRR RoutingMode = 1
	// RoutingRoundRobin is quota-aware round-robin.
	RoutingRoundRobin RoutingMode = 2
	// RoutingHashQuota is consistent hashing with per-shard round quotas
	// and spillover.
	RoutingHashQuota RoutingMode = 3
)

// PendingSection is the shard index SealSectionFunc/OpenSectionFunc see
// for the pending-emission section, which belongs to no single shard.
const PendingSection = -1

// TrustSection is the shard index SealSectionFunc/OpenSectionFunc see
// for the remote-trust section: the attestation trust material of
// the tier's remote shards, opaque to core (the proxy owns the
// encoding). It carries inter-proxy secrets, so it is sealed like
// buffered participant material.
const TrustSection = -2

// SealSectionFunc seals one shard's plaintext section (e.g. under a
// per-shard derived enclave key). The pending-emission section is sealed
// with shard == PendingSection. A nil func stores sections as-is.
type SealSectionFunc func(shard int, plain []byte) ([]byte, error)

// OpenSectionFunc reverses SealSectionFunc for the shard index recorded
// at seal time.
type OpenSectionFunc func(shard int, sealed []byte) ([]byte, error)

// ShardedStateMeta is the routing metadata and round ledger sealed next
// to the shard buffers.
type ShardedStateMeta struct {
	// SealedShards is the shard count P of the tier that produced the
	// blob. It is an output of RestoreShardedState (ignored on seal,
	// where it is taken from the mixer slice).
	SealedShards int
	// Routing is the tier's shard-routing mode.
	Routing RoutingMode
	// RRCursor is the round-robin routing cursor; a restoring tier
	// reduces it modulo its own shard count.
	RRCursor int
	// InRound counts updates received in the open round.
	InRound int
	// Rounds counts completed rounds.
	Rounds int
	// HopMark is the open round's cascade-depth watermark.
	HopMark int
	// Received, HopReceived and Forwarded are the tier's lifetime
	// ingress/egress ledger.
	Received    int
	HopReceived int
	Forwarded   int
	// ShardReceived and ShardEmitted are the per-shard mixer ledgers
	// (cumulative across epochs), len P at seal time. A restoring tier
	// redistributes them when its shard count differs.
	ShardReceived []int
	ShardEmitted  []int
	// Pending holds updates the mixers emitted mid-round that were not
	// yet committed to the delivery outbox when the tier was sealed. They
	// restore into the replacement tier's pending buffer, not its mixers.
	Pending []nn.ParamSet
	// ShardLoad is the open round's per-shard routed-update count (the
	// quota-enforcement state), len P at seal time.
	ShardLoad []int
	// Topo is the routing plane's marshalled topology, opaque to core
	// (internal/route owns the encoding); nil when the blob carries none.
	Topo []byte
	// RemoteTrust is the remote shards' attestation trust material,
	// opaque to core (the proxy owns the encoding); it is sealed under
	// the TrustSection index; nil when the tier has no remote shards.
	RemoteTrust []byte
}

// SnapshotEntries exports the mixer's buffered contents as complete
// pseudo-updates: entry j holds slot j of every per-layer list. The
// returned ParamSets alias the buffered tensors (which are never mutated
// in place), so the caller may encode them without holding the lock.
// It implements Shard.
func (m *StreamMixer) SnapshotEntries() []nn.ParamSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]nn.ParamSet, m.buffered)
	for j := range out {
		ps := nn.ParamSet{Layers: make([]nn.LayerParams, len(m.lists))}
		for li := range m.lists {
			ps.Layers[li] = m.lists[li][j]
		}
		out[j] = ps
	}
	return out
}

// RestoreEntry files one restored pseudo-update into the mixer. Unlike
// Add it never emits, and it may push the buffer PAST k: a blob sealed
// from a tier with more total capacity legitimately restores into fewer
// (or smaller) mixers. An over-full mixer stays conservative — every
// subsequent Add swap-emits exactly one update and the round-close Drain
// empties whatever remains — so aggregation equivalence is unaffected;
// the extra occupancy only widens that shard's anonymity set. It
// implements Shard.
func (m *StreamMixer) RestoreEntry(u nn.ParamSet) error {
	if len(u.Layers) == 0 {
		return fmt.Errorf("core: restore of empty update")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lists == nil && m.received != 0 {
		return fmt.Errorf("core: RestoreEntry on a non-fresh mixer")
	}
	if m.slab != nil {
		// A slab mixer owns its storage: copy the restored entry into a
		// fresh row and file the row's view (restores may push past k —
		// chunks grow, they never reject).
		view, err := m.slab.fileParamSet(u)
		if err != nil {
			return fmt.Errorf("core: restored update incompatible with mixer model structure")
		}
		u = view
	}
	if m.lists == nil {
		m.template = u
		m.lists = make([][]nn.LayerParams, len(u.Layers))
		for i := range m.lists {
			m.lists[i] = make([]nn.LayerParams, 0, m.k)
		}
	} else if m.slab == nil && !m.template.Compatible(u) {
		return fmt.Errorf("core: restored update incompatible with mixer model structure")
	}
	for li, lp := range u.Layers {
		m.lists[li] = append(m.lists[li], lp)
	}
	m.buffered++
	m.received++
	return nil
}

// marshalSection encodes one shard's buffered pseudo-updates.
func marshalSection(entries []nn.ParamSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(entries))); err != nil {
		return nil, err
	}
	for i, e := range entries {
		if err := nn.WriteParamSet(&buf, e); err != nil {
			return nil, fmt.Errorf("core: marshal shard entry %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

// unmarshalSection decodes one shard section back into pseudo-updates.
func unmarshalSection(data []byte) ([]nn.ParamSet, error) {
	r := bytes.NewReader(data)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: read section entry count: %w", err)
	}
	if n > maxSectionEntries {
		return nil, fmt.Errorf("core: section entry count %d exceeds limit", n)
	}
	entries := make([]nn.ParamSet, 0, n)
	for i := uint32(0); i < n; i++ {
		ps, err := nn.ReadParamSet(r)
		if err != nil {
			return nil, fmt.Errorf("core: read section entry %d: %w", i, err)
		}
		entries = append(entries, ps)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after section entries", r.Len())
	}
	return entries, nil
}

// SealShardedState exports a whole tier — every shard's buffered layers
// plus routing metadata and the round ledger — as one versioned blob.
// The name mirrors the proxy operation the blob exists for: the caller
// (the enclave-hosted proxy) wraps the result with its sealing key; seal,
// when non-nil, additionally protects each shard section individually.
func SealShardedState(shards []Shard, meta ShardedStateMeta, seal SealSectionFunc) ([]byte, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: seal of zero shards")
	}
	if len(shards) > maxSealedShards {
		return nil, fmt.Errorf("core: seal of %d shards exceeds limit %d", len(shards), maxSealedShards)
	}
	if meta.ShardReceived != nil && len(meta.ShardReceived) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-received entries for %d shards", len(meta.ShardReceived), len(shards))
	}
	if meta.ShardEmitted != nil && len(meta.ShardEmitted) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-emitted entries for %d shards", len(meta.ShardEmitted), len(shards))
	}
	if meta.ShardLoad != nil && len(meta.ShardLoad) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-load entries for %d shards", len(meta.ShardLoad), len(shards))
	}
	if len(meta.Topo) > maxSectionBytes {
		return nil, fmt.Errorf("core: topology blob exceeds %d bytes", maxSectionBytes)
	}
	var buf bytes.Buffer
	buf.WriteString(shardedStateMagic)
	for _, v := range []uint32{ShardedStateVersion, uint32(len(shards))} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("core: marshal sharded state: %w", err)
		}
	}
	buf.WriteByte(byte(meta.Routing))
	for _, v := range []int{meta.RRCursor, meta.InRound, meta.Rounds, meta.HopMark} {
		if v < 0 {
			return nil, fmt.Errorf("core: negative ledger field %d", v)
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(v)); err != nil {
			return nil, fmt.Errorf("core: marshal sharded state: %w", err)
		}
	}
	for _, v := range []int{meta.Received, meta.HopReceived, meta.Forwarded} {
		if v < 0 {
			return nil, fmt.Errorf("core: negative ledger field %d", v)
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint64(v)); err != nil {
			return nil, fmt.Errorf("core: marshal sharded state: %w", err)
		}
	}
	// Per-shard mixer ledgers. When the caller does not supply them, the
	// mixers' own counters stand in (a tier that never swapped mixers).
	for s, m := range shards {
		recv, emit := m.Received(), m.Emitted()
		if meta.ShardReceived != nil {
			recv = meta.ShardReceived[s]
		}
		if meta.ShardEmitted != nil {
			emit = meta.ShardEmitted[s]
		}
		if recv < 0 || emit < 0 {
			return nil, fmt.Errorf("core: negative shard %d ledger (%d, %d)", s, recv, emit)
		}
		for _, v := range []int{recv, emit} {
			if err := binary.Write(&buf, binary.LittleEndian, uint64(v)); err != nil {
				return nil, fmt.Errorf("core: marshal sharded state: %w", err)
			}
		}
	}
	// The open round's per-shard quota loads and the topology blob.
	for s := range shards {
		load := 0
		if meta.ShardLoad != nil {
			load = meta.ShardLoad[s]
		}
		if load < 0 {
			return nil, fmt.Errorf("core: negative shard %d load %d", s, load)
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(load)); err != nil {
			return nil, fmt.Errorf("core: marshal sharded state: %w", err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(meta.Topo))); err != nil {
		return nil, fmt.Errorf("core: marshal sharded state: %w", err)
	}
	buf.Write(meta.Topo)
	// The remote-trust section, sealed under the TrustSection index
	// (it carries inter-proxy secrets).
	trustSec := meta.RemoteTrust
	if len(trustSec) > 0 && seal != nil {
		var err error
		if trustSec, err = seal(TrustSection, trustSec); err != nil {
			return nil, fmt.Errorf("core: seal trust section: %w", err)
		}
	}
	if len(trustSec) > maxSectionBytes {
		return nil, fmt.Errorf("core: trust section exceeds %d bytes", maxSectionBytes)
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(trustSec))); err != nil {
		return nil, fmt.Errorf("core: marshal sharded state: %w", err)
	}
	buf.Write(trustSec)
	// Pending-emission section, sealed like a shard section but under the
	// PendingSection index.
	pendingSec, err := marshalSection(meta.Pending)
	if err != nil {
		return nil, fmt.Errorf("core: pending section: %w", err)
	}
	if seal != nil {
		if pendingSec, err = seal(PendingSection, pendingSec); err != nil {
			return nil, fmt.Errorf("core: seal pending section: %w", err)
		}
	}
	if len(pendingSec) > maxSectionBytes {
		return nil, fmt.Errorf("core: pending section exceeds %d bytes", maxSectionBytes)
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(pendingSec))); err != nil {
		return nil, fmt.Errorf("core: marshal sharded state: %w", err)
	}
	buf.Write(pendingSec)
	for s, m := range shards {
		section, err := marshalSection(m.SnapshotEntries())
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		if seal != nil {
			if section, err = seal(s, section); err != nil {
				return nil, fmt.Errorf("core: seal shard %d section: %w", s, err)
			}
		}
		if len(section) > maxSectionBytes {
			return nil, fmt.Errorf("core: shard %d section exceeds %d bytes", s, maxSectionBytes)
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(len(section))); err != nil {
			return nil, fmt.Errorf("core: marshal sharded state: %w", err)
		}
		buf.Write(section)
	}
	return buf.Bytes(), nil
}

// ShardedStateRounds peeks the completed-round counter (the delivery
// epoch) out of an unsealed blob's fixed-offset header without parsing
// the sections. A restoring proxy needs it BEFORE building the fresh
// mixers it restores into: per-epoch rand-stream seeding must continue
// from the sealed epoch, not restart at zero.
func ShardedStateRounds(blob []byte) (int, error) {
	// magic(4) version(4) shards(4) routing(1) rr(4) inRound(4) rounds(4)
	const roundsOff = 4 + 4 + 4 + 1 + 4 + 4
	if len(blob) < roundsOff+4 || string(blob[:4]) != shardedStateMagic {
		return 0, fmt.Errorf("core: not a sharded state blob")
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != ShardedStateVersion {
		return 0, fmt.Errorf("core: sharded state version %d, want %d", v, ShardedStateVersion)
	}
	return int(binary.LittleEndian.Uint32(blob[roundsOff:])), nil
}

// ShardedStateTopo peeks the routing-plane topology blob out of an
// unsealed state blob without parsing the sections (nil when the blob
// carries none). A restoring proxy needs it BEFORE
// building the shard set it restores into: the topology dictates which
// shards are mixers and which are relays.
func ShardedStateTopo(blob []byte) ([]byte, error) {
	// magic(4) version(4) shards(4) routing(1) rr(4) inRound(4) rounds(4)
	// hopMark(4) tierLedger(3×8) = 53 bytes of fixed header.
	const headOff = 4 + 4 + 4 + 1 + 4 + 4 + 4 + 4 + 24
	if len(blob) < headOff || string(blob[:4]) != shardedStateMagic {
		return nil, fmt.Errorf("core: not a sharded state blob")
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != ShardedStateVersion {
		return nil, fmt.Errorf("core: sharded state version %d, want %d", v, ShardedStateVersion)
	}
	p := binary.LittleEndian.Uint32(blob[8:])
	if p == 0 || p > maxSealedShards {
		return nil, fmt.Errorf("core: sealed shard count %d out of range", p)
	}
	// Per-shard ledgers (16 bytes each) + per-shard loads (4 each).
	off := uint64(headOff) + uint64(p)*20
	if uint64(len(blob)) < off+4 {
		return nil, fmt.Errorf("core: sharded state truncated before topology")
	}
	topoLen := binary.LittleEndian.Uint32(blob[off:])
	if topoLen == 0 {
		return nil, nil
	}
	if uint64(topoLen) > uint64(len(blob))-off-4 {
		return nil, fmt.Errorf("core: topology length %d exceeds blob", topoLen)
	}
	return blob[off+4 : off+4+uint64(topoLen) : off+4+uint64(topoLen)], nil
}

// RestoreShardedState loads a SealShardedState blob into a tier of fresh
// mixers. With an unchanged shard count each shard's buffered material
// returns to its own mixer; otherwise the pseudo-updates are
// redistributed round-robin across the new shards, so a P-shard blob
// restores into a P′-shard tier with the layer-wise aggregate of the
// eventual round unchanged. open must reverse the SealSectionFunc used at
// seal time (nil for plaintext sections). The returned meta carries the
// sealed tier's ledger (tier-wide and per-shard), the pending emissions,
// and the original shard count in SealedShards.
func RestoreShardedState(blob []byte, shards []Shard, open OpenSectionFunc) (ShardedStateMeta, error) {
	var meta ShardedStateMeta
	if len(shards) == 0 {
		return meta, fmt.Errorf("core: restore into zero shards")
	}
	for s, m := range shards {
		if m.Received() != 0 || m.Buffered() != 0 {
			return meta, fmt.Errorf("core: restore into non-fresh mixer (shard %d)", s)
		}
	}
	r := bytes.NewReader(blob)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return meta, fmt.Errorf("core: read sharded state magic: %w", err)
	}
	if string(magic[:]) != shardedStateMagic {
		return meta, fmt.Errorf("core: bad sharded state magic %q", magic)
	}
	var version, sealedShards uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return meta, fmt.Errorf("core: read version: %w", err)
	}
	if version != ShardedStateVersion {
		return meta, fmt.Errorf("core: sharded state version %d, want %d", version, ShardedStateVersion)
	}
	if err := binary.Read(r, binary.LittleEndian, &sealedShards); err != nil {
		return meta, fmt.Errorf("core: read shard count: %w", err)
	}
	if sealedShards == 0 || sealedShards > maxSealedShards {
		return meta, fmt.Errorf("core: sealed shard count %d out of range", sealedShards)
	}
	meta.SealedShards = int(sealedShards)
	routing, err := r.ReadByte()
	if err != nil {
		return meta, fmt.Errorf("core: read routing mode: %w", err)
	}
	meta.Routing = RoutingMode(routing)
	for _, dst := range []*int{&meta.RRCursor, &meta.InRound, &meta.Rounds, &meta.HopMark} {
		var v uint32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return meta, fmt.Errorf("core: read ledger: %w", err)
		}
		*dst = int(v)
	}
	for _, dst := range []*int{&meta.Received, &meta.HopReceived, &meta.Forwarded} {
		var v uint64
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return meta, fmt.Errorf("core: read ledger: %w", err)
		}
		*dst = int(v)
	}
	// Per-shard mixer ledgers.
	meta.ShardReceived = make([]int, meta.SealedShards)
	meta.ShardEmitted = make([]int, meta.SealedShards)
	for s := 0; s < meta.SealedShards; s++ {
		for _, dst := range []*int{&meta.ShardReceived[s], &meta.ShardEmitted[s]} {
			var v uint64
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return meta, fmt.Errorf("core: read shard %d ledger: %w", s, err)
			}
			*dst = int(v)
		}
	}
	// Per-shard quota loads of the open round + the topology blob.
	meta.ShardLoad = make([]int, meta.SealedShards)
	for s := 0; s < meta.SealedShards; s++ {
		var v uint32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return meta, fmt.Errorf("core: read shard %d load: %w", s, err)
		}
		meta.ShardLoad[s] = int(v)
	}
	var topoLen uint32
	if err := binary.Read(r, binary.LittleEndian, &topoLen); err != nil {
		return meta, fmt.Errorf("core: read topology length: %w", err)
	}
	if topoLen > maxSectionBytes || int(topoLen) > r.Len() {
		return meta, fmt.Errorf("core: topology length %d out of range", topoLen)
	}
	if topoLen > 0 {
		meta.Topo = make([]byte, topoLen)
		if _, err := io.ReadFull(r, meta.Topo); err != nil {
			return meta, fmt.Errorf("core: read topology: %w", err)
		}
	}
	// readRaw pulls one length-prefixed section, bounding by the bytes
	// actually present before allocating: a forged header must not buy a
	// 512 MiB allocation against a tiny blob.
	readRaw := func(shard int) ([]byte, error) {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("core: read section length: %w", err)
		}
		if n > maxSectionBytes {
			return nil, fmt.Errorf("core: section length %d exceeds limit", n)
		}
		if int(n) > r.Len() {
			return nil, fmt.Errorf("core: section length %d exceeds %d remaining bytes", n, r.Len())
		}
		section := make([]byte, n)
		if _, err := io.ReadFull(r, section); err != nil {
			return nil, fmt.Errorf("core: read section: %w", err)
		}
		if len(section) > 0 && open != nil {
			var err error
			if section, err = open(shard, section); err != nil {
				return nil, fmt.Errorf("core: open section: %w", err)
			}
		}
		return section, nil
	}
	readSection := func(shard int) ([]nn.ParamSet, error) {
		section, err := readRaw(shard)
		if err != nil {
			return nil, err
		}
		return unmarshalSection(section)
	}
	// The remote-trust section, then the pending-emission section.
	if meta.RemoteTrust, err = readRaw(TrustSection); err != nil {
		return meta, fmt.Errorf("core: trust section: %w", err)
	}
	if len(meta.RemoteTrust) == 0 {
		meta.RemoteTrust = nil
	}
	if meta.Pending, err = readSection(PendingSection); err != nil {
		return meta, fmt.Errorf("core: pending section: %w", err)
	}
	// Collect every sealed shard's pseudo-updates. With an unchanged
	// shard count each section restores into its own mixer (exact
	// restore); otherwise the entries are dealt round-robin over the
	// target tier (resharding).
	sameShape := len(shards) == meta.SealedShards
	var entries []nn.ParamSet
	for s := 0; s < meta.SealedShards; s++ {
		got, err := readSection(s)
		if err != nil {
			return meta, fmt.Errorf("core: shard %d: %w", s, err)
		}
		if sameShape {
			for i, e := range got {
				if err := shards[s].RestoreEntry(e); err != nil {
					return meta, fmt.Errorf("core: restore shard %d entry %d: %w", s, i, err)
				}
			}
		} else {
			entries = append(entries, got...)
		}
	}
	if r.Len() != 0 {
		return meta, fmt.Errorf("core: %d trailing bytes after sharded state", r.Len())
	}
	for i, e := range entries {
		if err := shards[i%len(shards)].RestoreEntry(e); err != nil {
			return meta, fmt.Errorf("core: restore entry %d: %w", i, err)
		}
	}
	return meta, nil
}
