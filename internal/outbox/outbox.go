// Package outbox implements the durable delivery queue between the MixNN
// proxy's round drains and its upstream forwarder. Once a shard tier
// drains a round, the mixed material has left the mixers; before this
// package existed a downstream outage mid-drain silently lost those
// updates and skewed the layer-wise mean the paper's equivalence argument
// depends on. The outbox closes that gap: a drained round is committed to
// disk as one sealed, versioned entry BEFORE any network send is
// attempted, and a background dispatcher (dispatcher.go) retries delivery
// with bounded backoff until the downstream acknowledges it.
//
// Like internal/core, the package is crypto-free: entries pass through
// caller-supplied Seal/Open funcs so the proxy can encrypt them under an
// enclave-derived key (enclave.SealLabeled) and nothing mixed ever rests
// on the untrusted host in plaintext. Tests run on nil funcs (plaintext).
//
// Disk layout: one file per entry, named ob-<seq>.ent with a
// zero-padded monotone sequence so lexical order is delivery order.
// Writes are tmp-file + rename (an entry is either fully present or
// absent); acknowledged entries are removed; entries that fail to open or
// parse are quarantined by rename to ob-<seq>.bad — consume-by-rename,
// like the proxy's sealed state blob — so the queue keeps draining past
// garbage while the evidence stays inspectable.
package outbox

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SealFunc encrypts an entry before it touches disk (e.g. under an
// enclave-derived key). Nil stores entries in plaintext.
type SealFunc func(plain []byte) ([]byte, error)

// OpenFunc reverses SealFunc.
type OpenFunc func(sealed []byte) ([]byte, error)

// ErrEmpty is returned by Next when no deliverable entry remains.
var ErrEmpty = errors.New("outbox: empty")

// Queue is the delivery queue contract shared by the durable on-disk
// outbox and the in-memory variant: per-destination-ordered Put/Next/Ack
// with quarantine for undeliverable entries, and a stable sender
// identity for receiver-side redelivery detection.
//
// Entries are partitioned into lanes keyed by the envelope destination
// (LaneOf), so a dead peer's backlog never blocks deliveries bound for
// the cascade hop, the aggregation server, or a healthy peer. Ordering
// is guaranteed per lane, not across lanes.
type Queue interface {
	// Put commits one entry and returns its sequence number. For the disk
	// queue the entry is durable (sealed, atomically renamed into place)
	// before Put returns. The entry joins the lane named by its envelope
	// destination (LaneOf of the plaintext payload).
	Put(payload []byte) (uint64, error)
	// Next returns the oldest entry across all lanes, opened. Corrupt or
	// unopenable entries are quarantined and skipped so one bad entry
	// cannot wedge the queue. ErrEmpty when drained.
	Next() (uint64, []byte, error)
	// NextIn returns the oldest entry of one lane, with the same
	// quarantine-and-skip behaviour as Next. ErrEmpty when the lane is
	// drained.
	NextIn(lane string) (uint64, []byte, error)
	// Lanes lists the lanes that currently hold pending entries, sorted.
	Lanes() []string
	// LaneLen counts entries awaiting delivery in one lane.
	LaneLen(lane string) int
	// LaneLens counts every lane's pending entries in ONE consistent
	// snapshot (a single lock acquisition), so the per-lane depths sum
	// to the queue's total at that instant. Status surfaces polled
	// under load use it instead of Lanes+LaneLen, whose per-lane reads
	// each race the dispatcher's acks.
	LaneLens() map[string]int
	// Ack consumes a delivered entry.
	Ack(seq uint64) error
	// Quarantine sets aside an entry the receiver permanently rejected.
	Quarantine(seq uint64, reason error) error
	// Len counts entries awaiting delivery.
	Len() int
	// Quarantined counts entries set aside since the queue was opened,
	// including (for the disk queue) .bad files a previous process left
	// behind — the operator surface for material that left the delivery
	// path.
	Quarantined() int
	// SenderID is a stable identity for this queue (persisted alongside
	// the disk queue, ephemeral for the in-memory one). Receivers use it
	// with the entry sequence number to recognise stale redeliveries
	// that have aged out of their dedup window.
	SenderID() string
}

// Envelope is the payload of one outbox entry: one destination's share
// of a drained round. Binary layout (little-endian), versioned so the
// format can evolve:
//
//	magic   [4]byte "MXOB"
//	version uint32 (currently 2)
//	epoch   uint64  round number the material belongs to
//	topoVer uint64  (v2) routing-plane topology version the round closed
//	                under — the epoch+topology key delivery is tracked by
//	hop     uint32  cascade depth to stamp on delivery (watermark + 1)
//	destLen uint16, dest bytes (v2) remote-shard address this entry is
//	                addressed to; empty = the tier's upstream/next-hop
//	count   uint32  updates in the round
//	per update: len uint32, bytes (an encoded nn.ParamSet — opaque here)
//
// Version-1 entries (pre-routing-plane) still parse: they carry no
// destination (upstream) and topology version 0.
type Envelope struct {
	Epoch       uint64
	TopoVersion uint64
	Hop         int
	// Dest is the remote shard address the entry must be relayed to
	// (re-encrypted for that shard's enclave); empty means the tier's
	// ordinary downstream (upstream server or cascade next hop).
	Dest    string
	Updates [][]byte
}

const (
	envelopeMagic = "MXOB"

	// EnvelopeVersion is the current entry format; ParseEnvelope also
	// reads version 1 (entries a pre-topology proxy left on disk).
	EnvelopeVersion = 2

	// maxEnvelopeUpdates bounds the updates one entry may claim (entries
	// cross the sealing boundary, so parse limits guard allocations).
	maxEnvelopeUpdates = 1 << 20
	// maxEnvelopeItemBytes bounds one encoded update inside an entry.
	maxEnvelopeItemBytes = 512 << 20
	// maxEnvelopeDestBytes bounds the destination address.
	maxEnvelopeDestBytes = 1 << 10
)

// Marshal encodes the envelope.
func (e *Envelope) Marshal() ([]byte, error) {
	if len(e.Updates) > maxEnvelopeUpdates {
		return nil, fmt.Errorf("outbox: %d updates exceed the per-entry limit", len(e.Updates))
	}
	if e.Hop < 0 {
		return nil, fmt.Errorf("outbox: negative hop %d", e.Hop)
	}
	if len(e.Dest) > maxEnvelopeDestBytes {
		return nil, fmt.Errorf("outbox: destination exceeds %d bytes", maxEnvelopeDestBytes)
	}
	// Append-encode into one exactly-sized allocation: entries can carry a
	// whole round (megabytes at participant scale), where the old
	// bytes.Buffer + binary.Write path cost repeated growth copies plus an
	// interface allocation per field.
	size := len(envelopeMagic) + 4 + 8 + 8 + 4 + 2 + len(e.Dest) + 4
	for i, u := range e.Updates {
		if len(u) > maxEnvelopeItemBytes {
			return nil, fmt.Errorf("outbox: update %d exceeds %d bytes", i, maxEnvelopeItemBytes)
		}
		size += 4 + len(u)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, envelopeMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(EnvelopeVersion))
	buf = binary.LittleEndian.AppendUint64(buf, e.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, e.TopoVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Hop))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Dest)))
	buf = append(buf, e.Dest...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Updates)))
	for _, u := range e.Updates {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u)))
		buf = append(buf, u...)
	}
	return buf, nil
}

// ParseEnvelope decodes an entry payload, validating structure before
// allocating.
func ParseEnvelope(data []byte) (*Envelope, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != envelopeMagic {
		return nil, fmt.Errorf("outbox: bad entry magic %q", magic)
	}
	var version, hop, count uint32
	var epoch, topoVer uint64
	var dest []byte
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("outbox: read entry version: %w", err)
	}
	if version != 1 && version != EnvelopeVersion {
		return nil, fmt.Errorf("outbox: entry version %d, want <= %d", version, EnvelopeVersion)
	}
	if err := binary.Read(r, binary.LittleEndian, &epoch); err != nil {
		return nil, fmt.Errorf("outbox: read entry epoch: %w", err)
	}
	if version >= 2 {
		if err := binary.Read(r, binary.LittleEndian, &topoVer); err != nil {
			return nil, fmt.Errorf("outbox: read entry topology version: %w", err)
		}
	}
	if err := binary.Read(r, binary.LittleEndian, &hop); err != nil {
		return nil, fmt.Errorf("outbox: read entry hop: %w", err)
	}
	if version >= 2 {
		var destLen uint16
		if err := binary.Read(r, binary.LittleEndian, &destLen); err != nil {
			return nil, fmt.Errorf("outbox: read entry destination length: %w", err)
		}
		if int(destLen) > maxEnvelopeDestBytes || int(destLen) > r.Len() {
			return nil, fmt.Errorf("outbox: destination length %d out of range", destLen)
		}
		dest = make([]byte, destLen)
		if _, err := io.ReadFull(r, dest); err != nil {
			return nil, fmt.Errorf("outbox: read entry destination: %w", err)
		}
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("outbox: read entry count: %w", err)
	}
	if count > maxEnvelopeUpdates {
		return nil, fmt.Errorf("outbox: entry claims %d updates", count)
	}
	env := &Envelope{Epoch: epoch, TopoVersion: topoVer, Hop: int(hop), Dest: string(dest), Updates: make([][]byte, 0, count)}
	for i := uint32(0); i < count; i++ {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("outbox: read update %d length: %w", i, err)
		}
		// uint64 comparisons: int(n) would go negative on 32-bit
		// platforms for adversarial lengths ≥ 2³¹ and bypass the bounds.
		if uint64(n) > maxEnvelopeItemBytes || uint64(n) > uint64(r.Len()) {
			return nil, fmt.Errorf("outbox: update %d length %d exceeds remaining bytes", i, n)
		}
		u := make([]byte, n)
		if _, err := io.ReadFull(r, u); err != nil {
			return nil, fmt.Errorf("outbox: read update %d: %w", i, err)
		}
		env.Updates = append(env.Updates, u)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("outbox: %d trailing bytes after entry", r.Len())
	}
	return env, nil
}

// LaneOf extracts the delivery lane of an entry payload by decoding only
// the envelope header (magic through dest), without touching the update
// bodies. Version-1 entries carry no destination and payloads that do not
// parse as envelopes cannot be steered anywhere better, so both land in
// the default lane "" — the tier's ordinary downstream — where delivery
// (not lane indexing) decides whether to quarantine them.
func LaneOf(payload []byte) string {
	r := bytes.NewReader(payload)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != envelopeMagic {
		return ""
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version < 2 || version > EnvelopeVersion {
		return ""
	}
	// Skip epoch + topoVer (uint64 each) and hop (uint32).
	if _, err := r.Seek(8+8+4, io.SeekCurrent); err != nil {
		return ""
	}
	var destLen uint16
	if err := binary.Read(r, binary.LittleEndian, &destLen); err != nil {
		return ""
	}
	if int(destLen) > maxEnvelopeDestBytes || int(destLen) > r.Len() {
		return ""
	}
	dest := make([]byte, destLen)
	if _, err := io.ReadFull(r, dest); err != nil {
		return ""
	}
	return string(dest)
}

// Disk is the durable on-disk queue.
type Disk struct {
	dir    string
	seal   SealFunc
	open   OpenFunc
	sender string

	mu   sync.Mutex
	seqs []uint64 // pending sequence numbers, sorted ascending
	next uint64   // next sequence number to assign
	// laneOf maps each pending seq to its delivery lane; lanes holds the
	// per-lane pending seqs, sorted ascending. Both are derived from the
	// envelope headers: recorded at Put, rebuilt at Open.
	laneOf map[uint64]string
	lanes  map[string][]uint64
	// heads caches the opened payload at the head of each lane between
	// retry attempts (entries are immutable once written), so a long
	// outage does not re-read and re-decrypt the same round every backoff
	// tick.
	heads map[string]headCache
	// quarantined counts entries set aside: .bad files found at Open
	// plus quarantines since.
	quarantined int
}

// headCache is one lane's memoised head entry.
type headCache struct {
	seq     uint64
	payload []byte
}

const (
	entrySuffix      = ".ent"
	quarantineSuffix = ".bad"
	senderFile       = "sender.id"
	// seqFile persists the next sequence number. The sender identity is
	// durable, and receivers key their stale-redelivery watermark on
	// (sender, seq) — so a sequence number must NEVER be reused, even
	// after a restart over a fully-drained (or quarantined-at-head)
	// directory where no .ent file remains to witness the high mark.
	seqFile = "seq.next"
)

func entryName(seq uint64) string { return fmt.Sprintf("ob-%016x%s", seq, entrySuffix) }

// Open opens (creating if needed) an outbox directory and indexes the
// entries a previous process left behind — that carry-over is what makes
// round delivery survive a crash. Quarantined (.bad) leftovers are
// counted and reported loudly: they are rounds that left the delivery
// path and need an operator.
func Open(dir string, seal SealFunc, open OpenFunc) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("outbox: create dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("outbox: scan dir: %w", err)
	}
	d := &Disk{
		dir: dir, seal: seal, open: open,
		laneOf: make(map[uint64]string),
		lanes:  make(map[string][]uint64),
		heads:  make(map[string]headCache),
	}
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, quarantineSuffix) {
			d.quarantined++
			// A quarantined entry's sequence number is still consumed:
			// the receiver may have recorded it in its watermark.
			var seq uint64
			if _, err := fmt.Sscanf(name, "ob-%016x", &seq); err == nil && seq >= d.next {
				d.next = seq + 1
			}
			continue
		}
		var seq uint64
		// Sscanf ignores trailing input, so require an exact round-trip of
		// the name — otherwise ob-N.ent.bad / ob-N.ent.tmp leftovers would
		// be indexed as phantom entries.
		if _, err := fmt.Sscanf(name, "ob-%016x"+entrySuffix, &seq); err != nil || name != entryName(seq) {
			continue // tmp files, foreign files
		}
		d.seqs = append(d.seqs, seq)
		if seq >= d.next {
			d.next = seq + 1
		}
	}
	sort.Slice(d.seqs, func(i, j int) bool { return d.seqs[i] < d.seqs[j] })
	// The persisted counter wins over anything derived from surviving
	// files: acknowledged entries leave no .ent witness, but their
	// sequence numbers are burned at the receivers.
	if raw, err := os.ReadFile(filepath.Join(dir, seqFile)); err == nil {
		var next uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "%d", &next); err == nil && next > d.next {
			d.next = next
		}
	}
	// Rebuild the lane index: each carried-over entry is opened once to
	// read its envelope destination. Entries that fail to read or unseal
	// here would fail identically at delivery time, so they are
	// quarantined now instead of wedging a lane later; the opened payloads
	// are NOT retained (a restart after a long outage could hold many
	// rounds) — only the lane label is.
	for _, seq := range append([]uint64(nil), d.seqs...) {
		raw, rerr := os.ReadFile(filepath.Join(dir, entryName(seq)))
		if rerr == nil && d.open != nil {
			raw, rerr = d.open(raw)
		}
		if rerr != nil {
			d.quarantineLocked(seq)
			continue
		}
		lane := LaneOf(raw)
		d.laneOf[seq] = lane
		d.lanes[lane] = append(d.lanes[lane], seq)
	}
	if d.sender, err = loadSenderID(dir); err != nil {
		return nil, err
	}
	if d.quarantined > 0 {
		log.Printf("outbox: WARNING: %d quarantined entries (%s files) in %s — rounds that left the delivery path; inspect and re-inject or discard", d.quarantined, quarantineSuffix, dir)
	}
	return d, nil
}

// loadSenderID reads (or mints) the queue's stable sender identity.
func loadSenderID(dir string) (string, error) {
	path := filepath.Join(dir, senderFile)
	raw, err := os.ReadFile(path)
	if err == nil && len(raw) >= 8 {
		return strings.TrimSpace(string(raw)), nil
	}
	id, err := mintSenderID()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, []byte(id), 0o600); err != nil {
		return "", fmt.Errorf("outbox: persist sender id: %w", err)
	}
	return id, nil
}

// mintSenderID draws a fresh random sender identity.
func mintSenderID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("outbox: draw sender id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Dir returns the outbox directory.
func (d *Disk) Dir() string { return d.dir }

// Put seals the payload and commits it via tmp-file + rename, so a crash
// or full disk mid-write cannot leave a truncated entry where a good one
// should be.
func (d *Disk) Put(payload []byte) (uint64, error) {
	// The lane is read from the plaintext header, before sealing hides it.
	lane := LaneOf(payload)
	if d.seal != nil {
		var err error
		if payload, err = d.seal(payload); err != nil {
			return 0, fmt.Errorf("outbox: seal entry: %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.next
	// Burn the sequence number durably BEFORE the entry exists: once the
	// entry is (ever) sent, the receiver's watermark remembers (sender,
	// seq), and a post-restart reuse would make fresh rounds look like
	// stale redeliveries — quarantined unseen. Best-effort on purpose: a
	// failed counter write must not fail the round commit, and Open also
	// rebuilds the counter from every on-disk witness.
	seqTmp := filepath.Join(d.dir, seqFile+".tmp")
	if err := os.WriteFile(seqTmp, []byte(fmt.Sprintf("%d\n", seq+1)), 0o600); err == nil {
		os.Rename(seqTmp, filepath.Join(d.dir, seqFile))
	}
	path := filepath.Join(d.dir, entryName(seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, payload, 0o600); err != nil {
		return 0, fmt.Errorf("outbox: write entry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("outbox: commit entry: %w", err)
	}
	d.next = seq + 1
	d.seqs = append(d.seqs, seq)
	d.laneOf[seq] = lane
	d.lanes[lane] = append(d.lanes[lane], seq)
	return seq, nil
}

// Next returns the oldest entry across all lanes, opened. Entries that
// fail to read or unseal are quarantined and skipped, so the queue drains
// past garbage a corrupted disk (or an adversarial host) left in the
// directory.
func (d *Disk) Next() (uint64, []byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.seqs) > 0 {
		// The globally-oldest entry is also the head of its own lane.
		seq, payload, err := d.nextInLocked(d.laneOf[d.seqs[0]])
		if errors.Is(err, ErrEmpty) {
			continue
		}
		return seq, payload, err
	}
	return 0, nil, ErrEmpty
}

// NextIn returns the oldest entry of one lane, opened, with the same
// quarantine-and-skip behaviour as Next.
func (d *Disk) NextIn(lane string) (uint64, []byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextInLocked(lane)
}

func (d *Disk) nextInLocked(lane string) (uint64, []byte, error) {
	for len(d.lanes[lane]) > 0 {
		seq := d.lanes[lane][0]
		if h, ok := d.heads[lane]; ok && h.seq == seq {
			return seq, h.payload, nil
		}
		raw, err := os.ReadFile(filepath.Join(d.dir, entryName(seq)))
		if err == nil && d.open != nil {
			raw, err = d.open(raw)
		}
		if err != nil {
			d.quarantineLocked(seq)
			continue
		}
		d.heads[lane] = headCache{seq: seq, payload: raw}
		return seq, raw, nil
	}
	return 0, nil, ErrEmpty
}

// Lanes lists the lanes that currently hold pending entries, sorted.
func (d *Disk) Lanes() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.lanes))
	for lane, seqs := range d.lanes {
		if len(seqs) > 0 {
			out = append(out, lane)
		}
	}
	sort.Strings(out)
	return out
}

// LaneLen counts entries awaiting delivery in one lane.
func (d *Disk) LaneLen(lane string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.lanes[lane])
}

// LaneLens snapshots every lane's depth under one lock acquisition.
func (d *Disk) LaneLens() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.lanes))
	for lane, seqs := range d.lanes {
		if len(seqs) > 0 {
			out[lane] = len(seqs)
		}
	}
	return out
}

// Ack consumes a delivered entry.
func (d *Disk) Ack(seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(seq)
	if err := os.Remove(filepath.Join(d.dir, entryName(seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("outbox: ack entry %d: %w", seq, err)
	}
	return nil
}

// SenderID returns the queue's persisted sender identity.
func (d *Disk) SenderID() string { return d.sender }

// Quarantined counts entries set aside since (and found at) Open.
func (d *Disk) Quarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// Quarantine renames an entry the downstream permanently rejected to its
// .bad name so delivery continues and the operator keeps the evidence.
func (d *Disk) Quarantine(seq uint64, reason error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.quarantineLocked(seq)
	return nil
}

func (d *Disk) quarantineLocked(seq uint64) {
	d.dropLocked(seq)
	d.quarantined++
	path := filepath.Join(d.dir, entryName(seq))
	if err := os.Rename(path, path+quarantineSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		// The entry could not even be set aside; remove it so the queue
		// is not wedged forever.
		os.Remove(path)
	}
}

func (d *Disk) dropLocked(seq uint64) {
	lane, tracked := d.laneOf[seq]
	if tracked {
		if h, ok := d.heads[lane]; ok && h.seq == seq {
			delete(d.heads, lane)
		}
		delete(d.laneOf, seq)
		for i, s := range d.lanes[lane] {
			if s == seq {
				d.lanes[lane] = append(d.lanes[lane][:i], d.lanes[lane][i+1:]...)
				break
			}
		}
		if len(d.lanes[lane]) == 0 {
			delete(d.lanes, lane)
		}
	}
	for i, s := range d.seqs {
		if s == seq {
			d.seqs = append(d.seqs[:i], d.seqs[i+1:]...)
			return
		}
	}
}

// Len counts entries awaiting delivery.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seqs)
}

// Memory is the in-memory queue used when no outbox directory is
// configured: delivery is still decoupled from ingress (and retried), but
// entries do not survive the process.
type Memory struct {
	sender string

	mu          sync.Mutex
	entries     map[uint64][]byte
	seqs        []uint64
	next        uint64
	laneOf      map[uint64]string
	lanes       map[string][]uint64
	quarantined int
}

// NewMemory builds an empty in-memory queue.
func NewMemory() *Memory {
	id, err := mintSenderID()
	if err != nil {
		// The system randomness source is broken; an empty sender id only
		// disables receiver-side aged-redelivery detection.
		id = ""
	}
	return &Memory{
		entries: make(map[uint64][]byte),
		laneOf:  make(map[uint64]string),
		lanes:   make(map[string][]uint64),
		sender:  id,
	}
}

// Put implements Queue.
func (m *Memory) Put(payload []byte) (uint64, error) {
	lane := LaneOf(payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.next
	m.next++
	m.entries[seq] = payload
	m.seqs = append(m.seqs, seq)
	m.laneOf[seq] = lane
	m.lanes[lane] = append(m.lanes[lane], seq)
	return seq, nil
}

// Next implements Queue.
func (m *Memory) Next() (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.seqs) == 0 {
		return 0, nil, ErrEmpty
	}
	seq := m.seqs[0]
	return seq, m.entries[seq], nil
}

// NextIn implements Queue.
func (m *Memory) NextIn(lane string) (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.lanes[lane]) == 0 {
		return 0, nil, ErrEmpty
	}
	seq := m.lanes[lane][0]
	return seq, m.entries[seq], nil
}

// Lanes implements Queue.
func (m *Memory) Lanes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.lanes))
	for lane, seqs := range m.lanes {
		if len(seqs) > 0 {
			out = append(out, lane)
		}
	}
	sort.Strings(out)
	return out
}

// LaneLen implements Queue.
func (m *Memory) LaneLen(lane string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lanes[lane])
}

// LaneLens implements Queue: every lane's depth under one lock
// acquisition.
func (m *Memory) LaneLens() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.lanes))
	for lane, seqs := range m.lanes {
		if len(seqs) > 0 {
			out[lane] = len(seqs)
		}
	}
	return out
}

// Ack implements Queue.
func (m *Memory) Ack(seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropLocked(seq)
	return nil
}

// Quarantine implements Queue (dropping the entry — there is no disk to
// keep evidence on — but still counting it for the operator surface).
func (m *Memory) Quarantine(seq uint64, reason error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropLocked(seq)
	m.quarantined++
	return nil
}

// Quarantined implements Queue.
func (m *Memory) Quarantined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined
}

// SenderID implements Queue.
func (m *Memory) SenderID() string { return m.sender }

func (m *Memory) dropLocked(seq uint64) {
	delete(m.entries, seq)
	if lane, ok := m.laneOf[seq]; ok {
		delete(m.laneOf, seq)
		for i, s := range m.lanes[lane] {
			if s == seq {
				m.lanes[lane] = append(m.lanes[lane][:i], m.lanes[lane][i+1:]...)
				break
			}
		}
		if len(m.lanes[lane]) == 0 {
			delete(m.lanes, lane)
		}
	}
	for i, s := range m.seqs {
		if s == seq {
			m.seqs = append(m.seqs[:i], m.seqs[i+1:]...)
			return
		}
	}
}

// Len implements Queue.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seqs)
}
