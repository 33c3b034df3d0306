package proxy

import (
	"slices"
	"sync"
)

// DefaultDedupWindow is the batch-dedup FIFO capacity when the operator
// does not override it (-dedup-window).
const DefaultDedupWindow = 1024

// maxDedupSenders bounds the per-sender sequence watermark map (FIFO:
// the oldest sender ages out first).
const maxDedupSenders = 256

// dedupVerdict is Begin's decision for one batch id.
type dedupVerdict int

const (
	// dedupClaimed: the caller owns the application and must end it with
	// Done or Forget.
	dedupClaimed dedupVerdict = iota
	// dedupApplied: a previous application completed — ack the duplicate
	// without reprocessing.
	dedupApplied
	// dedupInFlight: another application of the same id is still running
	// — answer retryable, NOT success (a success ack would let the
	// sender consume its entry while the owning attempt can still fail).
	dedupInFlight
	// dedupStale: the id is gone from the window AND the sender's
	// sequence watermark proves this entry was superseded long ago — a
	// stale redelivery (delayed duplicate, operator re-injection) that
	// must be rejected (409), not silently re-absorbed into a new round.
	dedupStale
)

// batchDedup remembers recently-applied batch ids so a redelivered batch
// acks instead of double-counting, and tracks in-flight applications so
// an overlapping redelivery neither re-applies NOR falsely acks work
// that has not finished. The id window is a bounded FIFO; what closes
// the aged-out slip is the per-sender sequence watermark: a sender's
// outbox is strictly ordered (entry N+1 is never sent before N is
// acknowledged), so once the receiver has applied seq N from a sender,
//
//   - a redelivery of one of seq N's ids that aged out of the window is
//     the lost-ack case: it was applied, ack it (dedupApplied);
//   - a new id at seq N is another part of the same entry (an entry too
//     large for one request travels as several batches sharing its
//     seq): claim it;
//   - anything with seq < N can only be a stale duplicate: reject it
//     (dedupStale) instead of re-absorbing a round that already counted.
type batchDedup struct {
	mu    sync.Mutex
	cap   int
	state map[string]bool // false = application in flight, true = applied
	order []string
	// hwm maps sender id → its watermark; hwmOrder bounds it LRU.
	hwm      map[string]senderMark
	hwmOrder []string
}

// senderMark is a sender's highest entry sequence acknowledged as
// applied, with the batch ids applied at that sequence (one per part).
type senderMark struct {
	seq uint64
	ids []string
}

// SetWindow sizes the id FIFO (<= 0 keeps DefaultDedupWindow). Call
// before first use.
func (d *batchDedup) SetWindow(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > 0 {
		d.cap = n
	}
}

func (d *batchDedup) capLocked() int {
	if d.cap > 0 {
		return d.cap
	}
	return DefaultDedupWindow
}

// Begin atomically decides what to do with batch id from (sender, seq);
// hasSeq is false when the sender did not identify itself (legacy
// senders — the watermark check is skipped and aged-out ids are
// indistinguishable from new batches, the pre-watermark behaviour).
func (d *batchDedup) Begin(id, sender string, seq uint64, hasSeq bool) dedupVerdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == nil {
		d.state = make(map[string]bool)
	}
	if done, ok := d.state[id]; ok {
		if done {
			return dedupApplied
		}
		return dedupInFlight
	}
	if hasSeq {
		if m, ok := d.hwm[sender]; ok {
			if seq == m.seq && slices.Contains(m.ids, id) {
				// Lost-ack redelivery of a part of the sender's last
				// applied entry, its id already aged out of the window.
				return dedupApplied
			}
			if seq < m.seq {
				return dedupStale
			}
		}
	}
	d.state[id] = false
	d.order = append(d.order, id)
	if len(d.order) > d.capLocked() {
		delete(d.state, d.order[0])
		d.order = d.order[1:]
	}
	return dedupClaimed
}

// Done marks a claimed id as applied and advances the sender's sequence
// watermark.
func (d *batchDedup) Done(id, sender string, seq uint64, hasSeq bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.state[id]; ok {
		d.state[id] = true
	}
	if !hasSeq {
		return
	}
	if d.hwm == nil {
		d.hwm = make(map[string]senderMark)
	}
	m, ok := d.hwm[sender]
	switch {
	case !ok:
		d.hwm[sender] = senderMark{seq: seq, ids: []string{id}}
		d.hwmOrder = append(d.hwmOrder, sender)
		if len(d.hwmOrder) > maxDedupSenders {
			delete(d.hwm, d.hwmOrder[0])
			d.hwmOrder = d.hwmOrder[1:]
		}
		return
	case seq > m.seq:
		d.hwm[sender] = senderMark{seq: seq, ids: []string{id}}
	case seq == m.seq && !slices.Contains(m.ids, id):
		m.ids = append(m.ids, id)
		d.hwm[sender] = m
	}
	// LRU, not FIFO: a long-lived durable sender must not be evicted by
	// a churn of one-shot senders just because it registered first — it
	// is exactly the sender whose watermark matters.
	for i, v := range d.hwmOrder {
		if v == sender {
			d.hwmOrder = append(append(d.hwmOrder[:i:i], d.hwmOrder[i+1:]...), sender)
			break
		}
	}
}

// Forget releases an id claimed by Begin whose application failed, so a
// redelivery gets a fresh attempt.
func (d *batchDedup) Forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.state, id)
	for i, v := range d.order {
		if v == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			return
		}
	}
}
