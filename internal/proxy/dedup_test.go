package proxy

import (
	"fmt"
	"testing"
)

// TestDedupSenderWatermarkLRU: an active durable sender's watermark must
// survive a churn of one-shot senders (LRU, not insertion-order FIFO).
func TestDedupSenderWatermarkLRU(t *testing.T) {
	var d batchDedup
	d.SetWindow(1)
	// The durable sender registers first and keeps delivering.
	d.Begin("id-a1", "durable", 1, true)
	d.Done("id-a1", "durable", 1, true)
	for i := 0; i < maxDedupSenders+32; i++ {
		id := fmt.Sprintf("churn-%d", i)
		d.Begin(id, fmt.Sprintf("oneshot-%d", i), 1, true)
		d.Done(id, fmt.Sprintf("oneshot-%d", i), 1, true)
		if i%8 == 0 { // the durable sender stays active throughout
			id := fmt.Sprintf("id-a-%d", i)
			d.Done(id, "durable", uint64(2+i), true)
		}
	}
	// Its id FIFO slot is long gone (window=1); the watermark must still
	// classify an old seq as stale.
	if got := d.Begin("id-a1", "durable", 1, true); got != dedupStale {
		t.Fatalf("durable sender's aged redelivery = %v, want dedupStale (watermark evicted?)", got)
	}
}

// TestDedupWatermarkVerdicts pins the Begin decision table.
func TestDedupWatermarkVerdicts(t *testing.T) {
	var d batchDedup
	d.SetWindow(1)
	if got := d.Begin("i1", "s", 1, true); got != dedupClaimed {
		t.Fatalf("fresh id = %v", got)
	}
	if got := d.Begin("i1", "s", 1, true); got != dedupInFlight {
		t.Fatalf("in-flight id = %v", got)
	}
	d.Done("i1", "s", 1, true)
	if got := d.Begin("i1", "s", 1, true); got != dedupApplied {
		t.Fatalf("applied id = %v", got)
	}
	d.Begin("i2", "s", 2, true)
	d.Done("i2", "s", 2, true) // evicts i1 from the window
	if got := d.Begin("i1", "s", 1, true); got != dedupStale {
		t.Fatalf("aged-out superseded id = %v, want stale", got)
	}
	if got := d.Begin("i2", "s", 2, true); got != dedupApplied {
		t.Fatalf("in-window id = %v", got)
	}
	// Lost-ack: id evicted but seq == watermark.
	d.Begin("i3", "other", 1, true)
	d.Done("i3", "other", 1, true)
	if got := d.Begin("i2", "s", 2, true); got != dedupApplied {
		t.Fatalf("lost-ack at watermark = %v, want applied", got)
	}
	// Legacy sender (no seq headers): aged ids are indistinguishable
	// from new batches — claimed, never stale.
	if got := d.Begin("i9", "", 0, false); got != dedupClaimed {
		t.Fatalf("legacy sender = %v", got)
	}
	// The parts of one multi-part entry share its seq: a new id at the
	// watermark is another part to apply, and every applied part is
	// still recognised after its id aged out of the window.
	for _, id := range []string{"e5", "e5.1", "e5.2"} {
		if got := d.Begin(id, "p", 5, true); got != dedupClaimed {
			t.Fatalf("part %s at the watermark = %v, want claimed", id, got)
		}
		d.Done(id, "p", 5, true)
	}
	for _, id := range []string{"e5", "e5.1", "e5.2"} {
		if got := d.Begin(id, "p", 5, true); got != dedupApplied {
			t.Fatalf("redelivered part %s = %v, want applied", id, got)
		}
	}
	d.Begin("e6", "p", 6, true)
	d.Done("e6", "p", 6, true)
	if got := d.Begin("e5.2", "p", 5, true); got != dedupStale {
		t.Fatalf("part of a superseded entry = %v, want stale", got)
	}
}
