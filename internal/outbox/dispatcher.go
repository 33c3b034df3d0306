package outbox

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// DeliverFunc attempts delivery of one opened entry. Returning nil
// acknowledges (consumes) the entry. A PermanentError quarantines it —
// the downstream rejected the entry and retrying cannot help. Any other
// error is transient: the entry stays queued and is retried with backoff.
type DeliverFunc func(ctx context.Context, seq uint64, payload []byte) error

// PermanentError marks a delivery failure retrying cannot fix (e.g. the
// downstream returned 4xx). The dispatcher quarantines the entry instead
// of retrying it forever.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return fmt.Sprintf("outbox: permanent: %v", e.Err) }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err as a PermanentError.
func Permanent(err error) error { return &PermanentError{Err: err} }

// Default bounds for the dispatcher's knobs when the caller does not
// override them.
const (
	DefaultRetryBase      = 50 * time.Millisecond
	DefaultRetryMax       = 5 * time.Second
	DefaultWorkers        = 4
	DefaultAttemptTimeout = 60 * time.Second
)

// Options configures a Dispatcher. Zero values take the defaults above.
type Options struct {
	// RetryBase is a lane's first retry delay after a transient failure;
	// RetryMax is its backoff ceiling (doubling in between, jittered).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Workers bounds how many lanes deliver concurrently. One lane is
	// only ever drained by one worker at a time, so per-lane ordering
	// holds for any worker count.
	Workers int
	// AttemptTimeout bounds one delivery attempt. It is clamped to at
	// least RetryMax: an attempt ceiling shorter than the backoff ceiling
	// would cancel slow-but-succeeding sends only to wait even longer
	// before retrying them.
	AttemptTimeout time.Duration
}

// laneState is the dispatcher's retry book-keeping for one lane.
type laneState struct {
	busy      bool          // a worker currently owns this lane
	backoff   time.Duration // delay the last failure scheduled (0 = healthy)
	notBefore time.Time     // next attempt is gated until this instant
	delivered uint64        // entries acknowledged on this lane
	failures  uint64        // transient delivery failures on this lane
}

// LaneStat is a point-in-time snapshot of one lane, for status surfaces.
type LaneStat struct {
	// Lane is the envelope destination ("" = the tier's downstream).
	Lane      string
	Pending   int           // entries awaiting delivery
	InFlight  bool          // a worker is draining the lane right now
	Backoff   time.Duration // current retry delay (0 when healthy)
	NextRetry time.Duration // time until the next gated attempt (0 = none)
	Delivered uint64        // entries acknowledged since Start
	Failures  uint64        // transient failures since Start
}

// Dispatcher drains a Queue through a DeliverFunc using a pool of
// workers, one independent delivery lane per envelope destination. It is
// the background half of the delivery pipeline: ingress commits rounds to
// the queue and returns immediately; the dispatcher owns every retry.
// Each lane keeps its own jittered exponential backoff, so a dead peer's
// lane parks itself between retries while every other lane keeps
// delivering — a partial failure degrades one destination, not the tier.
type Dispatcher struct {
	q              Queue
	deliver        DeliverFunc
	base           time.Duration // first retry delay
	max            time.Duration // backoff ceiling
	workers        int
	attemptTimeout time.Duration

	// ctx is the dispatcher's lifetime: every delivery attempt derives
	// its per-attempt timeout from it, so Close can abort an attempt
	// still hung after closeGrace instead of waiting out the full
	// attempt timeout against a dead peer.
	ctx    context.Context
	cancel context.CancelFunc

	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	jobs    chan string
	results chan laneResult
	wg      sync.WaitGroup

	mu       sync.Mutex
	lanes    map[string]*laneState
	inFlight int // lanes handed to workers and not yet reported back
	started  bool
}

// laneResult is a worker's report after releasing a lane. Deliveries
// are not carried here: drainLane counts each ack into the lane's
// state as it happens, so status snapshots stay live mid-drain.
type laneResult struct {
	lane   string
	failed bool // pass ended on a transient failure (back the lane off)
}

// NewDispatcher builds a dispatcher over q. Call Start to begin draining.
func NewDispatcher(q Queue, deliver DeliverFunc, opts Options) *Dispatcher {
	base, max := opts.RetryBase, opts.RetryMax
	if base <= 0 {
		base = DefaultRetryBase
	}
	if max <= 0 {
		max = DefaultRetryMax
	}
	if max < base {
		max = base
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	timeout := opts.AttemptTimeout
	if timeout <= 0 {
		timeout = DefaultAttemptTimeout
	}
	if timeout < max {
		timeout = max
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Dispatcher{
		q: q, deliver: deliver, base: base, max: max,
		workers: workers, attemptTimeout: timeout,
		ctx: ctx, cancel: cancel,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		jobs:    make(chan string, workers),
		results: make(chan laneResult, workers),
		lanes:   make(map[string]*laneState),
	}
}

// Start launches the coordinator and the worker pool.
func (d *Dispatcher) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	for i := 0; i < d.workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	go d.loop()
}

// Wake nudges the dispatcher after a Put (or after new routing state,
// e.g. a remote key registration, may have unblocked a stalled lane):
// every lane's backoff gate is lifted so the fresh state is tried
// immediately instead of at the next backoff tick.
func (d *Dispatcher) Wake() {
	d.mu.Lock()
	for _, st := range d.lanes {
		st.notBefore = time.Time{}
	}
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// closeGrace is how long Close lets an in-flight delivery attempt run
// before cancelling it. The two failure modes it balances: an attempt
// that already reached its peer but has not yet recorded its ack must
// be allowed to finish — cancelling it loses the ack and the entry
// redelivers (double-counting at receivers without dedup) after a
// restart; an attempt hung on a dead peer must NOT hold shutdown for
// the full attempt timeout. A real in-flight response completes in
// milliseconds; only a blackholed connection is still going after a
// second, and aborting that one is safe (nothing was acked).
const closeGrace = time.Second

// Close stops the coordinator and workers and waits for them to
// return. In-flight delivery attempts get closeGrace to complete
// cleanly; attempts still running after that are cancelled via the
// dispatcher-lifetime context every attempt derives from. Queued
// entries stay queued (on disk for a durable queue) for the next
// process; a cancelled attempt's entry was never acked, so it
// redelivers.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if !d.started {
		d.started = true // a never-started dispatcher just closes its channels
		close(d.done)
		d.mu.Unlock()
		d.cancel()
		return
	}
	select {
	case <-d.stop:
		d.mu.Unlock()
		<-d.done
		d.joinWorkers()
		return
	default:
	}
	close(d.stop)
	d.mu.Unlock()
	<-d.done
	d.joinWorkers()
}

// joinWorkers waits for the worker pool: a grace period first, so an
// attempt that is mid-response can finish and record its ack,
// then the lifetime context is cancelled to abort attempts that are
// actually hung.
func (d *Dispatcher) joinWorkers() {
	defer d.cancel() // release the lifetime context either way
	workersDone := make(chan struct{})
	go func() { d.wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
		return
	case <-time.After(closeGrace):
	}
	d.cancel()
	<-workersDone
}

// Flush blocks until the queue is empty and no delivery is in flight, or
// ctx expires. It is the test/shutdown helper for "everything the tier
// drained has reached the downstream".
func (d *Dispatcher) Flush(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		d.mu.Lock()
		idle := d.inFlight == 0
		d.mu.Unlock()
		if idle && d.q.Len() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("outbox: flush: %d entries still pending: %w", d.q.Len(), ctx.Err())
		case <-tick.C:
		}
	}
}

// LaneStats snapshots every lane the dispatcher knows about — lanes with
// pending entries plus lanes that delivered or failed since Start. The
// per-lane depths come from ONE queue snapshot (a single lock
// acquisition), so they are mutually consistent and sum to the queue's
// total at that instant — polling them under load used to read each
// lane's depth separately, racing the workers' acks in between, and
// could report totals no single moment ever held.
// Backlog reports the delivery backlog as two cheap scalars: total
// pending entries across all lanes and the deepest single lane. It is
// the admission gate's signal accessor — called on the ingress hot path
// at snapshot cadence, so it skips LaneStats' per-lane time math and
// sorted assembly.
func (d *Dispatcher) Backlog() (pending, maxLane int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range d.q.LaneLens() {
		pending += n
		if n > maxLane {
			maxLane = n
		}
	}
	return pending, maxLane
}

func (d *Dispatcher) LaneStats() []LaneStat {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	// The depth snapshot is taken while holding d.mu (the same
	// mu-then-queue order loop uses): delivered counters bump under
	// d.mu just before each ack, so reading depths outside the lock
	// let workers ack entries between the two reads — entries then
	// counted as both Pending and Delivered in one snapshot.
	depths := d.q.LaneLens()
	seen := make(map[string]bool, len(depths)+len(d.lanes))
	names := make([]string, 0, len(depths)+len(d.lanes))
	for lane := range depths {
		if !seen[lane] {
			seen[lane] = true
			names = append(names, lane)
		}
	}
	for lane := range d.lanes {
		if !seen[lane] {
			seen[lane] = true
			names = append(names, lane)
		}
	}
	sort.Strings(names)
	out := make([]LaneStat, 0, len(names))
	for _, lane := range names {
		stat := LaneStat{Lane: lane, Pending: depths[lane]}
		if st := d.lanes[lane]; st != nil {
			stat.InFlight = st.busy
			stat.Backoff = st.backoff
			stat.Delivered = st.delivered
			stat.Failures = st.failures
			if wait := st.notBefore.Sub(now); wait > 0 {
				stat.NextRetry = wait
			}
		}
		out = append(out, stat)
	}
	return out
}

// loop is the coordinator: it hands eligible lanes to workers, applies
// each worker's verdict to the lane's backoff state, and sleeps until the
// earliest gated retry (or a wake) when nothing is runnable.
func (d *Dispatcher) loop() {
	defer close(d.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		now := time.Now()
		var nextGate time.Time
		d.mu.Lock()
		for _, lane := range d.q.Lanes() {
			if d.inFlight >= d.workers {
				break
			}
			st := d.lanes[lane]
			if st == nil {
				st = &laneState{}
				d.lanes[lane] = st
			}
			if st.busy {
				continue
			}
			if now.Before(st.notBefore) {
				if nextGate.IsZero() || st.notBefore.Before(nextGate) {
					nextGate = st.notBefore
				}
				continue
			}
			st.busy = true
			d.inFlight++
			// Never blocks: jobs is buffered to the worker count and
			// inFlight < workers guarantees a free slot.
			d.jobs <- lane
		}
		d.mu.Unlock()

		var timerC <-chan time.Time
		if !nextGate.IsZero() {
			timer.Reset(time.Until(nextGate))
			timerC = timer.C
		}
		select {
		case <-d.stop:
			return
		case <-d.wake:
		case res := <-d.results:
			d.settle(res)
		case <-timerC:
			timerC = nil
		}
		if timerC != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// settle applies a worker's report to the lane's retry state.
func (d *Dispatcher) settle(res laneResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.lanes[res.lane]
	if st == nil {
		return
	}
	st.busy = false
	d.inFlight--
	if !res.failed {
		st.backoff = 0
		st.notBefore = time.Time{}
		return
	}
	st.failures++
	if st.backoff <= 0 {
		st.backoff = d.base
	} else {
		st.backoff *= 2
		if st.backoff > d.max {
			st.backoff = d.max
		}
	}
	st.notBefore = time.Now().Add(jitter(st.backoff))
}

// jitter spreads a retry delay over [backoff/2, backoff]. The doubling
// schedule itself stays deterministic; the jitter decorrelates the
// proxies of a tier so a recovered downstream is not hit by every proxy's
// retry in lockstep (each proxy failed at the same moment the downstream
// went away, so un-jittered deterministic backoff synchronises the herd).
func jitter(backoff time.Duration) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// worker takes lane assignments from the coordinator, drains each as far
// as it will go, and reports the outcome.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case lane := <-d.jobs:
			res := d.drainLane(lane)
			select {
			case d.results <- res:
			case <-d.stop:
				return
			}
		}
	}
}

// drainLane delivers a lane's entries head-first until the lane is empty,
// a transient failure parks it, or the dispatcher stops. Permanent
// rejections quarantine the entry and the drain continues — one poisoned
// round must not park the lane behind it.
func (d *Dispatcher) drainLane(lane string) laneResult {
	res := laneResult{lane: lane}
	for {
		select {
		case <-d.stop:
			return res
		default:
		}
		seq, payload, err := d.q.NextIn(lane)
		if errors.Is(err, ErrEmpty) {
			return res
		}
		if err != nil {
			// Queue-level read failure with entries still indexed; back
			// off rather than spin.
			res.failed = true
			return res
		}
		// Derive the attempt from the dispatcher's lifetime, not
		// context.Background(): Close cancels d.ctx, so shutdown aborts a
		// hung attempt instead of waiting out attemptTimeout.
		ctx, cancel := context.WithTimeout(d.ctx, d.attemptTimeout)
		deliverErr := d.deliver(ctx, seq, payload)
		cancel()
		var perm *PermanentError
		switch {
		case deliverErr == nil:
			// Count the delivery BEFORE the ack removes the entry, under
			// d.mu, so a concurrent LaneStats never sees an entry vanish
			// from Pending without having appeared in Delivered (settle
			// reporting at lane release left a whole drain pass torn).
			d.mu.Lock()
			if st := d.lanes[lane]; st != nil {
				st.delivered++
			}
			d.mu.Unlock()
			d.q.Ack(seq)
		case errors.As(deliverErr, &perm):
			// Quarantining loses the entry from the delivery path; that
			// must never be silent.
			log.Printf("outbox: entry %d quarantined: %v", seq, deliverErr)
			d.q.Quarantine(seq, deliverErr)
		default:
			res.failed = true
			return res
		}
	}
}
