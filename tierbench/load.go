package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/nn"
)

// generator is the closed-loop load generator. In each round, senders
// goroutines share the round's roundSize sends, each waiting for its
// ack; the generator then waits until the aggregation server closes the
// round before it starts the next one, so rounds never overlap.
type generator struct {
	t       *tier
	obs     *observer
	pool    []nn.ParamSet
	tr      *tracer // nil when the run is untraced
	senders int
	// coldStride spaces the round's cold sends: send i is cold when
	// i%coldStride == 0 (0: every send is warm).
	coldStride         int
	nextWarm, nextCold int // the next warm and cold participant, in turn
	// sent[i] counts acknowledged sends that carried pool[i].
	sent     []int
	seq      int // sends since deploy; send seq carries pool[seq % len(pool)]
	rounds   int // rounds closed since deploy
	attempts int // sends issued since deploy
	failed   int // sends that returned an error

	// The current round, shared with the sender goroutines: the
	// generator fills part and upd before waking them, they fill the
	// rest before wg.Done.
	part  [roundSize]*client.Participant
	upd   [roundSize]nn.ParamSet
	start [roundSize]time.Time
	dur   [roundSize]time.Duration
	errs  [roundSize]error
	next  atomic.Int64
	wg    sync.WaitGroup
	kick  chan struct{}
	exits sync.WaitGroup

	*samples
}

// samples holds a window's sample buffers, allocated once per run so
// that recording them adds no allocations to the measured window and
// their size counts in the live-heap baseline, not against the tier.
type samples struct {
	sendMs, roundMs []float64
	ivs             []interval
}

func newSamples() *samples {
	return &samples{
		sendMs:  make([]float64, 0, 1<<19),
		roundMs: make([]float64, 0, 1<<13),
		ivs:     make([]interval, 0, 1<<13),
	}
}

func newGenerator(ctx context.Context, t *tier, obs *observer, pool []nn.ParamSet, bufs *samples, tr *tracer, senders, coldPerRound int) *generator {
	g := &generator{
		t: t, obs: obs, pool: pool, tr: tr, senders: senders,
		sent:    make([]int, len(pool)),
		kick:    make(chan struct{}),
		samples: bufs,
	}
	if coldPerRound > 0 {
		g.coldStride = roundSize / coldPerRound
	}
	g.exits.Add(senders)
	for s := 0; s < senders; s++ {
		go g.sender(ctx)
	}
	return g
}

// stop ends the sender goroutines and waits for them to exit.
func (g *generator) stop() {
	close(g.kick)
	g.exits.Wait()
}

func (g *generator) sender(ctx context.Context) {
	defer g.exits.Done()
	for range g.kick {
		for {
			i := int(g.next.Add(1) - 1)
			if i >= roundSize {
				break
			}
			sctx := ctx
			var sp span
			traced := g.tr != nil && g.tr.on.Load()
			if traced {
				sctx, sp = g.tr.begin(ctx, kindSend, clientTag)
			}
			g.start[i] = time.Now()
			g.errs[i] = g.part[i].SendUpdate(sctx, g.upd[i])
			g.dur[i] = time.Since(g.start[i])
			if traced {
				g.tr.finish(sp, g.errs[i])
			}
		}
		g.wg.Done()
	}
}

// round drives one round of roundSize sends, each carrying the next
// update of the pool. Send i comes from from[i], or, with from nil, from
// the next warm or cold participant in turn. It returns the time of the
// round's first send and of its close at the server.
func (g *generator) round(ctx context.Context, from []*client.Participant) (first, closed time.Time, err error) {
	for i := range g.part {
		switch {
		case from != nil:
			g.part[i] = from[i]
		case g.coldStride > 0 && i%g.coldStride == 0:
			g.part[i] = g.t.cold[g.nextCold%len(g.t.cold)]
			g.nextCold++
		default:
			g.part[i] = g.t.warm[g.nextWarm%len(g.t.warm)]
			g.nextWarm++
		}
		g.upd[i] = g.pool[(g.seq+i)%len(g.pool)]
	}
	if g.tr != nil {
		g.tr.round.Store(int32(g.rounds))
	}
	g.next.Store(0)
	g.wg.Add(g.senders)
	for s := 0; s < g.senders; s++ {
		g.kick <- struct{}{}
	}
	g.wg.Wait()
	g.attempts += roundSize
	first = g.start[0]
	var errs []error
	for i, e := range g.errs {
		if e != nil {
			g.failed++
			errs = append(errs, fmt.Errorf("send %d: %w", i, e))
		}
		if g.start[i].Before(first) {
			first = g.start[i]
		}
	}
	if errs != nil {
		// A round with a failed send can never close at the server.
		return first, closed, fmt.Errorf("round %d: %w", g.rounds, errors.Join(errs...))
	}
	for i := 0; i < roundSize; i++ {
		g.sent[(g.seq+i)%len(g.pool)]++
	}
	g.seq += roundSize
	g.rounds++
	for {
		n, _, last := g.obs.progress()
		if n >= g.rounds {
			return first, last, nil
		}
		select {
		case <-g.obs.signal:
		case <-ctx.Done():
			return first, closed, fmt.Errorf("round %d never closed at the aggregation server: %w", g.rounds-1, ctx.Err())
		}
	}
}

// pass sends once from every participant of the population, in rounds
// of roundSize: the cold set first, then the warm set, so that the warm
// set is the most recently used part of the session cache when the
// measured rounds begin.
func (g *generator) pass(ctx context.Context) error {
	for _, set := range [][]*client.Participant{g.t.cold, g.t.warm} {
		for r := 0; r+roundSize <= len(set); r += roundSize {
			if _, _, err := g.round(ctx, set[r:r+roundSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// window is one measured run of whole rounds. Its sample slices alias
// the generator's buffers and are valid until the next measure.
type window struct {
	wall     time.Duration // window start to the last round's close
	updates  int           // update slots the aggregation server absorbed
	firstRnd int           // the first round of the window, as counted since deploy
	sendMs   []float64
	roundMs  []float64
	ivs      []interval // round intervals on the tracer's clock (traced windows only)
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	heapLive uint64
}

// measure drives whole rounds until dur has passed. CPU time, allocation
// counters and the live heap are read around it; inputs were generated
// before, so they fall outside the window.
func (g *generator) measure(ctx context.Context, dur time.Duration) (window, error) {
	g.sendMs, g.roundMs, g.ivs = g.sendMs[:0], g.roundMs[:0], g.ivs[:0]
	w := window{firstRnd: g.rounds}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return w, err
	}
	_, slots0, _ := g.obs.progress()
	t0 := time.Now()
	var last time.Time
	for time.Since(t0) < dur {
		first, closed, err := g.round(ctx, nil)
		if err != nil {
			return w, err
		}
		for _, sd := range g.dur {
			g.sendMs = append(g.sendMs, float64(sd)/float64(time.Millisecond))
		}
		g.roundMs = append(g.roundMs, float64(closed.Sub(first))/float64(time.Millisecond))
		if g.tr != nil {
			g.ivs = append(g.ivs, interval{first.Sub(g.tr.base), closed.Sub(g.tr.base)})
		}
		last = closed
	}
	cpu1, err := cpuTime()
	if err != nil {
		return w, err
	}
	runtime.ReadMemStats(&m1)
	_, slots1, _ := g.obs.progress()
	w.wall = last.Sub(t0)
	w.updates = slots1 - slots0
	w.sendMs, w.roundMs, w.ivs = g.sendMs, g.roundMs, g.ivs
	w.cpu = cpu1 - cpu0
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.bytes = m1.TotalAlloc - m0.TotalAlloc
	w.heapLive = liveHeap()
	return w, nil
}

// liveHeap is HeapAlloc after two GC cycles: sync.Pool contents survive
// the first in the victim cache, and whether a pooled buffer is there
// depends on timing.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
