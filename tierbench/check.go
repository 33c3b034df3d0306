package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mixnn/internal/fl"
	"mixnn/internal/nn"
)

// conservationTol is the layer-wise tolerance between the mean of every
// update the aggregation server observed and the classic mean of every
// update the participants sent: mixing permutes layers across updates
// but must conserve the sum at every hop.
const conservationTol = 1e-9

// layerFingerprint identifies one layer's content by hashing its
// position, its tensor sizes and four sampled values of every tensor.
// The submitted updates are independent random initialisations, so four
// float64 values per tensor identify the update a layer came from; the
// full float content is checked separately by conservation.
func layerFingerprint(li int, lp nn.LayerParams) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(li)
	h *= prime
	for _, t := range lp.Tensors {
		d := t.Data()
		n := len(d)
		h = (h ^ uint64(n)) * prime
		if n == 0 {
			continue
		}
		for _, at := range [4]int{0, n / 3, 2 * n / 3, n - 1} {
			h = (h ^ math.Float64bits(d[at])) * prime
		}
	}
	return h
}

// observer is the aggregation server's fl.Observer. It sees every
// closed round, and for each observed update it accumulates the
// layer-wise sum and checks whether every layer came from one submitted
// update (an update the tier left intact).
type observer struct {
	roundSize int
	// index maps a layer fingerprint to the submitted update it came
	// from; it is built before the tier starts and only read afterwards.
	index map[uint64]int32

	mu        sync.Mutex
	sum       nn.ParamSet
	slots     int
	intact    int
	unknown   int // layers that match no submitted update
	badRounds int // rounds that closed with other than roundSize slots
	rounds    int
	lastClose time.Time
	// signal wakes the load generator after each round close. One slot
	// suffices: rounds never overlap, and the generator re-reads the
	// round count after every wake-up.
	signal chan struct{}
}

// newObserver indexes the fingerprint of every layer of every update in
// pool. It fails when two pool updates share a layer fingerprint, which
// would make the intact check ambiguous.
func newObserver(pool []nn.ParamSet, roundSize int) (*observer, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("tierbench: empty update pool")
	}
	o := &observer{
		roundSize: roundSize,
		index:     make(map[uint64]int32, len(pool)*pool[0].NumLayers()),
		sum:       pool[0].Clone().Scale(0),
		signal:    make(chan struct{}, 1),
	}
	for i, u := range pool {
		for li, lp := range u.Layers {
			fp := layerFingerprint(li, lp)
			if j, dup := o.index[fp]; dup {
				return nil, fmt.Errorf("tierbench: pool updates %d and %d share a layer-%d fingerprint", j, i, li)
			}
			o.index[fp] = int32(i)
		}
	}
	return o, nil
}

// ObserveRound implements fl.Observer. It runs inside the aggregation
// server's round close.
func (o *observer) ObserveRound(rec fl.RoundRecord) {
	o.mu.Lock()
	for _, u := range rec.Updates {
		src, intact := int32(-1), true
		for li, lp := range u.Layers {
			i, ok := o.index[layerFingerprint(li, lp)]
			switch {
			case !ok:
				o.unknown++
				intact = false
			case li == 0:
				src = i
			case i != src:
				intact = false
			}
		}
		if intact {
			o.intact++
		}
		o.sum.Add(u)
		o.slots++
	}
	if len(rec.Updates) != o.roundSize {
		o.badRounds++
	}
	o.rounds++
	o.lastClose = time.Now()
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

// progress reports how many rounds the aggregation server has closed,
// how many update slots it absorbed, and when the latest round closed.
func (o *observer) progress() (rounds, slots int, lastClose time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rounds, o.slots, o.lastClose
}

// intactBound is the largest intact_frac a mixing tier may show. With k
// candidates per layer list, an output keeps all L layers of one
// update with probability about k^-(L-1); the bound allows half of the
// L-1 layer boundaries to go unmixed, so a pass-through tier (1.0) or a
// tier that mixes a single layer (about 1/k) fails while a correct tier
// (about k^-(L-1)) passes with a wide margin. ⌊L/2⌋ is the ⌈(L-1)/2⌉
// boundaries that must be mixed.
func intactBound(k, layers int) float64 {
	return math.Pow(float64(k), -float64(layers/2))
}

// verdict is the outcome of the correctness gate.
type verdict struct {
	Slots       int     `json:"slots"`
	Sent        int     `json:"sent"`
	BadRounds   int     `json:"bad_rounds"`
	Unknown     int     `json:"unknown_layers"`
	Conserved   bool    `json:"conserved"`
	IntactFrac  float64 `json:"intact_frac"`
	IntactBound float64 `json:"intact_bound"`
}

// check compares what the aggregation server observed with what the
// participants sent: sent[i] is how many acknowledged sends carried
// pool[i]. It fails on a slot count that differs from the sends, a round
// of the wrong size, a layer that matches no submitted update, a
// layer-wise mean that differs from the classic mean by more than
// conservationTol, or an intact_frac above intactBound(k, layers).
func (o *observer) check(pool []nn.ParamSet, sent []int, k int) (verdict, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := verdict{Slots: o.slots, BadRounds: o.badRounds, Unknown: o.unknown}
	expected := pool[0].Clone().Scale(0)
	for i, n := range sent {
		if n > 0 {
			expected.AddScaled(pool[i], float64(n))
			v.Sent += n
		}
	}
	v.IntactBound = intactBound(k, pool[0].NumLayers())
	if o.slots > 0 {
		v.IntactFrac = float64(o.intact) / float64(o.slots)
	}
	if v.Slots != v.Sent {
		return v, fmt.Errorf("tierbench: aggregation server observed %d update slots, participants sent %d", v.Slots, v.Sent)
	}
	if v.Sent == 0 {
		return v, fmt.Errorf("tierbench: no update reached the aggregation server")
	}
	if v.BadRounds != 0 {
		return v, fmt.Errorf("tierbench: %d rounds closed with other than %d updates", v.BadRounds, o.roundSize)
	}
	if v.Unknown != 0 {
		return v, fmt.Errorf("tierbench: %d observed layers match no submitted update", v.Unknown)
	}
	n := 1 / float64(v.Sent)
	v.Conserved = expected.Scale(n).ApproxEqual(o.sum.Clone().Scale(n), conservationTol)
	if !v.Conserved {
		return v, fmt.Errorf("tierbench: layer-wise mean of %d observed updates differs from the sent mean by more than %g", v.Slots, conservationTol)
	}
	if v.IntactFrac > v.IntactBound {
		return v, fmt.Errorf("tierbench: intact_frac %.4f exceeds the mixing bound %.4f (k=%d, %d layers)", v.IntactFrac, v.IntactBound, k, pool[0].NumLayers())
	}
	return v, nil
}
