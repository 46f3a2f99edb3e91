// Package igd implements Interval-Based GreedyDual (IGD), one of the
// paper's three novel techniques (Section 4.2).
//
// IGD extends GreedyDual to consider recency so that equi-sized repositories
// are supported effectively. Like DYNSimple it maintains the last K
// reference times of every clip; at time t the aging interval
// Δ_K(x, t) = t − t_K(x) is the span back to the K-th most recent reference.
// The cost function becomes
//
//	H(x) = L(x) + nref(x) / (Δ_K(x, t) · size(x))
//
// where nref(x) counts references since clip x became resident (reset to
// zero on swap-out, like GreedyDual-Freq), and L(x) is the inflation value
// captured when x was last touched. Crucially Δ_K is evaluated at victim-
// selection time: a previously popular clip that stops receiving hits sees
// its Δ grow and its priority sink, so IGD "forgets" stale popularity —
// the property that makes it adapt where GreedyDual-Freq cannot (Figure 7).
//
// Because priorities drift with time, victim selection scans the resident
// set (O(n), n = resident clips; the paper's Section 5 leaves tree-based
// structures as future work). The global inflation L rises to each evicted
// priority exactly as in GreedyDual.
package igd

import (
	"fmt"
	"math"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// DefaultK is the history depth used by the paper's experiments (same
// tracker depth as DYNSimple's default).
const DefaultK = 2

// Policy is the IGD technique. It implements core.Policy.
type Policy struct {
	k    int
	n    int
	seed uint64

	tracker *history.Tracker
	src     *randutil.Source

	inflation float64
	baseL     map[media.ClipID]float64
	nref      map[media.ClipID]uint64
	// eff overrides a clip's size with its resident byte total for partially
	// resident clips under segment-granular caches (core.SegmentAware).
	eff map[media.ClipID]media.Bytes

	// freezeAging disables selection-time Δ evaluation and freezes the
	// priority at touch time instead — the BenchmarkIGDAging ablation.
	freezeAging bool
	frozen      map[media.ClipID]float64
}

var _ core.Policy = (*Policy)(nil)

// Option configures a Policy.
type Option func(*Policy)

// FrozenAging computes each clip's priority once at touch time instead of
// re-evaluating Δ_K at victim selection. Used by the aging ablation.
func FrozenAging() Option {
	return func(p *Policy) { p.freezeAging = true }
}

// New returns an IGD policy for a repository of n clips with history depth
// k and the given tie-break seed.
func New(n, k int, seed uint64, opts ...Option) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("igd: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("igd: K must be positive, got %d", k)
	}
	p := &Policy{
		k:       k,
		n:       n,
		seed:    seed,
		tracker: history.NewTracker(n, k),
		src:     randutil.NewSource(seed),
		baseL:   make(map[media.ClipID]float64),
		nref:    make(map[media.ClipID]uint64),
		eff:     make(map[media.ClipID]media.Bytes),
		frozen:  make(map[media.ClipID]float64),
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustNew is like New but panics on error; for experiment setup.
func MustNew(n, k int, seed uint64, opts ...Option) *Policy {
	p, err := New(n, k, seed, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.freezeAging {
		return fmt.Sprintf("IGD(K=%d,frozen)", p.k)
	}
	return fmt.Sprintf("IGD(K=%d)", p.k)
}

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Inflation returns the current inflation value L.
func (p *Policy) Inflation() float64 { return p.inflation }

// NRef returns the reference count of a resident clip since residency.
func (p *Policy) NRef(id media.ClipID) uint64 { return p.nref[id] }

// Tracker exposes the underlying reference history.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// Score returns the clip's current priority
// L(x) + nref(x)/(Δ_K(x,now)·size(x)). Clips with fewer than K references
// have infinite Δ and contribute nothing beyond their base inflation.
func (p *Policy) Score(c media.Clip, now vtime.Time) float64 {
	base := p.baseL[c.ID]
	if p.freezeAging {
		if h, ok := p.frozen[c.ID]; ok {
			return h
		}
	}
	delta := p.tracker.BackwardKDistance(c.ID, now)
	if math.IsInf(delta, 1) {
		return base
	}
	if delta <= 0 {
		delta = 1 // the K-th reference happened this tick; clamp to one tick
	}
	return base + float64(p.nref[c.ID])/(delta*p.sizeOf(c))
}

// sizeOf returns the bytes a clip occupies for ranking: its resident byte
// total when a segmented cache reported one, the full clip size otherwise.
func (p *Policy) sizeOf(c media.Clip) float64 {
	if b, ok := p.eff[c.ID]; ok {
		return float64(b)
	}
	return float64(c.Size)
}

// OnResidentBytes implements core.SegmentAware. Scores are evaluated at
// victim-selection time, so recording the new occupancy suffices; only the
// frozen-aging ablation refreshes its cached score.
func (p *Policy) OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	if resident > 0 && resident < clip.Size {
		p.eff[clip.ID] = resident
	} else {
		delete(p.eff, clip.ID)
	}
	if p.freezeAging {
		if _, ok := p.frozen[clip.ID]; ok {
			delete(p.frozen, clip.ID)
			p.frozen[clip.ID] = p.Score(clip, now)
		}
	}
}

// Record implements core.Policy: every reference updates the history; a hit
// additionally increments nref and re-bases the clip at the current
// inflation.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	p.tracker.Observe(clip.ID, now)
	if hit {
		p.nref[clip.ID]++
		p.baseL[clip.ID] = p.inflation
		if p.freezeAging {
			delete(p.frozen, clip.ID)
			p.frozen[clip.ID] = p.Score(clip, now)
		}
	}
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: evict the resident clip with minimum
// current score, ties broken uniformly at random; L rises to the evicted
// score.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, now vtime.Time) []media.ClipID {
	var (
		minH  float64
		ties  []media.ClipID
		found bool
	)
	for c := range view.Residents() {
		if _, ok := p.baseL[c.ID]; !ok {
			// Warm-inserted clip: adopt it at the current inflation.
			p.adopt(c, now)
		}
		h := p.Score(c, now)
		switch {
		case !found || h < minH:
			minH, ties, found = h, ties[:0], true
			ties = append(ties, c.ID)
		case h == minH:
			ties = append(ties, c.ID)
		}
	}
	if !found {
		return nil
	}
	if minH > p.inflation {
		p.inflation = minH
	}
	victim := ties[0]
	if len(ties) > 1 {
		victim = ties[p.src.Intn(len(ties))]
	}
	return []media.ClipID{victim}
}

// adopt registers a clip that became resident without OnInsert (Warm).
func (p *Policy) adopt(c media.Clip, now vtime.Time) {
	p.nref[c.ID] = 1
	p.baseL[c.ID] = p.inflation
	if p.freezeAging {
		p.frozen[c.ID] = p.Score(c, now)
	}
}

// OnInsert implements core.Policy: nref starts at 1 (the inserting
// reference) and the clip is based at the current inflation.
func (p *Policy) OnInsert(clip media.Clip, now vtime.Time) {
	p.adopt(clip, now)
}

// OnEvict implements core.Policy: the residency reference count is
// forgotten (Section 4.2: "IGD forgets nref(x) when clip x is swapped out");
// the K-reference history survives.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	delete(p.baseL, id)
	delete(p.nref, id)
	delete(p.eff, id)
	delete(p.frozen, id)
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.inflation = 0
	p.tracker = history.NewTracker(p.n, p.k)
	p.src = randutil.NewSource(p.seed)
	p.baseL = make(map[media.ClipID]float64)
	p.nref = make(map[media.ClipID]uint64)
	p.eff = make(map[media.ClipID]media.Bytes)
	p.frozen = make(map[media.ClipID]float64)
}
