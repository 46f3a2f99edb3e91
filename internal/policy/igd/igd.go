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
// structures as future work, and DESIGN §12 records why no static index
// fits). The scan is kept cheap instead: per-clip state is one dense record
// indexed by ClipID, read once per resident, and the result reuses one
// buffer, so a steady-state Victims call allocates nothing. The global
// inflation L rises to each evicted priority exactly as in GreedyDual.
package igd

import (
	"fmt"

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
	seed uint64

	tracker *history.Tracker
	src     *randutil.Source

	inflation float64
	// clips holds the state of clips 1..n at index ID-1; spill holds that of
	// any other ID a cache hands the policy, created on first write.
	clips []clipState
	spill map[media.ClipID]*clipState
	// Victims' scan state. consider folds each resident into minH and ties
	// (the minimum-score residents, then the one-element result) at scanNow;
	// it is bound once in New because a closure handed through the
	// ResidentView interface would otherwise escape, one allocation a call.
	consider func(media.Clip) bool
	scanNow  vtime.Time
	minH     float64
	ties     []media.ClipID

	// freezeAging disables selection-time Δ evaluation and freezes the
	// priority at touch time instead — the BenchmarkIGDAging ablation.
	freezeAging bool
}

// clipState is IGD's per-clip record. A clip is registered — resident as
// far as the policy knows — exactly when nref > 0: insertion and hits set
// nref ≥ 1 together with baseL, and eviction zeroes the record.
type clipState struct {
	baseL float64 // L(x): the inflation when x was last inserted or hit
	nref  uint64  // references since x became resident
	// eff, when non-zero, overrides the clip's size with its resident byte
	// total for partially resident clips under segment-granular caches
	// (core.SegmentAware).
	eff media.Bytes
	// frozen is the priority computed at touch time (FrozenAging only).
	frozen float64
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
		seed:    seed,
		tracker: history.NewTracker(n, k),
		src:     randutil.NewSource(seed),
		clips:   make([]clipState, n),
		spill:   make(map[media.ClipID]*clipState),
	}
	p.consider = p.considerResident
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
func (p *Policy) NRef(id media.ClipID) uint64 {
	if s := p.lookup(id); s != nil {
		return s.nref
	}
	return 0
}

// Tracker exposes the underlying reference history.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// lookup returns id's record, or nil for an ID outside 1..n that has none.
func (p *Policy) lookup(id media.ClipID) *clipState {
	if id >= 1 && int(id) <= len(p.clips) {
		return &p.clips[id-1]
	}
	return p.spill[id]
}

// state returns id's record, creating one for an ID outside 1..n.
func (p *Policy) state(id media.ClipID) *clipState {
	s := p.lookup(id)
	if s == nil {
		s = new(clipState)
		p.spill[id] = s
	}
	return s
}

// Score returns the clip's current priority
// L(x) + nref(x)/(Δ_K(x,now)·size(x)). Clips with fewer than K references
// have infinite Δ and contribute nothing beyond their base inflation.
func (p *Policy) Score(c media.Clip, now vtime.Time) float64 {
	s := p.lookup(c.ID)
	if s == nil {
		s = &clipState{}
	}
	return p.score(c, s, now)
}

// score is Score for the clip's record s: the touch-time priority of a
// registered clip under FrozenAging, the live one otherwise.
func (p *Policy) score(c media.Clip, s *clipState, now vtime.Time) float64 {
	if p.freezeAging && s.nref > 0 {
		return s.frozen
	}
	return p.liveScore(c, s, now)
}

// liveScore evaluates H(x) with Δ_K taken at now.
func (p *Policy) liveScore(c media.Clip, s *clipState, now vtime.Time) float64 {
	kth, ok := p.tracker.KthLastTime(c.ID)
	if !ok {
		return s.baseL
	}
	delta := float64(now - kth)
	if delta <= 0 {
		delta = 1 // the K-th reference happened this tick; clamp to one tick
	}
	size := float64(c.Size)
	if s.eff != 0 {
		size = float64(s.eff)
	}
	return s.baseL + float64(s.nref)/(delta*size)
}

// OnResidentBytes implements core.SegmentAware. Scores are evaluated at
// victim-selection time, so recording the new occupancy suffices; only the
// frozen-aging ablation refreshes its cached score.
func (p *Policy) OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	s := p.state(clip.ID)
	s.eff = 0
	if resident > 0 && resident < clip.Size {
		s.eff = resident
	}
	if p.freezeAging && s.nref > 0 {
		s.frozen = p.liveScore(clip, s, now)
	}
}

// Record implements core.Policy: every reference updates the history; a hit
// additionally increments nref and re-bases the clip at the current
// inflation.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	p.tracker.Observe(clip.ID, now)
	if hit {
		s := p.state(clip.ID)
		s.nref++
		s.baseL = p.inflation
		if p.freezeAging {
			s.frozen = p.liveScore(clip, s, now)
		}
	}
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: evict the resident clip with minimum
// current score, ties broken uniformly at random; L rises to the evicted
// score. The returned slice is reused by the next call.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, now vtime.Time) []media.ClipID {
	p.scanNow, p.minH, p.ties = now, 0, p.ties[:0]
	view.ForEachResident(p.consider)
	ties := p.ties
	if len(ties) == 0 {
		return nil
	}
	if p.minH > p.inflation {
		p.inflation = p.minH
	}
	if len(ties) > 1 {
		ties[0] = ties[p.src.Intn(len(ties))]
	}
	return ties[:1]
}

// considerResident is the Victims scan step for resident c, visited in
// ascending ID order.
func (p *Policy) considerResident(c media.Clip) bool {
	s := p.state(c.ID)
	if s.nref == 0 {
		// A resident the policy never saw inserted (its state was reset
		// under a populated cache): adopt it at the current inflation.
		p.adopt(c, s, p.scanNow)
	}
	h := p.score(c, s, p.scanNow)
	switch {
	case len(p.ties) == 0 || h < p.minH:
		p.minH, p.ties = h, append(p.ties[:0], c.ID)
	case h == p.minH:
		p.ties = append(p.ties, c.ID)
	}
	return true
}

// adopt registers clip c, whose record is s, at the current inflation with
// nref = 1. Re-adopting a registered clip keeps its frozen priority.
func (p *Policy) adopt(c media.Clip, s *clipState, now vtime.Time) {
	fresh := s.nref == 0
	s.nref = 1
	s.baseL = p.inflation
	if p.freezeAging && fresh {
		s.frozen = p.liveScore(c, s, now)
	}
}

// OnInsert implements core.Policy: nref starts at 1 (the inserting
// reference) and the clip is based at the current inflation.
func (p *Policy) OnInsert(clip media.Clip, now vtime.Time) {
	p.adopt(clip, p.state(clip.ID), now)
}

// OnEvict implements core.Policy: the residency reference count is
// forgotten (Section 4.2: "IGD forgets nref(x) when clip x is swapped out");
// the K-reference history survives.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	if s := p.lookup(id); s != nil {
		*s = clipState{}
	}
	delete(p.spill, id)
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.inflation = 0
	p.tracker.Reset()
	p.src = randutil.NewSource(p.seed)
	clear(p.clips)
	clear(p.spill)
}
