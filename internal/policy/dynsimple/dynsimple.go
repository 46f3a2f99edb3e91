// Package dynsimple implements Dynamic Simple (DYNSimple), the paper's
// primary contribution (Section 4.1, Figure 4).
//
// DYNSimple transforms the off-line Simple technique into an on-line one by
// estimating each clip's frequency of access from its last K reference
// times: the arrival rate of clip i at time t is λ_i = K / Δ_K(i, t), and
// the estimated frequency is f̂_i = λ_i / Σ_j λ_j. Because the normalizing
// sum is common to all clips, victims are ranked directly by the estimated
// byte-freq λ_i / s_i.
//
// Victim selection follows Figure 4's two-phase algorithm:
//
//  1. Sort the resident clips by ascending λ_i/s_i and greedily gather
//     victims until the incoming clip fits.
//  2. Re-sort the gathered victims by descending size and evict in that
//     order, stopping as soon as enough space is free — sparing small
//     low-value clips that turned out not to be needed.
//
// Reference history is kept for all clips, resident or not (the paper
// quantifies the overhead at 4 MB for a million clips with K=2, and proposes
// five-minute-rule style pruning as future work — see package fiverule).
package dynsimple

import (
	"cmp"
	"fmt"
	"slices"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/vtime"
)

// DefaultK is the history depth the paper recommends ("we believe K=2 is
// sufficient in most cases", Section 4.1).
const DefaultK = 2

// Policy is the DYNSimple technique. It implements core.Policy.
//
// The estimated byte-freq m/((now − oldest)·s), for m tracked references
// the oldest at time oldest, depends on the current time, so no single static
// order exists — but for fixed m and s it ascends exactly as oldest ascends,
// whatever now is. The residents therefore sit in a prioindex.Classed set,
// one class per (size, tracked-count) — at most S·(K+1) for S distinct sizes,
// 18 for the paper's 6 at K=2 — and a phase-1 victim costs one comparison per
// class instead of a sort of the resident set.
type Policy struct {
	k       int
	tracker *history.Tracker
	// refine enables Figure 4's second phase. Disabling it is the
	// BenchmarkDYNSimpleRefinement ablation: victims are then evicted in
	// plain ascending byte-freq order.
	refine bool
	set    *prioindex.Classed
	out    []media.ClipID
}

var _ core.Policy = (*Policy)(nil)

// Option configures a Policy.
type Option func(*Policy)

// WithoutRefinement disables the size-descending victim refinement phase
// (ablation of the Figure 4 pseudo-code's second loop).
func WithoutRefinement() Option {
	return func(p *Policy) { p.refine = false }
}

// New returns a DYNSimple policy for a repository of n clips estimating
// frequencies from the last k references.
func New(n, k int, opts ...Option) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dynsimple: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dynsimple: K must be positive, got %d", k)
	}
	p := &Policy{k: k, tracker: history.NewTracker(n, k), refine: true}
	p.set = prioindex.NewClassed(p.rank, better)
	// A resident whose history is pruned leaves the set, to be adopted under
	// what history it has at the next selection.
	p.tracker.OnForget(p.set.Drop)
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustNew is like New but panics on error; for experiment setup.
func MustNew(n, k int, opts ...Option) *Policy {
	p, err := New(n, k, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if !p.refine {
		return fmt.Sprintf("DYNSimple(K=%d,no-refine)", p.k)
	}
	return fmt.Sprintf("DYNSimple(K=%d)", p.k)
}

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Tracker exposes the underlying reference history.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// EstimatedFrequencies returns the current f̂ vector (Section 4.1), indexed
// by clip id-1.
func (p *Policy) EstimatedFrequencies(now vtime.Time) []float64 {
	return p.tracker.EstimatedFrequencies(now)
}

// rank puts a clip in the tier of its tracked-reference count, keyed by the
// oldest of them (zero when it has none), then id.
func (p *Policy) rank(c media.Clip) (tier int, oldest float64, _ vtime.Time) {
	t, _ := p.tracker.OldestTracked(c.ID)
	return p.tracker.Tracked(c.ID), float64(t), 0
}

// byteFreq is λ/s with λ estimated as history.Tracker.Rate does: tracked
// references over the span back to the oldest, zero without history.
func byteFreq(e prioindex.Entry, now vtime.Time) float64 {
	rate := float64(e.Tier)
	if span := float64(now) - e.P; span > 0 {
		rate /= span
	}
	return rate / float64(e.Clip.Size)
}

// better is phase 1's order: ascending estimated byte-freq; ties prefer the
// larger clip, then the lower id, keeping runs deterministic.
func better(a, b prioindex.Entry, now vtime.Time) bool {
	fa, fb := byteFreq(a, now), byteFreq(b, now)
	switch {
	case fa != fb:
		return fa < fb
	case a.Clip.Size != b.Clip.Size:
		return a.Clip.Size > b.Clip.Size
	default:
		return a.ID < b.ID
	}
}

// ByteFreq returns the estimated per-byte access rate λ_i / s_i used to rank
// victims. Normalization by the total arrival rate is omitted since it does
// not affect the ordering.
func (p *Policy) ByteFreq(c media.Clip, now vtime.Time) float64 {
	return byteFreq(p.set.Rank(c), now)
}

// Record implements core.Policy: a resident clip is re-ranked under its
// post-reference history.
func (p *Policy) Record(clip media.Clip, now vtime.Time, _ bool) {
	p.tracker.Observe(clip.ID, now)
	p.set.Rerank(clip)
}

// Admit implements core.Policy: every referenced clip is materialized
// (Section 2's default assumption).
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy using the two-phase Figure 4 algorithm.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	// Phase 1: ascending estimated byte-freq until the incoming clip fits.
	victims := p.set.Prefix(view, need, now)
	if p.refine {
		// Phase 2: evict in descending size order, stopping once enough
		// space is free so that unneeded small victims are spared.
		slices.SortFunc(victims, func(a, b media.Clip) int {
			return cmp.Or(cmp.Compare(b.Size, a.Size), cmp.Compare(a.ID, b.ID))
		})
	}
	p.out = p.out[:0]
	var freed media.Bytes
	for _, c := range victims {
		if freed >= need {
			break
		}
		p.out = append(p.out, c.ID)
		freed += c.Size
	}
	return p.out
}

// OnInsert implements core.Policy.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) { p.set.Put(clip) }

// OnEvict implements core.Policy. History survives eviction — that is the
// point of DYNSimple's non-resident bookkeeping; only the rank is dropped.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) { p.set.Drop(id) }

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.tracker.Reset()
	p.set.Reset()
}
