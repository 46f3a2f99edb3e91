// Package lrusk implements LRU-SK, the paper's size-aware variant of LRU-K
// (Section 4.3).
//
// Where LRU-K evicts the clip with the maximum backward-K distance Δ_K,
// LRU-SK evicts the clip with the maximum Δ_K × size — equivalently the
// minimum 1/(Δ_K × s_i) — so that large, stale clips leave first. With K=2
// this ranks victims identically to DYNSimple(K=2), as Section 4.4 observes:
// DYNSimple's estimated byte-freq is (K/Δ_K)/s_i, whose ascending order is
// exactly descending Δ_K × s_i.
package lrusk

import (
	"fmt"
	"math"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/vtime"
)

// Policy is the LRU-SK technique. It implements core.Policy.
//
// Δ_K(x,t)·s(x) depends on the current time, so no single static order exists
// across clip sizes — but within one size the order is static: a larger Δ_K
// is a smaller t_K, whatever t. The residents therefore sit in a
// prioindex.Classed set, one class per size for complete histories and one
// for incomplete ones, and a victim costs one comparison per class.
type Policy struct {
	k       int
	tracker *history.Tracker
	// tree marks the instance NewFast built: it only changes Name.
	tree bool
	set  *prioindex.Classed
	out  []media.ClipID
}

var _ core.Policy = (*Policy)(nil)

// New returns an LRU-SK policy for a repository of n clips.
func New(n, k int) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lrusk: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("lrusk: K must be positive, got %d", k)
	}
	p := &Policy{k: k, tracker: history.NewTracker(n, k)}
	p.set = prioindex.NewClassed(p.rank, better)
	// A resident whose history is pruned leaves the set, to be adopted under
	// what history it has at the next selection.
	p.tracker.OnForget(p.set.Drop)
	return p, nil
}

// MustNew is like New but panics on error; for experiment setup.
func MustNew(n, k int) *Policy {
	p, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.tree {
		return fmt.Sprintf("LRU-S%d(tree)", p.k)
	}
	return fmt.Sprintf("LRU-S%d", p.k)
}

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Tracker exposes the underlying reference history.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// rank keys a clip with K references by (t_K, t_last, id) in tier 1, and one
// with fewer by (−∞, t_last, id) in tier 0 — LRU among themselves.
func (p *Policy) rank(c media.Clip) (tier int, tK float64, last vtime.Time) {
	last, _ = p.tracker.LastTime(c.ID)
	if kth, ok := p.tracker.KthLastTime(c.ID); ok {
		return 1, float64(kth), last
	}
	return 0, math.Inf(-1), last
}

// score is Δ_K × size at time now; +Inf below K references.
func score(e prioindex.Entry, now vtime.Time) float64 {
	return (float64(now) - e.P) * float64(e.Clip.Size)
}

// better reports whether a is a better victim than b: larger Δ_K×size wins;
// among infinite scores the larger size wins (maximizing freed space); then
// the older last reference, then the lower id.
func better(a, b prioindex.Entry, now vtime.Time) bool {
	sa, sb := score(a, now), score(b, now)
	switch {
	case sa != sb:
		return sa > sb
	case math.IsInf(sa, 1) && a.Clip.Size != b.Clip.Size:
		return a.Clip.Size > b.Clip.Size
	case a.Last != b.Last:
		return a.Last < b.Last
	default:
		return a.ID < b.ID
	}
}

// Score returns the eviction key Δ_K × size for a resident clip; larger
// means a better victim. Clips with fewer than K references score +Inf.
func (p *Policy) Score(c media.Clip, now vtime.Time) float64 {
	return score(p.set.Rank(c), now)
}

// Record implements core.Policy: a resident clip is re-ranked under its
// post-reference history.
func (p *Policy) Record(clip media.Clip, now vtime.Time, _ bool) {
	p.tracker.Observe(clip.ID, now)
	p.set.Rerank(clip)
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: the clips of maximum Δ_K × size, in order,
// until need bytes are covered.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	p.out = p.out[:0]
	for _, c := range p.set.Prefix(view, need, now) {
		p.out = append(p.out, c.ID)
	}
	return p.out
}

// OnInsert implements core.Policy.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) { p.set.Put(clip) }

// OnEvict implements core.Policy. History is retained across evictions; only
// the rank is dropped.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) { p.set.Drop(id) }

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.tracker.Reset()
	p.set.Reset()
}
