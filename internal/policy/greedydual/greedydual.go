// Package greedydual implements the GreedyDual replacement technique of
// Young (SODA 1991), in the size-aware formulation of Cao and Irani
// (USITS 1997) that the paper presents in Section 3.2 and Figure 1.
//
// Each resident clip carries a priority H. When a clip is inserted or hit,
// H is set to L + cost/size, where L is a monotone "inflation" value. To
// evict, the clip with minimum H becomes the victim and L rises to that
// minimum — the efficient O(1)-per-eviction equivalent of subtracting H_min
// from every resident clip.
//
// With cost ≡ 1 the technique maximizes cache hit rate (the paper's
// configuration); with cost = fetch time it minimizes average latency [3].
// Ties at the minimum priority are broken uniformly at random with a seeded
// generator, reproducing deterministically the coin-flip pathology on
// equi-sized repositories that Section 3.3 analyzes.
package greedydual

import (
	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// CostFunc assigns the fetch cost of a clip. The paper sets cost to 1 to
// maximize cache hit rate.
type CostFunc func(media.Clip) float64

// UniformCost is the paper's cost ≡ 1 (maximize hit rate).
func UniformCost(media.Clip) float64 { return 1 }

// SizeCost sets cost to the clip size, yielding the byte-hit-rate-oriented
// GreedyDual variant (priorities degenerate to L + 1).
func SizeCost(c media.Clip) float64 { return float64(c.Size) }

// Policy is the inflation-based GreedyDual of Figure 1. It implements
// core.Policy, and it is the body GreedyDual-Freq and GDS-Popularity embed:
// they differ from it only in the numerator of H = L + value/size, which
// they pass to New as the cost function, and in the counts that numerator
// reads.
type Policy struct {
	cost CostFunc
	seed uint64
	src  *randutil.Source

	inflation float64
	// eff overrides a clip's size with its resident byte total for partially
	// resident clips under segment-granular caches (core.SegmentAware).
	// Empty under whole-clip residency, so decisions there are untouched.
	eff map[media.ClipID]media.Bytes
	// set ranks the residents by their stored priority H.
	set *prioindex.Set
}

var _ core.Policy = (*Policy)(nil)

// New returns a GreedyDual policy with the given cost function (nil means
// UniformCost) and tie-break seed.
func New(cost CostFunc, seed uint64) *Policy {
	if cost == nil {
		cost = UniformCost
	}
	p := &Policy{
		cost: cost,
		seed: seed,
		src:  randutil.NewSource(seed),
		eff:  make(map[media.ClipID]media.Bytes),
	}
	p.set = prioindex.New(p.rank)
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "GreedyDual" }

// Inflation returns the current value of the inflation parameter L.
func (p *Policy) Inflation() float64 { return p.inflation }

// Priority returns the stored priority H of a resident clip and whether the
// clip is tracked.
func (p *Policy) Priority(id media.ClipID) (float64, bool) {
	k, ok := p.set.Key(id)
	return k.P, ok
}

// rank stores L + cost/size as the clip's priority H, at the current
// inflation. size is the occupied bytes — the resident byte total when a
// segmented cache reported one, the full clip size otherwise — so a
// prefix-only resident ranks by the cost of its few cached bytes: high
// priority per byte, exactly the partial-resident ranking the
// LRU-generalization literature calls for.
func (p *Policy) rank(clip media.Clip) {
	size := clip.Size
	if b, ok := p.eff[clip.ID]; ok {
		size = b
	}
	p.set.Put(clip, p.inflation+p.cost(clip)/float64(size), 0)
}

// OnResidentBytes implements core.SegmentAware: a segmented engine reports
// the clip's new resident byte total after segment inserts and tail trims,
// and the clip is re-ranked under it.
func (p *Policy) OnResidentBytes(clip media.Clip, resident media.Bytes, _ vtime.Time) {
	if resident > 0 && resident < clip.Size {
		p.eff[clip.ID] = resident
	} else {
		delete(p.eff, clip.ID)
	}
	if _, tracked := p.set.Key(clip.ID); tracked {
		p.rank(clip)
	}
}

// Record implements core.Policy: on a hit, the clip's priority is restored
// to its full value at the current inflation.
func (p *Policy) Record(clip media.Clip, _ vtime.Time, hit bool) {
	if hit {
		p.rank(clip)
	}
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: one victim per call — the resident clip
// with minimum H, ties broken uniformly at random. L rises to the victim's
// priority. The engine calls again if more space is needed. The returned
// slice is reused across calls and holds exactly one id.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, _ vtime.Time) []media.ClipID {
	minH, ties, ok := p.set.MinTies(view)
	if !ok {
		return nil
	}
	p.inflation = minH
	if len(ties) > 1 {
		ties[0] = ties[p.src.Intn(len(ties))]
	}
	return ties[:1]
}

// OnInsert implements core.Policy: the new clip's priority is L + cost/size.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) { p.rank(clip) }

// OnEvict implements core.Policy.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	p.set.Drop(id)
	delete(p.eff, id)
}

// Reset implements core.Policy, rewinding the tie-break stream.
func (p *Policy) Reset() {
	p.inflation = 0
	clear(p.eff)
	p.set.Reset()
	p.src = randutil.NewSource(p.seed)
}
