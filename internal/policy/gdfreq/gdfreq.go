// Package gdfreq implements GreedyDual-Freq, the frequency-extended
// GreedyDual of Cherkasova and Ciardo (HiPC 2001) that the paper compares
// against IGD in Section 4.2 and Figure 7.
//
// GreedyDual-Freq changes GreedyDual's priority to
//
//	H = L + nref(x) · cost / size(x)
//
// where nref(x) counts the references to clip x since it became cache
// resident. nref is forgotten when the clip is swapped out. Because nref is
// monotonically non-decreasing while a clip stays resident, the technique
// adapts poorly to evolving access patterns — previously popular clips keep
// large priorities — which is exactly the weakness IGD's interval-based
// aging repairs (Figure 7).
package gdfreq

import (
	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/vtime"
)

// CostFunc assigns the fetch cost of a clip; nil means cost ≡ 1.
type CostFunc func(media.Clip) float64

// Policy is the GreedyDual-Freq technique: the GreedyDual body (inflation,
// ranked residents, seeded tie-break, resident-byte sizes) under the
// numerator nref·cost. It implements core.Policy.
type Policy struct {
	*greedydual.Policy
	nref map[media.ClipID]uint64
}

var _ core.Policy = (*Policy)(nil)

// New returns a GreedyDual-Freq policy with the given cost function (nil
// means cost ≡ 1) and tie-break seed.
func New(cost CostFunc, seed uint64) *Policy {
	if cost == nil {
		cost = greedydual.UniformCost
	}
	p := &Policy{nref: make(map[media.ClipID]uint64)}
	p.Policy = greedydual.New(func(c media.Clip) float64 {
		if p.nref[c.ID] == 0 {
			// A resident ranked before any count exists is one the policy
			// never saw inserted (direct warm placement): count it as
			// OnInsert would have.
			p.nref[c.ID] = 1
		}
		return float64(p.nref[c.ID]) * cost(c)
	}, seed)
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "GreedyDual-Freq" }

// NRef returns the reference count of a resident clip since it became cache
// resident (0 for non-resident clips).
func (p *Policy) NRef(id media.ClipID) uint64 { return p.nref[id] }

// Record implements core.Policy: a hit increments nref and restores the
// priority at the current inflation.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	if hit {
		p.nref[clip.ID]++
	}
	p.Policy.Record(clip, now, hit)
}

// OnInsert implements core.Policy: nref starts at 1, counting the inserting
// reference.
func (p *Policy) OnInsert(clip media.Clip, now vtime.Time) {
	p.nref[clip.ID] = 1
	p.Policy.OnInsert(clip, now)
}

// OnEvict implements core.Policy: the reference count is forgotten, as in
// Cherkasova and Ciardo.
func (p *Policy) OnEvict(id media.ClipID, now vtime.Time) {
	delete(p.nref, id)
	p.Policy.OnEvict(id, now)
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	clear(p.nref)
	p.Policy.Reset()
}
