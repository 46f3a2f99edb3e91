// Package lfu implements the frequency-based members of the paper's
// Section 1 taxonomy of greedy techniques ("recently-based, frequency-based,
// size-based, function-based, and randomized"): classic in-cache LFU and
// LFU-DA (LFU with Dynamic Aging).
//
// Classic LFU evicts the resident clip with the fewest references since it
// became resident. It suffers exactly the cache-pollution problem the
// paper's Section 5 describes — "previously popular clips lingering in the
// cache" — because counts never decay. LFU-DA adds the standard dynamic-
// aging fix: priorities are count + L, where L is the GreedyDual-style
// inflation raised to each evicted priority, so stale clips eventually age
// out. These baselines anchor the frequency-based corner of the taxonomy in
// the comparison experiments.
package lfu

import (
	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/vtime"
)

// Policy is LFU, optionally with dynamic aging. It implements core.Policy.
type Policy struct {
	aging bool

	inflation float64
	count     map[media.ClipID]uint64
	// set ranks the residents by (priority, last reference, id). It is an
	// ordered set rather than literal frequency buckets: LFU-DA priorities
	// are count + L with a float inflation L, so bucket keys would not stay
	// integral. One ordering serves both variants.
	set *prioindex.Set
}

var _ core.Policy = (*Policy)(nil)

// New returns a classic LFU policy.
func New() *Policy { return newPolicy(false) }

// NewDA returns an LFU-DA policy (LFU with dynamic aging).
func NewDA() *Policy { return newPolicy(true) }

func newPolicy(aging bool) *Policy {
	p := &Policy{aging: aging, count: make(map[media.ClipID]uint64)}
	// A warm-placed clip the policy never saw inserted is adopted at count 1
	// with no reference time.
	p.set = prioindex.New(func(c media.Clip) { p.OnInsert(c, 0) })
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.aging {
		return "LFU-DA"
	}
	return "LFU"
}

// NRef returns the in-cache reference count of a resident clip.
func (p *Policy) NRef(id media.ClipID) uint64 { return p.count[id] }

// Inflation returns the dynamic-aging inflation L (always 0 for plain LFU).
func (p *Policy) Inflation() float64 { return p.inflation }

// priority computes the clip's eviction priority.
func (p *Policy) priority(id media.ClipID) float64 {
	base := 0.0
	if p.aging {
		base = p.inflation
	}
	return base + float64(p.count[id])
}

// Record implements core.Policy.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	if hit {
		p.count[clip.ID]++
		p.set.Put(clip, p.priority(clip.ID), now)
	}
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: evict minimum-priority clips until need
// bytes are covered; ties broken by least-recent reference, then lower id,
// for determinism. Under dynamic aging L rises to the largest evicted
// priority.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, _ vtime.Time) []media.ClipID {
	ids, maxP := p.set.Prefix(view, need)
	if p.aging && maxP > p.inflation {
		p.inflation = maxP
	}
	return ids
}

// OnInsert implements core.Policy: the inserting reference counts.
func (p *Policy) OnInsert(clip media.Clip, now vtime.Time) {
	p.count[clip.ID] = 1
	p.set.Put(clip, p.priority(clip.ID), now)
}

// OnEvict implements core.Policy: counts are in-cache only.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	p.set.Drop(id)
	delete(p.count, id)
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.inflation = 0
	clear(p.count)
	p.set.Reset()
}
