// Package gdsp implements GDS-Popularity (GDSP), the popularity-aware
// GreedyDual-Size of Jin and Bestavros (ICDCS 2000) that the paper cites in
// Section 1 as a technique it deliberately excludes: "An example is
// GDS-Popularity [13] which enhances byte hit rate at the expense of cache
// hit rate."
//
// GDSP extends GreedyDual-Size with a popularity term:
//
//	H(x) = L + f(x)^β · cost(x) / size(x)
//
// where f(x) counts references to x (retained across evictions, unlike
// GreedyDual-Freq) and β tempers the popularity influence. The byte-hit
// configuration sets cost(x) = size(x), collapsing the priority to
// L + f(x)^β: eviction then ignores size entirely and keeps whatever is
// popular — large popular video clips occupy the cache, maximizing the
// bytes served from cache while sacrificing the request hit rate that small
// audio clips would provide. The `gdsp` extension experiment quantifies
// exactly this trade-off against GreedyDual and IGD.
package gdsp

import (
	"fmt"
	"math"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/vtime"
)

// DefaultBeta is the popularity exponent used when none is specified; Jin
// and Bestavros report values near 1.
const DefaultBeta = 1.0

// CostFunc assigns a clip's fetch cost.
type CostFunc func(media.Clip) float64

// ByteHitCost is cost(x) = size(x): the byte-hit-rate configuration the
// paper refers to.
func ByteHitCost(c media.Clip) float64 { return float64(c.Size) }

// HitCost is cost ≡ 1: the request-hit-rate configuration (GDSF-like).
func HitCost(media.Clip) float64 { return 1 }

// Policy is the GDS-Popularity technique: the GreedyDual body (inflation,
// ranked residents, seeded tie-break, resident-byte sizes) under the
// numerator f^β·cost. It implements core.Policy.
type Policy struct {
	*greedydual.Policy
	beta float64
	// freq is the long-run reference count; unlike GreedyDual-Freq it
	// survives eviction (popularity, not residency, is what GDSP tracks).
	freq map[media.ClipID]uint64
}

var _ core.Policy = (*Policy)(nil)

// New returns a GDSP policy. cost nil means ByteHitCost (the configuration
// the paper's Section 1 remark refers to); beta <= 0 means DefaultBeta.
func New(cost CostFunc, beta float64, seed uint64) (*Policy, error) {
	if cost == nil {
		cost = ByteHitCost
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	if math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("gdsp: beta must be finite, got %v", beta)
	}
	p := &Policy{beta: beta, freq: make(map[media.ClipID]uint64)}
	p.Policy = greedydual.New(func(c media.Clip) float64 {
		return math.Pow(float64(p.freq[c.ID]), beta) * cost(c)
	}, seed)
	return p, nil
}

// MustNew is like New but panics on error.
func MustNew(cost CostFunc, beta float64, seed uint64) *Policy {
	p, err := New(cost, beta, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "GDS-Popularity" }

// Freq returns the long-run reference count of a clip.
func (p *Policy) Freq(id media.ClipID) uint64 { return p.freq[id] }

// Record implements core.Policy: every reference (hit or miss) advances the
// popularity count; hits refresh the stored priority.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	p.freq[clip.ID]++
	p.Policy.Record(clip, now, hit)
}

// Reset implements core.Policy. OnEvict is the body's: popularity survives
// eviction and is forgotten only here.
func (p *Policy) Reset() {
	clear(p.freq)
	p.Policy.Reset()
}
