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
	"mediacache/internal/vtime"
)

// Policy is the LRU-SK technique. It implements core.Policy.
type Policy struct {
	k       int
	n       int
	tracker *history.Tracker
	// tree marks the instance NewFast built: it only changes Name.
	tree bool

	// scan disables the per-size-class tree index and restores the original
	// O(n)-per-victim linear scan (the differential-test baseline).
	scan bool
	idx  *skIndex
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
	tracker := history.NewTracker(n, k)
	return &Policy{k: k, n: n, tracker: tracker, idx: newSKIndex(tracker)}, nil
}

// Scan switches the policy to the original O(n)-per-victim linear-scan
// selection; decisions are identical either way.
func (p *Policy) Scan() *Policy { p.scan = true; return p }

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

// Record implements core.Policy. In indexed mode a resident clip is re-keyed
// under its post-reference (t_K, t_last).
func (p *Policy) Record(clip media.Clip, now vtime.Time, _ bool) {
	if !p.scan {
		if _, resident := p.idx.unindex(clip.ID); resident {
			p.tracker.Observe(clip.ID, now)
			p.idx.index(clip)
			return
		}
	}
	p.tracker.Observe(clip.ID, now)
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Score returns the eviction key Δ_K × size for a resident clip; larger
// means a better victim. Clips with fewer than K references score +Inf.
func (p *Policy) Score(c media.Clip, now vtime.Time) float64 {
	return p.tracker.BackwardKDistance(c.ID, now) * float64(c.Size)
}

// Victims implements core.Policy: repeatedly evict the clip with the maximum
// Δ_K × size until need bytes are covered. In indexed mode (the default) the
// victims come from the shared per-size-class tree index in O(C + log n) per
// victim, allocation-free; decisions match the scan exactly.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	if !p.scan {
		return p.victimsIndexed(view, need, now)
	}
	resident := core.CollectResidents(view)
	taken := make(map[media.ClipID]bool, len(resident))
	var out []media.ClipID
	var freed media.Bytes
	for freed < need && len(out) < len(resident) {
		best := -1
		var bestScore float64
		var bestLast vtime.Time
		for i, c := range resident {
			if taken[c.ID] {
				continue
			}
			score := p.Score(c, now)
			last, _ := p.tracker.LastTime(c.ID)
			if best == -1 || better(bestScore, bestLast, resident[best], score, last, c) {
				best, bestScore, bestLast = i, score, last
			}
		}
		if best == -1 {
			break
		}
		c := resident[best]
		taken[c.ID] = true
		out = append(out, c.ID)
		freed += c.Size
	}
	return out
}

// better reports whether the candidate is a better victim than the
// incumbent: larger Δ_K×size wins; among infinite scores the larger size
// wins (maximizing freed space), then the older last reference, then the
// lower id.
func better(incScore float64, incLast vtime.Time, incClip media.Clip,
	score float64, last vtime.Time, clip media.Clip) bool {
	switch {
	case math.IsInf(score, 1) && math.IsInf(incScore, 1):
		if clip.Size != incClip.Size {
			return clip.Size > incClip.Size
		}
		if last != incLast {
			return last < incLast
		}
		return clip.ID < incClip.ID
	case score != incScore:
		return score > incScore
	case last != incLast:
		return last < incLast
	default:
		return clip.ID < incClip.ID
	}
}

// victimsIndexed pops best victims from the shared class index until need
// bytes are covered, adopting any resident clip the index does not know
// about (direct warm placement) first.
func (p *Policy) victimsIndexed(view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	if p.idx.len() != view.NumResident() {
		view.ForEachResident(func(c media.Clip) bool {
			if !p.idx.has(c.ID) {
				p.idx.index(c)
			}
			return true
		})
	}
	p.out = p.out[:0]
	var freed media.Bytes
	for freed < need {
		id, size, ok := p.idx.popBest(now)
		if !ok {
			break
		}
		p.out = append(p.out, id)
		freed += size
	}
	if len(p.out) == 0 {
		return nil
	}
	return p.out
}

// OnInsert implements core.Policy: the new resident enters the index.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) {
	if !p.scan {
		p.idx.index(clip)
	}
}

// OnEvict implements core.Policy. History is retained across evictions; only
// the index entry is dropped (a no-op for victims popBest already removed).
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	if !p.scan {
		p.idx.unindex(id)
	}
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.tracker = history.NewTracker(p.n, p.k)
	p.idx.reset(p.tracker)
	p.out = p.out[:0]
}
