// Package lruk implements the LRU-K replacement technique of O'Neil, O'Neil
// and Weikum (SIGMOD 1993), the on-line baseline of Section 3.2.
//
// LRU-K maintains the time stamps of the last K references to a clip and,
// when choosing a victim, selects the clip whose K-th most recent reference
// is furthest in the past (the maximum backward-K distance Δ_K). Clips with
// fewer than K references have infinite backward distance and are preferred
// victims, ordered among themselves by classic LRU on their most recent
// reference — the "retained information" behaviour of the original paper.
// K = 1 degenerates to classic LRU.
//
// Following the paper's Section 4.1 (and LRU-K's retained information), the
// reference history covers all clips, resident or not.
package lruk

import (
	"fmt"
	"math"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/vtime"
)

// Policy is the LRU-K technique. It implements core.Policy.
type Policy struct {
	k       int
	tracker *history.Tracker
	set     *prioindex.Set
}

var _ core.Policy = (*Policy)(nil)

// New returns an LRU-K policy for a repository of n clips.
func New(n, k int) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lruk: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("lruk: K must be positive, got %d", k)
	}
	p := &Policy{k: k, tracker: history.NewTracker(n, k)}
	p.set = prioindex.New(p.rank)
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
func (p *Policy) Name() string { return fmt.Sprintf("LRU-%d", p.k) }

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Tracker exposes the underlying reference history (used by the fiverule
// metadata-pruning extension).
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// rank keys clip by (t_K, t_last, id), or (−∞, t_last, id) below K
// references: a larger Δ_K is a smaller t_K whatever the time, so ascending
// key order is the victim order — infinite distances first, LRU among
// themselves.
func (p *Policy) rank(clip media.Clip) {
	last, _ := p.tracker.LastTime(clip.ID)
	tK := math.Inf(-1)
	if kth, ok := p.tracker.KthLastTime(clip.ID); ok {
		tK = float64(kth)
	}
	p.set.Put(clip, tK, last)
}

// Record implements core.Policy: a resident clip is re-keyed under its
// post-reference history.
func (p *Policy) Record(clip media.Clip, now vtime.Time, _ bool) {
	p.tracker.Observe(clip.ID, now)
	if _, ok := p.set.Key(clip.ID); ok {
		p.rank(clip)
	}
}

// Admit implements core.Policy: every referenced clip is materialized.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: the clips of maximum backward-K distance,
// in order, until need bytes are covered.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, _ vtime.Time) []media.ClipID {
	ids, _ := p.set.Prefix(view, need)
	return ids
}

// OnInsert implements core.Policy.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) { p.rank(clip) }

// OnEvict implements core.Policy. History is retained across evictions; only
// the rank is dropped.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) { p.set.Drop(id) }

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.tracker.Reset()
	p.set.Reset()
}
