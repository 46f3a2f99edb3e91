// Package prioindex provides the two ranked resident sets the replacement
// techniques share: Set for those whose order is static (GreedyDual and its
// descendants, LFU/LFU-DA, Simple, LRU-K), Classed for those whose order is
// static only within a class (LRU-SK, DYNSimple).
//
// Every one of them makes the same greedy move: rank the resident clips by a
// function and evict the minimum. A Set is that move written once. It holds
// each resident's Key, ordered by (priority, last-reference, id), and answers
// the two selections in use — the minimum with its exact ties (the
// GreedyDual family breaks them with a seeded draw) and the ascending prefix
// that covers a byte need (LFU, LFU-DA, Simple, LRU-K). A policy on top of it
// is its priority function and its counters.
//
// The paper's Section 5 names efficient victim selection as future work:
// "This may require tree-based data structures to minimize the complexity
// of identifying a victim clip." The keys sit in a red-black tree, so a
// selection costs O(log n) maintenance per reference instead of an O(n) scan
// per eviction. Package conformance checks every policy on a Set against a
// brute-force oracle that ranks the residents by the paper's formulas.
package prioindex

import (
	"mediacache/internal/media"
	"mediacache/internal/rbtree"
	"mediacache/internal/vtime"
)

// Key orders resident clips by eviction preference: the smaller priority P
// is the better victim; ties prefer the smaller Last (older reference, or
// any policy-specific secondary criterion encoded into it), then the lower
// clip ID. Policies without a secondary criterion leave Last at zero, making
// equal-priority entries ascend by ID.
type Key struct {
	P    float64
	Last vtime.Time
	ID   media.ClipID
}

func lessKey(a, b Key) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.Last != b.Last {
		return a.Last < b.Last
	}
	return a.ID < b.ID
}

// Residents is the part of core.ResidentView a Set reads: the authoritative
// resident set, visited in ascending ID order.
type Residents interface {
	NumResident() int
	ForEachResident(fn func(media.Clip) bool)
}

// Set is the ranked resident set of one policy instance. The zero value is
// not usable; create sets with New.
type Set struct {
	adopt func(media.Clip)
	keys  map[media.ClipID]Key
	tree  *rbtree.Tree[Key, media.Clip]
	ids   []media.ClipID
}

// New returns an empty set. adopt is called for a resident the set holds no
// key for — one the policy never saw inserted (direct warm placement, or
// every resident after Reset) — and must Put it, ranked as freshly inserted.
func New(adopt func(media.Clip)) *Set {
	return &Set{
		adopt: adopt,
		keys:  make(map[media.ClipID]Key),
		tree:  rbtree.New[Key, media.Clip](lessKey),
	}
}

// Key returns clip id's key and whether the clip is ranked.
func (s *Set) Key(id media.ClipID) (Key, bool) {
	k, ok := s.keys[id]
	return k, ok
}

// Put ranks clip under (p, last), replacing any key it held.
func (s *Set) Put(clip media.Clip, p float64, last vtime.Time) {
	k := Key{P: p, Last: last, ID: clip.ID}
	if old, ok := s.keys[clip.ID]; ok {
		s.tree.Delete(old)
	}
	s.tree.Put(k, clip)
	s.keys[clip.ID] = k
}

// Drop forgets clip id.
func (s *Set) Drop(id media.ClipID) {
	if k, ok := s.keys[id]; ok {
		s.tree.Delete(k)
		delete(s.keys, id)
	}
}

// Reset empties the set, retaining the buffers' capacity.
func (s *Set) Reset() {
	clear(s.keys)
	s.tree = rbtree.New[Key, media.Clip](lessKey)
}

// Min returns the best victim's key.
func (s *Set) Min(view Residents) (min Key, ok bool) {
	s.ascend(view, func(k Key, _ media.Clip) bool {
		min, ok = k, true
		return false
	})
	return min, ok
}

// MinTies returns the minimum priority and the IDs of every resident tied at
// exactly that priority, in ascending (Last, ID) order — the order matters
// because the caller breaks the tie with a seeded random draw over the
// slice. The slice is reused by the next selection; callers must not retain
// it.
func (s *Set) MinTies(view Residents) (minP float64, ties []media.ClipID, ok bool) {
	s.ids = s.ids[:0]
	s.ascend(view, func(k Key, _ media.Clip) bool {
		if len(s.ids) > 0 && k.P != minP {
			return false
		}
		minP = k.P
		s.ids = append(s.ids, k.ID)
		return true
	})
	return minP, s.ids, len(s.ids) > 0
}

// Prefix returns the residents in ascending key order up to the first whose
// size brings the total to need bytes, with the priority of the last one
// (the largest returned); nil when need is already met or nothing is
// resident. The slice is reused by the next selection; callers must not
// retain it.
func (s *Set) Prefix(view Residents, need media.Bytes) (ids []media.ClipID, maxP float64) {
	s.ids = s.ids[:0]
	var freed media.Bytes
	s.ascend(view, func(k Key, c media.Clip) bool {
		if freed >= need {
			return false
		}
		s.ids = append(s.ids, c.ID)
		freed += c.Size
		maxP = k.P
		return true
	})
	if len(s.ids) == 0 {
		return nil, 0
	}
	return s.ids, maxP
}

// ascend adopts any resident the set has no key for, then walks the ranked
// residents in key order until fn returns false.
func (s *Set) ascend(view Residents, fn func(Key, media.Clip) bool) {
	if len(s.keys) != view.NumResident() {
		// Keys are a subset of the residents (every Put is an insert, every
		// eviction a Drop), so equal counts mean equal sets.
		view.ForEachResident(func(c media.Clip) bool {
			if _, ok := s.keys[c.ID]; !ok {
				s.adopt(c)
			}
			return true
		})
	}
	s.tree.Ascend(fn)
}
