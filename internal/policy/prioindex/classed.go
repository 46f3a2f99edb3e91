package prioindex

import (
	"mediacache/internal/media"
	"mediacache/internal/rbtree"
	"mediacache/internal/vtime"
)

// Entry is one resident as a Classed set ranks it: its Key, the tier its
// policy put it in, and the clip (whose Size is the other half of its class).
type Entry struct {
	Key
	Tier int
	Clip media.Clip
}

// class is one (size, tier) bucket: its members in key order, and the cursor
// of the selection in progress (cur.Tier is fixed; key and clip move).
type class struct {
	tree *rbtree.Tree[Key, media.Clip]
	cur  Entry
	live bool
}

type classID struct {
	size media.Bytes
	tier int
}

// Classed is the ranked resident set of the history-based techniques whose
// victim score is a function of the current time — LRU-SK's Δ_K·size,
// DYNSimple's K/(Δ_K·size). Across clips of different sizes or history
// depths two scores can cross as time advances, so no single static order
// exists; within one (size, tier) class the order is static (it is the order
// of one reference time). A Classed set keeps one tree per class and names
// victims by walking the classes' heads: compare one candidate per class at
// the current time, take the best, advance that class's cursor.
//
// The policy supplies two functions and nothing else. rank reads a clip's
// tier and key from the policy's reference history; within a class,
// ascending key order must be the order better gives at every time. better
// is the victim order across classes, a strict total order at any fixed now.
type Classed struct {
	rank   func(media.Clip) (tier int, p float64, last vtime.Time)
	better func(a, b Entry, now vtime.Time) bool
	// held is each ranked resident as last ranked: where to find it.
	held    map[media.ClipID]Entry
	classes map[classID]*class
	// order lists the classes as created. better is total, so the order
	// cannot change a selection; a slice keeps the walk deterministic.
	order []*class
	out   []media.Clip
}

// NewClassed returns an empty set ranking clips by rank and choosing among
// class heads by better.
func NewClassed(rank func(media.Clip) (tier int, p float64, last vtime.Time), better func(a, b Entry, now vtime.Time) bool) *Classed {
	return &Classed{
		rank:    rank,
		better:  better,
		held:    make(map[media.ClipID]Entry),
		classes: make(map[classID]*class),
	}
}

// Rank returns clip as rank places it now, whether or not the set holds it.
func (s *Classed) Rank(clip media.Clip) Entry {
	tier, p, last := s.rank(clip)
	return Entry{Key: Key{P: p, Last: last, ID: clip.ID}, Tier: tier, Clip: clip}
}

// Put ranks clip under its current history, replacing the rank it held.
func (s *Classed) Put(clip media.Clip) {
	if old, ok := s.held[clip.ID]; ok {
		s.unlink(old)
	}
	s.link(clip)
}

// Rerank is Put for a clip the set already holds — a resident that was just
// referenced. Any other clip is left to its insertion, or to adoption.
func (s *Classed) Rerank(clip media.Clip) {
	if old, ok := s.held[clip.ID]; ok {
		s.unlink(old)
		s.link(clip)
	}
}

// Drop forgets clip id. If the clip stays resident, the next selection
// adopts it under the history it has then.
func (s *Classed) Drop(id media.ClipID) {
	if e, ok := s.held[id]; ok {
		s.unlink(e)
		delete(s.held, id)
	}
}

// link ranks clip and enters it in its class's tree and in held.
func (s *Classed) link(clip media.Clip) {
	e := s.Rank(clip)
	id := classID{clip.Size, e.Tier}
	c := s.classes[id]
	if c == nil {
		c = &class{tree: rbtree.New[Key, media.Clip](lessKey), cur: Entry{Tier: e.Tier}}
		s.classes[id] = c
		s.order = append(s.order, c)
	}
	c.tree.Put(e.Key, clip)
	s.held[clip.ID] = e
}

// unlink takes e out of its class's tree; held is the caller's to update.
func (s *Classed) unlink(e Entry) {
	s.classes[classID{e.Clip.Size, e.Tier}].tree.Delete(e.Key)
}

// Reset empties the set.
func (s *Classed) Reset() {
	clear(s.held)
	clear(s.classes)
	s.order = s.order[:0]
}

// Prefix returns the residents in victim order at time now, up to the first
// whose size brings the total to need bytes. It changes no rank. The slice is
// reused by the next selection; callers may reorder it but must not retain
// it.
func (s *Classed) Prefix(view Residents, need media.Bytes, now vtime.Time) []media.Clip {
	s.out = s.out[:0]
	var freed media.Bytes
	if len(s.held) != view.NumResident() {
		// Held clips are a subset of the residents (every Put is an insert
		// or an adoption, every eviction a Drop), so equal counts mean equal
		// sets. A resident not held was placed warm, or had its history
		// forgotten.
		view.ForEachResident(func(c media.Clip) bool {
			if _, ok := s.held[c.ID]; !ok {
				s.Put(c)
			}
			return true
		})
	}
	for _, c := range s.order {
		c.cur.Key, c.cur.Clip, c.live = c.tree.Min()
	}
	for freed < need {
		var best *class
		for _, c := range s.order {
			if c.live && (best == nil || s.better(c.cur, best.cur, now)) {
				best = c
			}
		}
		if best == nil {
			break
		}
		s.out = append(s.out, best.cur.Clip)
		freed += best.cur.Clip.Size
		best.cur.Key, best.cur.Clip, best.live = best.tree.Next(best.cur.Key)
	}
	return s.out
}
