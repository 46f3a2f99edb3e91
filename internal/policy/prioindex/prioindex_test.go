package prioindex

import (
	"slices"
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// residents is a resident view over a slice kept in ascending ID order.
type residents []media.Clip

func (r residents) NumResident() int { return len(r) }

func (r residents) ForEachResident(fn func(media.Clip) bool) {
	for _, c := range r {
		if !fn(c) {
			return
		}
	}
}

// newSet returns a Set that adopts a resident it never saw Put under the key
// (ID mod 3, ID mod 2).
func newSet() *Set {
	var s *Set
	s = New(func(c media.Clip) { s.Put(c, float64(c.ID%3), vtime.Time(c.ID%2)) })
	return s
}

// TestResetReadoptsEveryResident pins the path Simple's SetFrequencies
// relies on: after Reset the next selection ranks every resident afresh.
func TestResetReadoptsEveryResident(t *testing.T) {
	s := newSet()
	view := residents{{ID: 1, Size: 1}, {ID: 2, Size: 1}, {ID: 3, Size: 1}}
	for _, c := range view {
		s.Put(c, 9, 9)
	}
	s.Reset()
	if len(s.keys) != 0 {
		t.Fatalf("%d keys left after Reset", len(s.keys))
	}
	// Adopted ranks: clip 3 → (0, 1), clip 1 → (1, 1), clip 2 → (2, 0).
	if ids, _ := s.Prefix(view, 3); !slices.Equal(ids, []media.ClipID{3, 1, 2}) {
		t.Fatalf("Prefix after Reset = %v", ids)
	}
}

// TestSelectionsZeroAllocsIndexed is the steady-state guarantee the policies
// pass on through Victims: a tree-backed selection allocates nothing.
func TestSelectionsZeroAllocsIndexed(t *testing.T) {
	indexed := newSet()
	hist := history{}
	classed := NewClassed(hist.rank, agedSizeOrder)
	var resident residents
	for id := media.ClipID(1); id <= 64; id++ {
		c := media.Clip{ID: id, Size: media.Bytes(1 + id%3)}
		resident = append(resident, c)
		indexed.Put(c, float64(id%4), vtime.Time(id%2))
		hist[id] = standing{tier: int(id % 2), p: float64(id % 4), last: vtime.Time(id % 2)}
		classed.Put(c)
	}
	var view Residents = resident // boxed once, outside the measured rounds
	var sink int
	if avg := testing.AllocsPerRun(100, func() {
		k, _ := indexed.Min(view)
		_, ties, _ := indexed.MinTies(view)
		ids, _ := indexed.Prefix(view, 40)
		sink += int(k.ID) + len(ties) + len(ids) + len(classed.Prefix(view, 40, 9))
	}); avg != 0 {
		t.Fatalf("indexed selections allocate %v times per round, want 0", avg)
	}
}

// standing is what a Classed set's rank function reads for one clip: a tier
// and two reference times.
type standing struct {
	tier int
	p    float64
	last vtime.Time
}

// history is the reference history a Classed set ranks from; a clip without
// an entry has the zero standing.
type history map[media.ClipID]standing

func (h history) rank(c media.Clip) (int, float64, vtime.Time) {
	st := h[c.ID]
	return st.tier, st.p, st.last
}

// agedSizeOrder is a victim order in the manner of LRU-SK's: the larger
// (now − P)·size first, so clips of different sizes cross as now advances
// while clips of one size never do; then the tier, Last and the id.
func agedSizeOrder(a, b Entry, now vtime.Time) bool {
	sa, sb := (float64(now)-a.P)*float64(a.Clip.Size), (float64(now)-b.P)*float64(b.Clip.Size)
	switch {
	case sa != sb:
		return sa > sb
	case a.Tier != b.Tier:
		return a.Tier < b.Tier
	case a.Last != b.Last:
		return a.Last < b.Last
	}
	return a.ID < b.ID
}
