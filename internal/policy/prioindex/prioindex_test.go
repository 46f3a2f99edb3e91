package prioindex

import (
	"slices"
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/randutil"
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

func (r residents) find(id media.ClipID) (int, bool) {
	return slices.BinarySearchFunc(r, id, func(c media.Clip, id media.ClipID) int { return int(c.ID) - int(id) })
}

// adoptedRank is the key both twins give a resident they never saw Put.
func adoptedRank(c media.Clip) (float64, vtime.Time) {
	return float64(c.ID % 3), vtime.Time(c.ID % 2)
}

func newTwins() (indexed, scan *Set) {
	indexed = New(func(c media.Clip) { p, last := adoptedRank(c); indexed.Put(c, p, last) })
	scan = New(func(c media.Clip) { p, last := adoptedRank(c); scan.Put(c, p, last) })
	scan.Scan()
	return indexed, scan
}

// TestScanMatchesIndexed drives a tree-backed Set and its linear-scan twin
// through the same seeded Put / Drop / unseen-insert sequences, with
// priorities and reference times drawn from three values each so ties on P
// and on (P, Last) are the common case, and requires identical selections
// after every step: Min, the MinTies slice in order (the seeded tie-break
// indexes into it), and the Prefix for every need.
func TestScanMatchesIndexed(t *testing.T) {
	const ids = 24
	for seed := uint64(1); seed <= 20; seed++ {
		src := randutil.NewSource(seed)
		indexed, scan := newTwins()
		var view residents
		for step := 0; step < 400; step++ {
			clip := media.Clip{ID: media.ClipID(1 + src.Intn(ids)), Size: media.Bytes(1 + src.Intn(3))}
			at, resident := view.find(clip.ID)
			switch op := src.Intn(4); {
			case resident && op == 0:
				view = slices.Delete(view, at, at+1)
				indexed.Drop(clip.ID)
				scan.Drop(clip.ID)
			case resident:
				p, last := float64(src.Intn(3)), vtime.Time(src.Intn(3))
				indexed.Put(view[at], p, last)
				scan.Put(view[at], p, last)
			case op == 0:
				// Resident without a Put: both twins must adopt it.
				view = slices.Insert(view, at, clip)
			default:
				view = slices.Insert(view, at, clip)
				p, last := float64(src.Intn(3)), vtime.Time(src.Intn(3))
				indexed.Put(clip, p, last)
				scan.Put(clip, p, last)
			}

			ki, oki := indexed.Min(view)
			ks, oks := scan.Min(view)
			if ki != ks || oki != oks || oki != (len(view) > 0) {
				t.Fatalf("seed %d step %d: Min indexed=%v,%v scan=%v,%v", seed, step, ki, oki, ks, oks)
			}
			pi, ti, oki := indexed.MinTies(view)
			ps, ts, oks := scan.MinTies(view)
			if pi != ps || oki != oks || !slices.Equal(ti, ts) {
				t.Fatalf("seed %d step %d: MinTies indexed=%v %v scan=%v %v", seed, step, pi, ti, ps, ts)
			}
			if oki && (pi != ki.P || ti[0] != ki.ID) {
				t.Fatalf("seed %d step %d: MinTies %v %v disagrees with Min %v", seed, step, pi, ti, ki)
			}
			if len(indexed.keys) != len(view) || len(scan.keys) != len(view) {
				t.Fatalf("seed %d step %d: indexed ranks %d, scan %d, of %d resident", seed, step, len(indexed.keys), len(scan.keys), len(view))
			}
			var total media.Bytes
			for _, c := range view {
				total += c.Size
			}
			for need := media.Bytes(0); need <= total+1; need++ {
				ii, mi := indexed.Prefix(view, need)
				is, ms := scan.Prefix(view, need)
				if mi != ms || !slices.Equal(ii, is) {
					t.Fatalf("seed %d step %d need %d: Prefix indexed=%v %v scan=%v %v", seed, step, need, ii, mi, is, ms)
				}
				var freed media.Bytes
				for _, id := range ii {
					at, _ := view.find(id)
					freed += view[at].Size
				}
				if want := min(need, total); freed < want || (len(ii) == 0) != (want == 0) {
					t.Fatalf("seed %d step %d need %d: Prefix %v frees %d of %d resident", seed, step, need, ii, freed, total)
				}
			}
		}
	}
}

// TestResetReadoptsEveryResident pins the path Simple's SetFrequencies
// relies on: after Reset the next selection ranks every resident afresh.
func TestResetReadoptsEveryResident(t *testing.T) {
	indexed, scan := newTwins()
	for _, s := range []*Set{indexed, scan} {
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
}

// TestSelectionsZeroAllocsIndexed is the steady-state guarantee the policies
// pass on through Victims: a tree-backed selection allocates nothing.
func TestSelectionsZeroAllocsIndexed(t *testing.T) {
	indexed, _ := newTwins()
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

// standing is what a Classed twin pair's rank function reads for one clip: a
// tier and two reference times, each drawn from three values so that ties at
// every level of the order are the common case.
type standing struct {
	tier int
	p    float64
	last vtime.Time
}

// history is the reference history a Classed twin pair ranks from; a clip
// without an entry has the zero standing.
type history map[media.ClipID]standing

func (h history) rank(c media.Clip) (int, float64, vtime.Time) {
	st := h[c.ID]
	return st.tier, st.p, st.last
}

func (h history) touch(src *randutil.Source, id media.ClipID) {
	h[id] = standing{tier: src.Intn(3), p: float64(src.Intn(3)), last: vtime.Time(src.Intn(3))}
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

// TestClassedScanMatchesIndexed drives a Classed set and its linear-scan twin
// through the same seeded insert / reference / evict / unseen-insert / forget
// sequences and requires the same Prefix for every need at several times. The
// twin ranks every resident afresh, so a class whose stored order is not
// better's, or a key that went stale, shows as a difference.
func TestClassedScanMatchesIndexed(t *testing.T) {
	const ids = 24
	for seed := uint64(1); seed <= 20; seed++ {
		src := randutil.NewSource(seed)
		hist := history{}
		indexed, scan := NewClassed(hist.rank, agedSizeOrder), NewClassed(hist.rank, agedSizeOrder)
		scan.Scan()
		var view residents
		for step := 0; step < 400; step++ {
			clip := media.Clip{ID: media.ClipID(1 + src.Intn(ids))}
			clip.Size = media.Bytes(1 + clip.ID%3)
			at, resident := view.find(clip.ID)
			switch op := src.Intn(5); {
			case resident && op == 0:
				view = slices.Delete(view, at, at+1)
				indexed.Drop(clip.ID)
				scan.Drop(clip.ID)
			case resident && op == 1:
				// History forgotten while resident: Drop, then adoption.
				delete(hist, clip.ID)
				indexed.Drop(clip.ID)
				scan.Drop(clip.ID)
			case resident:
				hist.touch(src, clip.ID)
				indexed.Rerank(clip)
				scan.Rerank(clip)
			case op == 0:
				// Resident without a Put: the indexed twin must adopt it.
				view = slices.Insert(view, at, clip)
			default:
				hist.touch(src, clip.ID)
				indexed.Rerank(clip) // not held: must not rank a non-resident
				view = slices.Insert(view, at, clip)
				indexed.Put(clip)
				scan.Put(clip)
			}

			var total media.Bytes
			for _, c := range view {
				total += c.Size
			}
			for _, now := range []vtime.Time{3, 4, 9} {
				for need := media.Bytes(0); need <= total+1; need++ {
					ci, cs := indexed.Prefix(view, need, now), scan.Prefix(view, need, now)
					if !slices.Equal(ci, cs) {
						t.Fatalf("seed %d step %d now %d need %d: Prefix indexed=%v scan=%v", seed, step, now, need, ci, cs)
					}
					var freed media.Bytes
					for _, c := range ci {
						freed += c.Size
					}
					if want := min(need, total); freed < want || (len(ci) == 0) != (want == 0) {
						t.Fatalf("seed %d step %d need %d: Prefix %v frees %d of %d resident", seed, step, need, ci, freed, total)
					}
				}
			}
			if len(indexed.held) != len(view) || len(scan.held) != 0 {
				t.Fatalf("seed %d step %d: indexed holds %d of %d resident, scan twin %d", seed, step, len(indexed.held), len(view), len(scan.held))
			}
		}
		indexed.Reset()
		if len(indexed.held)+len(indexed.classes)+len(indexed.order) != 0 {
			t.Fatalf("seed %d: Reset left ranks or classes behind", seed)
		}
	}
}
