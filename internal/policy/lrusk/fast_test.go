package lrusk

import (
	"math"
	"testing"
	"testing/quick"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

func TestNewFastValidation(t *testing.T) {
	if _, err := NewFast(0, 2); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewFast(10, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewFast(576, 2); err != nil {
		t.Errorf("valid: %v", err)
	}
}

func TestMustNewFastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewFast(0, 2)
}

func TestFastName(t *testing.T) {
	p := MustNewFast(10, 2)
	if p.Name() != "LRU-S2(tree)" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.K() != 2 || p.Tracker() == nil {
		t.Fatal("accessors")
	}
}

func TestFastBasicEviction(t *testing.T) {
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 100},
		{ID: 2, Size: 10},
		{ID: 3, Size: 50},
	})
	p := MustNewFast(3, 1)
	c, _ := core.New(r, 110, p)
	c.Request(2) // tiny old
	c.Request(1) // big recent
	// Scores at t3: clip2 (3-1)*10=20, clip1 (3-2)*100=100 -> evict 1.
	c.Request(3)
	if c.Resident(1) {
		t.Fatal("big clip should be evicted")
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Fatalf("resident = %v", core.CollectResidentIDs(c))
	}
}

func TestFastReset(t *testing.T) {
	p := MustNewFast(5, 2)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.OnInsert(clip, 1)
	p.Reset()
	if p.Tracker().Count(1) != 0 {
		t.Fatal("Reset must clear history")
	}
	// The classed set is empty too: walked against a cache that holds
	// nothing, it has no clip left to name.
	r, _ := media.EquiRepository(5, 10)
	empty, _ := core.New(r, 20, MustNewFast(5, 2))
	if v := p.Victims(clip, empty, 10, 2); len(v) != 0 {
		t.Fatalf("Reset must clear the ranked set, still names %v", v)
	}
}

func TestFastWarmAdoption(t *testing.T) {
	r, _ := media.EquiRepository(4, 10)
	p := MustNewFast(4, 2)
	c, _ := core.New(r, 20, p)
	c.Warm([]media.ClipID{1, 2})
	out, err := c.Request(3)
	if err != nil || out != core.MissCached {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if c.NumResident() != 2 {
		t.Fatal("capacity invariant broken")
	}
}

// bruteLRUSK is a reference LRU-SK written from Section 4.3 alone: it keeps
// every reference time and, at each eviction, scans all residents for the
// maximum Δ_K × size with the documented tie order (among infinite scores
// the larger size, then the older last reference, then the lower id).
type bruteLRUSK struct {
	k    int
	refs map[media.ClipID][]vtime.Time
}

var _ core.Policy = (*bruteLRUSK)(nil)

func (p *bruteLRUSK) Name() string { return "brute-LRU-SK" }

func (p *bruteLRUSK) Record(clip media.Clip, now vtime.Time, _ bool) {
	p.refs[clip.ID] = append(p.refs[clip.ID], now)
}

func (p *bruteLRUSK) Admit(media.Clip, vtime.Time) bool { return true }

// key returns Δ_K × size (+Inf below K references) and the last reference.
func (p *bruteLRUSK) key(c media.Clip, now vtime.Time) (float64, vtime.Time) {
	refs := p.refs[c.ID]
	last := vtime.Never
	if len(refs) > 0 {
		last = refs[len(refs)-1]
	}
	if len(refs) < p.k {
		return math.Inf(1), last
	}
	return float64(now-refs[len(refs)-p.k]) * float64(c.Size), last
}

func (p *bruteLRUSK) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	remaining := core.CollectResidents(view)
	var out []media.ClipID
	var freed media.Bytes
	for freed < need && len(remaining) > 0 {
		best := 0
		bestKey, bestLast := p.key(remaining[0], now)
		for i := 1; i < len(remaining); i++ {
			c, b := remaining[i], remaining[best]
			k, last := p.key(c, now)
			var wins bool
			switch {
			case k != bestKey:
				wins = k > bestKey
			case math.IsInf(k, 1) && c.Size != b.Size:
				wins = c.Size > b.Size
			case last != bestLast:
				wins = last < bestLast
			default:
				wins = c.ID < b.ID
			}
			if wins {
				best, bestKey, bestLast = i, k, last
			}
		}
		out = append(out, remaining[best].ID)
		freed += remaining[best].Size
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

func (p *bruteLRUSK) OnInsert(media.Clip, vtime.Time)  {}
func (p *bruteLRUSK) OnEvict(media.ClipID, vtime.Time) {}
func (p *bruteLRUSK) Reset()                           { p.refs = make(map[media.ClipID][]vtime.Time) }

// TestFastEquivalenceProperty: quick-check the tree implementation against
// the brute-force reference on a small adversarial repository with many
// duplicate sizes and timestamps.
func TestFastEquivalenceProperty(t *testing.T) {
	sizes := []media.Bytes{10, 10, 20, 20, 30, 30, 40, 40}
	clips := make([]media.Clip, len(sizes))
	for i, s := range sizes {
		clips[i] = media.Clip{ID: media.ClipID(i + 1), Size: s}
	}
	repo, err := media.NewRepository(clips)
	if err != nil {
		t.Fatal(err)
	}
	check := func(reqs []uint8) bool {
		ref := &bruteLRUSK{k: 2, refs: make(map[media.ClipID][]vtime.Time)}
		cRef, _ := core.New(repo, 70, ref)
		cFast, _ := core.New(repo, 70, MustNewFast(repo.N(), 2))
		for _, r := range reqs {
			id := media.ClipID(int(r)%repo.N() + 1)
			a, errA := cRef.Request(id)
			b, errB := cFast.Request(id)
			if errA != nil || errB != nil || a != b {
				return false
			}
		}
		sa, sb := core.CollectResidentIDs(cRef), core.CollectResidentIDs(cFast)
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return cRef.Stats() == cFast.Stats()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
