package lrusk

import (
	"testing"
	"testing/quick"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
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

// TestFastEquivalentToScan drives the scan and tree implementations through
// identical random traces and requires identical outcomes and final cache
// contents — the correctness proof for the Section 5 "efficient
// implementation".
func TestFastEquivalentToScan(t *testing.T) {
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	for _, k := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			scan := MustNew(repo.N(), k).Scan()
			fast := MustNewFast(repo.N(), k)
			cScan, _ := core.New(repo, repo.CacheSizeForRatio(0.05), scan)
			cFast, _ := core.New(repo, repo.CacheSizeForRatio(0.05), fast)
			gen := workload.MustNewGenerator(dist, seed)
			for i := 0; i < 3000; i++ {
				id := gen.Next()
				a, errA := cScan.Request(id)
				b, errB := cFast.Request(id)
				if errA != nil || errB != nil {
					t.Fatalf("k=%d seed=%d req %d: errs %v %v", k, seed, i, errA, errB)
				}
				if a != b {
					t.Fatalf("k=%d seed=%d req %d (clip %d): scan=%v fast=%v",
						k, seed, i, id, a, b)
				}
			}
			sa, sb := core.CollectResidentIDs(cScan), core.CollectResidentIDs(cFast)
			if len(sa) != len(sb) {
				t.Fatalf("k=%d seed=%d: resident counts differ (%d vs %d)", k, seed, len(sa), len(sb))
			}
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("k=%d seed=%d: resident sets differ", k, seed)
				}
			}
		}
	}
}

// TestFastEquivalenceProperty: quick-check variant on a small adversarial
// repository with many duplicate sizes and timestamps.
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
		scan := MustNew(repo.N(), 2).Scan()
		fast := MustNewFast(repo.N(), 2)
		cScan, _ := core.New(repo, 70, scan)
		cFast, _ := core.New(repo, 70, fast)
		for _, r := range reqs {
			id := media.ClipID(int(r)%repo.N() + 1)
			a, errA := cScan.Request(id)
			b, errB := cFast.Request(id)
			if errA != nil || errB != nil || a != b {
				return false
			}
		}
		sa, sb := core.CollectResidentIDs(cScan), core.CollectResidentIDs(cFast)
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
