package igd

import (
	"math"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/fiverule"
	"mediacache/internal/media"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(10, 0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(576, DefaultK, 1); err != nil {
		t.Errorf("valid: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 2, 1)
}

func TestNames(t *testing.T) {
	if MustNew(10, 2, 1).Name() != "IGD(K=2)" {
		t.Fatal("name")
	}
	if MustNew(10, 2, 1, FrozenAging()).Name() != "IGD(K=2,frozen)" {
		t.Fatal("frozen name")
	}
	if MustNew(10, 2, 1).K() != 2 {
		t.Fatal("K")
	}
}

func TestScoreAges(t *testing.T) {
	// A resident clip that stops being referenced must see its score sink as
	// Δ grows — the defining IGD property.
	p := MustNew(4, 2, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.OnInsert(clip, 1)
	p.Record(clip, 2, true) // full history now: refs at 1,2; nref=2
	s10 := p.Score(clip, 10)
	s100 := p.Score(clip, 100)
	if s100 >= s10 {
		t.Fatalf("score must decay with idle time: %v -> %v", s10, s100)
	}
}

func TestScoreIncompleteHistoryIsBase(t *testing.T) {
	p := MustNew(4, 2, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.OnInsert(clip, 1)
	// Only one reference: Δ2 infinite, score = baseL = 0.
	if got := p.Score(clip, 5); got != 0 {
		t.Fatalf("score = %v, want base inflation 0", got)
	}
}

func TestHitIncrementsNRefAndRebases(t *testing.T) {
	p := MustNew(4, 2, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.OnInsert(clip, 1)
	if p.NRef(1) != 1 {
		t.Fatal("nref starts at 1")
	}
	p.Record(clip, 2, true)
	if p.NRef(1) != 2 {
		t.Fatal("hit increments nref")
	}
	p.OnEvict(1, 3)
	if p.NRef(1) != 0 {
		t.Fatal("eviction forgets nref (Section 4.2)")
	}
}

func TestHistorySurvivesEviction(t *testing.T) {
	p := MustNew(4, 2, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.Record(clip, 2, false)
	p.OnEvict(1, 3)
	if p.Tracker().Count(1) != 2 {
		t.Fatal("K-reference history must survive eviction")
	}
}

func TestEquiSizedKeepsHotClip(t *testing.T) {
	// The Figure 3 pathology fixed: on equi-sized clips IGD must keep the
	// clip referenced every other request, unlike GreedyDual.
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 10}, {ID: 2, Size: 10}, {ID: 3, Size: 10},
	})
	p := MustNew(3, 2, 1)
	c, _ := core.New(r, 25, p)
	seq := []media.ClipID{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3}
	misses1 := 0
	for _, id := range seq {
		out, err := c.Request(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 1 && !out.IsHit() {
			misses1++
		}
	}
	if misses1 > 1 {
		t.Fatalf("clip 1 missed %d times; IGD should retain it after the first", misses1)
	}
}

func TestColdClipEvicted(t *testing.T) {
	r, _ := media.EquiRepository(4, 10)
	p := MustNew(4, 2, 1)
	c, _ := core.New(r, 20, p)
	// Clip 1 hot, clip 2 cold.
	c.Request(1)
	c.Request(1)
	c.Request(2)
	c.Request(1)
	c.Request(3)
	if c.Resident(2) {
		t.Fatal("cold clip 2 should be evicted")
	}
	if !c.Resident(1) {
		t.Fatal("hot clip 1 must survive")
	}
}

func TestAdaptsToShift(t *testing.T) {
	r, _ := media.EquiRepository(10, 10)
	p := MustNew(10, 2, 1)
	c, _ := core.New(r, 30, p)
	for i := 0; i < 400; i++ {
		c.Request(media.ClipID(i%3 + 1))
	}
	for i := 0; i < 400; i++ {
		c.Request(media.ClipID(i%3 + 4))
	}
	for id := media.ClipID(4); id <= 6; id++ {
		if !c.Resident(id) {
			t.Fatalf("IGD failed to adapt; resident = %v", core.CollectResidentIDs(c))
		}
	}
}

func TestAdaptsFasterThanFrozen(t *testing.T) {
	// The dynamic-Δ ablation: after a popularity shift, selection-time aging
	// must yield at least as many hits on the new hot set as frozen scores.
	run := func(opts ...Option) int {
		r, _ := media.EquiRepository(12, 10)
		p := MustNew(12, 2, 1, opts...)
		c, _ := core.New(r, 40, p)
		for i := 0; i < 600; i++ {
			c.Request(media.ClipID(i%4 + 1))
		}
		hits := 0
		for i := 0; i < 600; i++ {
			out, _ := c.Request(media.ClipID(i%4 + 5))
			if out.IsHit() {
				hits++
			}
		}
		return hits
	}
	dynamic := run()
	frozen := run(FrozenAging())
	if dynamic < frozen {
		t.Fatalf("dynamic aging hits %d < frozen %d", dynamic, frozen)
	}
}

func TestScoreClampsTinyDelta(t *testing.T) {
	p := MustNew(2, 1, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 5, false)
	p.OnInsert(clip, 5)
	// Δ1 at now=5 is 0 -> clamped to 1 tick.
	got := p.Score(clip, 5)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("score = %v", got)
	}
	if got != 0.1 {
		t.Fatalf("score = %v, want nref/(1*size) = 0.1", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []media.ClipID {
		r, _ := media.EquiRepository(10, 10)
		p := MustNew(10, 2, 13)
		c, _ := core.New(r, 30, p)
		for i := 0; i < 200; i++ {
			c.Request(media.ClipID((i*7)%10 + 1))
		}
		return core.CollectResidentIDs(c)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestResetClearsEverything(t *testing.T) {
	p := MustNew(5, 2, 1)
	clip := media.Clip{ID: 1, Size: 10}
	p.Record(clip, 1, false)
	p.OnInsert(clip, 1)
	p.Reset()
	if p.Inflation() != 0 || p.NRef(1) != 0 || p.Tracker().Count(1) != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestResetKeepsTracker pins that Reset clears the tracker in place: a
// pruner bound to Tracker() before the Reset must still prune the history
// the policy reads after it.
func TestResetKeepsTracker(t *testing.T) {
	p := MustNew(5, 2, 1)
	tr := p.Tracker()
	// Break-even retention of 10 ticks, checked every tick.
	rule := fiverule.Rule{NetworkCostPerByte: 1, MemoryCostPerBytePerTick: 1, AvgClipBytes: 100, MetadataBytes: 10}
	pruner, err := fiverule.NewPruner(rule, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Record(media.Clip{ID: 1, Size: 10}, 1, false)
	p.Reset()
	if p.Tracker() != tr {
		t.Fatal("Reset replaced the tracker")
	}
	p.Record(media.Clip{ID: 2, Size: 10}, 2, false)
	if n, err := pruner.Tick(100); err != nil || n != 1 {
		t.Fatalf("pruner dropped %d histories (err %v), want the one recorded after Reset", n, err)
	}
	if p.Tracker().Count(2) != 0 {
		t.Fatal("history recorded after Reset survived the pruner bound before it")
	}
}

func TestWarmAdoption(t *testing.T) {
	r, _ := media.EquiRepository(4, 10)
	p := MustNew(4, 2, 1)
	c, _ := core.New(r, 20, p)
	c.Warm([]media.ClipID{1, 2})
	out, err := c.Request(3)
	if err != nil || out != core.MissCached {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestAdmit(t *testing.T) {
	if !MustNew(4, 2, 1).Admit(media.Clip{ID: 1, Size: 1}, 1) {
		t.Fatal("always admits")
	}
}

func TestIDsOutsideRepository(t *testing.T) {
	// State is dense over 1..n, but a cache may hand the policy any ID: the
	// others keep full per-clip state (their Δ_K is infinite, since the
	// tracker ignores them) and nothing panics.
	p := MustNew(4, 2, 1, FrozenAging())
	for _, id := range []media.ClipID{0, -3, 5, 1 << 40} {
		clip := media.Clip{ID: id, Size: 10}
		p.Record(clip, 1, false)
		p.OnInsert(clip, 1)
		p.Record(clip, 2, true)
		p.OnResidentBytes(clip, 4, 2)
		if got := p.NRef(id); got != 2 {
			t.Fatalf("NRef(%d) = %d, want 2", id, got)
		}
		if got := p.Score(clip, 3); got != p.Inflation() {
			t.Fatalf("Score(%d) = %v, want base %v", id, got, p.Inflation())
		}
		p.OnEvict(id, 3)
		if got := p.NRef(id); got != 0 {
			t.Fatalf("NRef(%d) after evict = %d, want 0", id, got)
		}
	}

	r, _ := media.EquiRepository(8, 10)
	q := MustNew(4, 2, 1)
	c, _ := core.New(r, 30, q)
	for i := 0; i < 200; i++ {
		if _, err := c.Request(media.ClipID(i*5%8 + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("drive produced no evictions")
	}
}
