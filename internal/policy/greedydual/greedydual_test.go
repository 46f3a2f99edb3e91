package greedydual

import (
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
)

func TestName(t *testing.T) {
	if New(nil, 1).Name() != "GreedyDual" {
		t.Fatal("name")
	}
}

func TestCostFunctions(t *testing.T) {
	c := media.Clip{ID: 1, Size: 100}
	if UniformCost(c) != 1 {
		t.Fatal("uniform cost")
	}
	if SizeCost(c) != 100 {
		t.Fatal("size cost")
	}
}

func TestPrefersEvictingLargeClips(t *testing.T) {
	// With cost 1, priority = L + 1/size: big clips have low priority.
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 100},
		{ID: 2, Size: 10},
		{ID: 3, Size: 50},
	})
	p := New(nil, 1)
	c, _ := core.New(r, 110, p)
	c.Request(1)
	c.Request(2)
	c.Request(3) // need 50: evict clip 1 (H = 1/100, lowest)
	if c.Resident(1) {
		t.Fatal("largest clip must have the lowest priority")
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Fatalf("resident = %v", core.CollectResidentIDs(c))
	}
}

func TestHitRestoresPriority(t *testing.T) {
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 10}, {ID: 2, Size: 10}, {ID: 3, Size: 10}, {ID: 4, Size: 10},
	})
	p := New(nil, 1)
	c, _ := core.New(r, 20, p)
	c.Request(1)
	c.Request(2)
	c.Request(3) // eviction happens; L rises to 0.1; equal priorities -> random victim
	// Whoever survived, hit it so its H is restored above L.
	survivors := core.CollectResidentIDs(c)
	victimlessID := survivors[0]
	c.Request(victimlessID) // hit: H = L + 0.1
	h, ok := p.Priority(victimlessID)
	if !ok {
		t.Fatal("priority missing")
	}
	if h <= p.Inflation() {
		t.Fatalf("restored priority %v must exceed inflation %v", h, p.Inflation())
	}
}

func TestInflationMonotone(t *testing.T) {
	r, _ := media.EquiRepository(20, 10)
	p := New(nil, 42)
	c, _ := core.New(r, 50, p)
	last := p.Inflation()
	for i := 0; i < 200; i++ {
		c.Request(media.ClipID(i%20 + 1))
		if p.Inflation() < last {
			t.Fatalf("inflation decreased: %v -> %v", last, p.Inflation())
		}
		last = p.Inflation()
	}
}

func TestPriorityNeverBelowInflation(t *testing.T) {
	r, _ := media.EquiRepository(20, 10)
	p := New(nil, 42)
	c, _ := core.New(r, 50, p)
	for i := 0; i < 500; i++ {
		c.Request(media.ClipID((i*7)%20 + 1))
		for _, id := range core.CollectResidentIDs(c) {
			h, ok := p.Priority(id)
			if !ok {
				t.Fatalf("resident clip %d has no priority", id)
			}
			if h < p.Inflation() {
				t.Fatalf("H(%d)=%v below L=%v", id, h, p.Inflation())
			}
		}
	}
}

func TestRandomTieBreakOnEquiSized(t *testing.T) {
	// The Section 3.3 pathology: equal-size clips all get equal priorities;
	// the victim must be chosen among ALL minimum-priority clips. Over many
	// evictions with different seeds the choices should differ.
	run := func(seed uint64) []media.ClipID {
		r, _ := media.EquiRepository(10, 10)
		p := New(nil, seed)
		c, _ := core.New(r, 30, p)
		for i := 0; i < 50; i++ {
			c.Request(media.ClipID(i%10 + 1))
		}
		return core.CollectResidentIDs(c)
	}
	a := run(1)
	differs := false
	for seed := uint64(2); seed <= 8; seed++ {
		b := run(seed)
		for i := range a {
			if i < len(b) && a[i] != b[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("tie-breaking appears deterministic across seeds")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []media.ClipID {
		r, _ := media.EquiRepository(10, 10)
		p := New(nil, 5)
		c, _ := core.New(r, 30, p)
		for i := 0; i < 100; i++ {
			c.Request(media.ClipID((i*3)%10 + 1))
		}
		return core.CollectResidentIDs(c)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must replay identically")
		}
	}
}

func TestResetRewinds(t *testing.T) {
	r, _ := media.EquiRepository(10, 10)
	p := New(nil, 5)
	c, _ := core.New(r, 30, p)
	seq := make([]media.ClipID, 100)
	for i := range seq {
		seq[i] = media.ClipID((i*3)%10 + 1)
	}
	for _, id := range seq {
		c.Request(id)
	}
	first := core.CollectResidentIDs(c)
	c.Reset()
	if p.Inflation() != 0 {
		t.Fatal("Reset must clear inflation")
	}
	for _, id := range seq {
		c.Request(id)
	}
	second := core.CollectResidentIDs(c)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("reset replay diverged")
		}
	}
}

func TestWarmInsertedClipHandled(t *testing.T) {
	r, _ := media.EquiRepository(5, 10)
	p := New(nil, 1)
	c, _ := core.New(r, 20, p)
	c.Warm([]media.ClipID{1, 2})
	// Warm calls OnInsert so priorities exist; but exercise the fallback in
	// Victims too by clearing one entry via direct map surgery - not
	// accessible; instead just verify eviction works after warming.
	out, err := c.Request(3)
	if err != nil || out != core.MissCached {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if c.NumResident() != 2 {
		t.Fatalf("resident = %d", c.NumResident())
	}
}

func TestVictimsEmptyWhenNothingResident(t *testing.T) {
	r, _ := media.EquiRepository(5, 10)
	p := New(nil, 1)
	c, _ := core.New(r, 20, p)
	if got := p.Victims(r.Clip(1), c, 10, 1); got != nil {
		t.Fatalf("victims = %v, want nil", got)
	}
}
