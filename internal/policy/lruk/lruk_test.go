package lruk

import (
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
)

func equiRepo(t *testing.T, n int) *media.Repository {
	t.Helper()
	r, err := media.EquiRepository(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(10, 2); err != nil {
		t.Errorf("valid: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 2)
}

func TestNameAndK(t *testing.T) {
	p := MustNew(10, 2)
	if p.Name() != "LRU-2" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.K() != 2 {
		t.Fatal("K")
	}
	if p.Tracker() == nil {
		t.Fatal("tracker nil")
	}
	if MustNew(10, 1).Name() != "LRU-1" {
		t.Fatal("LRU-1 name")
	}
}

func TestLRU1IsClassicLRU(t *testing.T) {
	r := equiRepo(t, 4)
	p := MustNew(4, 1)
	c, _ := core.New(r, 20, p) // holds 2 clips
	c.Request(1)
	c.Request(2)
	c.Request(1) // 1 is now more recent
	c.Request(3) // evicts least recently used: 2
	if c.Resident(2) {
		t.Fatal("clip 2 should be the LRU victim")
	}
	if !c.Resident(1) || !c.Resident(3) {
		t.Fatalf("resident = %v", core.CollectResidentIDs(c))
	}
}

func TestPaperSection33Example(t *testing.T) {
	// Three equi-sized 10MB clips, 25MB cache (holds 2). Reference string:
	// c1, c2, c1, c3, c1, c2, c1, c3, ... LRU-2 keeps c1 resident and gets a
	// hit on every c1 reference from the third on.
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 10 * media.MB},
		{ID: 2, Size: 10 * media.MB},
		{ID: 3, Size: 10 * media.MB},
	})
	p := MustNew(3, 2)
	c, _ := core.New(r, 25*media.MB, p)
	seq := []media.ClipID{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3}
	hitsOn1 := 0
	for _, id := range seq {
		out, err := c.Request(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 1 && out.IsHit() {
			hitsOn1++
		}
	}
	// Clip 1 is referenced 6 times; misses only the first time.
	if hitsOn1 != 5 {
		t.Fatalf("hits on clip 1 = %d, want 5 (LRU-2 must retain it)", hitsOn1)
	}
	// The paper's point: LRU-2 never evicts c1 after its second reference.
	if !c.Resident(1) {
		t.Fatal("clip 1 must remain resident under LRU-2")
	}
}

func TestEvictsMaxBackwardKDistance(t *testing.T) {
	r := equiRepo(t, 3)
	p := MustNew(3, 2)
	c, _ := core.New(r, 20, p)
	// Times:       1  2  3  4  5
	// Requests:    1  2  1  2  3
	c.Request(1)
	c.Request(2)
	c.Request(1)
	c.Request(2)
	// Both have 2 refs: Δ2(1) = 5-1 = 4, Δ2(2) = 5-2 = 3. Victim: clip 1.
	c.Request(3)
	if c.Resident(1) {
		t.Fatal("clip 1 has the max backward-2 distance and must be evicted")
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Fatalf("resident = %v", core.CollectResidentIDs(c))
	}
}

func TestInfiniteDistancePreferred(t *testing.T) {
	r := equiRepo(t, 3)
	p := MustNew(3, 2)
	c, _ := core.New(r, 20, p)
	c.Request(1)
	c.Request(1) // clip 1 has full history
	c.Request(2) // clip 2 has one reference: infinite Δ2
	c.Request(3) // victim must be clip 2
	if c.Resident(2) {
		t.Fatal("clip with incomplete history must be evicted first")
	}
	if !c.Resident(1) {
		t.Fatal("clip with full history must survive")
	}
}

func TestInfiniteTieBrokenByLRU(t *testing.T) {
	r := equiRepo(t, 3)
	p := MustNew(3, 2)
	c, _ := core.New(r, 20, p)
	c.Request(2) // single ref at t=1
	c.Request(1) // single ref at t=2
	c.Request(3) // both infinite: evict older last ref -> clip 2
	if c.Resident(2) {
		t.Fatal("older single-reference clip should be evicted")
	}
	if !c.Resident(1) {
		t.Fatal("newer single-reference clip should survive")
	}
}

func TestHistoryRetainedAcrossEviction(t *testing.T) {
	// LRU-K retained information: references before an eviction still count.
	r := equiRepo(t, 3)
	p := MustNew(3, 2)
	c, _ := core.New(r, 20, p)
	c.Request(1)
	c.Request(1)
	if p.Tracker().Count(1) != 2 {
		t.Fatal("history should record both refs")
	}
	c.Request(2)
	c.Request(3) // evicts someone
	if p.Tracker().Count(1) != 2 {
		t.Fatal("history must survive eviction")
	}
}

func TestVictimsBatchForLargeIncoming(t *testing.T) {
	r, _ := media.NewRepository([]media.Clip{
		{ID: 1, Size: 10}, {ID: 2, Size: 10}, {ID: 3, Size: 10}, {ID: 4, Size: 20},
	})
	p := MustNew(4, 1)
	c, _ := core.New(r, 30, p)
	c.Request(1)
	c.Request(2)
	c.Request(3)
	out, err := c.Request(4) // needs 20: evicts 1 and 2 (oldest)
	if err != nil || out != core.MissCached {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if c.Resident(1) || c.Resident(2) {
		t.Fatal("two oldest clips must be evicted")
	}
	if !c.Resident(3) || !c.Resident(4) {
		t.Fatalf("resident = %v", core.CollectResidentIDs(c))
	}
}

func TestReset(t *testing.T) {
	p := MustNew(3, 2)
	p.Record(media.Clip{ID: 1, Size: 10}, 1, false)
	p.Reset()
	if p.Tracker().Count(1) != 0 {
		t.Fatal("Reset must clear history")
	}
}

func TestAdmitAlways(t *testing.T) {
	p := MustNew(3, 2)
	if !p.Admit(media.Clip{ID: 1, Size: 10}, 1) {
		t.Fatal("LRU-K always admits")
	}
}

// TestForgottenHistoryIsReranked: pruning the tracker the policy exposes
// must not leave a resident ranked by references that no longer exist. With
// its history gone clip 2 has infinite Δ_2 again and is the next victim.
func TestForgottenHistoryIsReranked(t *testing.T) {
	p := MustNew(3, 2)
	c, _ := core.New(equiRepo(t, 3), 20, p)
	for _, id := range []media.ClipID{1, 1, 2, 2} {
		c.Request(id)
	}
	// Δ_2(1) > Δ_2(2): clip 1 is the victim while clip 2's history stands.
	p.Tracker().Forget(2)
	c.Request(3)
	if c.Resident(2) || !c.Resident(1) {
		t.Fatalf("resident = %v, want clip 2 evicted once its history is forgotten", core.CollectResidentIDs(c))
	}
}
