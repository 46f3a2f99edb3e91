package history

import (
	"math"
	"testing"
	"testing/quick"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

func TestNewTrackerPanics(t *testing.T) {
	for _, c := range []struct{ n, k int }{{0, 2}, {-1, 2}, {5, 0}, {5, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTracker(%d,%d) should panic", c.n, c.k)
				}
			}()
			NewTracker(c.n, c.k)
		}()
	}
}

func TestAccessors(t *testing.T) {
	tr := NewTracker(10, 3)
	if tr.K() != 3 || tr.N() != 10 {
		t.Fatalf("K=%d N=%d", tr.K(), tr.N())
	}
}

func TestObserveAndTimes(t *testing.T) {
	tr := NewTracker(5, 2)
	tr.Observe(1, 10)
	if when, ok := tr.LastTime(1); !ok || when != 10 {
		t.Fatalf("LastTime = %v,%v", when, ok)
	}
	if _, ok := tr.KthLastTime(1); ok {
		t.Fatal("KthLastTime should fail with 1 of 2 refs")
	}
	tr.Observe(1, 20)
	if when, ok := tr.KthLastTime(1); !ok || when != 10 {
		t.Fatalf("KthLastTime = %v,%v want 10", when, ok)
	}
	tr.Observe(1, 30)
	if when, _ := tr.LastTime(1); when != 30 {
		t.Fatalf("LastTime = %v want 30", when)
	}
	if when, _ := tr.KthLastTime(1); when != 20 {
		t.Fatalf("KthLastTime = %v want 20 after aging out t=10", when)
	}
	if tr.Count(1) != 3 {
		t.Fatalf("Count = %d want 3", tr.Count(1))
	}
	if tr.Tracked(1) != 2 {
		t.Fatalf("Tracked = %d want 2", tr.Tracked(1))
	}
}

func TestUnknownIDsIgnored(t *testing.T) {
	tr := NewTracker(3, 2)
	tr.Observe(0, 5)
	tr.Observe(4, 5)
	tr.Observe(-1, 5)
	if tr.TrackedClips() != 0 {
		t.Fatal("unknown ids must not be tracked")
	}
	if tr.Count(0) != 0 || tr.Count(4) != 0 {
		t.Fatal("unknown id counts must be 0")
	}
	if tr.Rate(99, 10) != 0 {
		t.Fatal("unknown id rate must be 0")
	}
}

func TestBackwardKDistance(t *testing.T) {
	tr := NewTracker(4, 2)
	if !math.IsInf(tr.BackwardKDistance(1, 100), 1) {
		t.Fatal("no history should give +Inf distance")
	}
	tr.Observe(1, 10)
	if !math.IsInf(tr.BackwardKDistance(1, 100), 1) {
		t.Fatal("one of two refs should give +Inf distance")
	}
	tr.Observe(1, 40)
	if got := tr.BackwardKDistance(1, 100); got != 90 {
		t.Fatalf("distance = %v want 90", got)
	}
}

func TestOldestTracked(t *testing.T) {
	tr := NewTracker(2, 3)
	if _, ok := tr.OldestTracked(1); ok {
		t.Fatal("no history should have no oldest")
	}
	tr.Observe(1, 5)
	tr.Observe(1, 9)
	if when, ok := tr.OldestTracked(1); !ok || when != 5 {
		t.Fatalf("oldest = %v,%v want 5", when, ok)
	}
	tr.Observe(1, 12)
	tr.Observe(1, 20) // t=5 ages out
	if when, _ := tr.OldestTracked(1); when != 9 {
		t.Fatalf("oldest = %v want 9", when)
	}
}

func TestRate(t *testing.T) {
	tr := NewTracker(3, 2)
	if tr.Rate(1, 50) != 0 {
		t.Fatal("rate of unreferenced clip must be 0")
	}
	tr.Observe(1, 10)
	tr.Observe(1, 30)
	// λ = K / Δ_K = 2 / (50-10) = 0.05
	if got := tr.Rate(1, 50); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("rate = %v want 0.05", got)
	}
	// Single reference: count/(now-oldest) = 1/40.
	tr.Observe(2, 10)
	if got := tr.Rate(2, 50); math.Abs(got-0.025) > 1e-12 {
		t.Fatalf("rate = %v want 0.025", got)
	}
	// Reference at exactly now: clamp to count per tick.
	tr.Observe(3, 50)
	if got := tr.Rate(3, 50); got != 1 {
		t.Fatalf("rate = %v want 1", got)
	}
}

func TestRateMatchesPaperFormula(t *testing.T) {
	// λ = K / (now - t_{K-th last}) when a clip has a full history.
	tr := NewTracker(1, 4)
	times := []vtime.Time{3, 8, 15, 21, 33, 47}
	for _, tm := range times {
		tr.Observe(1, tm)
	}
	now := vtime.Time(60)
	kth, ok := tr.KthLastTime(1)
	if !ok {
		t.Fatal("expected full history")
	}
	want := 4 / float64(now-kth)
	if got := tr.Rate(1, now); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rate = %v want %v", got, want)
	}
}

func TestEstimatedFrequenciesSumToOne(t *testing.T) {
	tr := NewTracker(4, 2)
	tr.Observe(1, 1)
	tr.Observe(1, 5)
	tr.Observe(2, 2)
	tr.Observe(3, 9)
	est := tr.EstimatedFrequencies(10)
	var sum float64
	for _, e := range est {
		sum += e
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("estimates sum to %v", sum)
	}
	if est[3] != 0 {
		t.Fatal("unreferenced clip must have estimate 0")
	}
}

func TestEstimatedFrequenciesEmpty(t *testing.T) {
	tr := NewTracker(3, 2)
	for _, e := range tr.EstimatedFrequencies(10) {
		if e != 0 {
			t.Fatal("want all-zero estimates with no history")
		}
	}
}

func TestEstimateImprovesWithK(t *testing.T) {
	// Section 4.1: larger K improves estimate quality. Feed both trackers an
	// identical deterministic round-robin-weighted stream and compare E.
	const n = 32
	truth := make([]float64, n)
	var norm float64
	for i := range truth {
		truth[i] = 1 / float64(i+1)
		norm += truth[i]
	}
	for i := range truth {
		truth[i] /= norm
	}
	small := NewTracker(n, 2)
	large := NewTracker(n, 24)
	// Deterministic stream approximating the truth distribution via Bresenham
	// style accumulation.
	acc := make([]float64, n)
	now := vtime.Time(0)
	for r := 0; r < 20000; r++ {
		best, bestv := 0, -1.0
		for i := range acc {
			acc[i] += truth[i]
			if acc[i] > bestv {
				best, bestv = i, acc[i]
			}
		}
		acc[best]--
		now++
		small.Observe(media.ClipID(best+1), now)
		large.Observe(media.ClipID(best+1), now)
	}
	eSmall := Quality(small.EstimatedFrequencies(now), truth)
	eLarge := Quality(large.EstimatedFrequencies(now), truth)
	if eLarge >= eSmall {
		t.Fatalf("E(K=24)=%v not better than E(K=2)=%v", eLarge, eSmall)
	}
}

func TestForget(t *testing.T) {
	tr := NewTracker(2, 2)
	tr.Observe(1, 5)
	tr.Observe(1, 9)
	tr.Forget(1)
	if tr.Tracked(1) != 0 || tr.Count(1) != 0 {
		t.Fatal("Forget should clear all history")
	}
	if _, ok := tr.LastTime(1); ok {
		t.Fatal("LastTime after Forget should fail")
	}
	tr.Forget(99) // must not panic
}

func TestPruneOlderThan(t *testing.T) {
	tr := NewTracker(3, 2)
	var heard []media.ClipID
	tr.OnForget(func(id media.ClipID) { heard = append(heard, id) })
	tr.Observe(1, 10)
	tr.Observe(2, 90)
	dropped := tr.PruneOlderThan(100, 50)
	if dropped != 1 {
		t.Fatalf("dropped = %d want 1", dropped)
	}
	if tr.Tracked(1) != 0 {
		t.Fatal("clip 1 should be pruned")
	}
	if tr.Tracked(2) != 1 {
		t.Fatal("clip 2 should survive")
	}
	if len(heard) != 1 || heard[0] != 1 {
		t.Fatalf("OnForget heard %v, want [1]", heard)
	}
	tr.Reset()
	if tr.TrackedClips() != 0 || tr.Count(2) != 0 {
		t.Fatal("Reset should clear every history")
	}
	if len(heard) != 1 {
		t.Fatalf("Reset must not notify OnForget, heard %v", heard)
	}
}

func TestTrackedClipsAndMemory(t *testing.T) {
	tr := NewTracker(10, 2)
	if tr.TrackedClips() != 0 || tr.MemoryOverheadBytes() != 0 {
		t.Fatal("fresh tracker should have no overhead")
	}
	tr.Observe(1, 1)
	tr.Observe(1, 2)
	tr.Observe(2, 3)
	if tr.TrackedClips() != 2 {
		t.Fatalf("TrackedClips = %d", tr.TrackedClips())
	}
	if tr.MemoryOverheadBytes() != 3*8 {
		t.Fatalf("MemoryOverheadBytes = %d want 24", tr.MemoryOverheadBytes())
	}
}

func TestQualityPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quality([]float64{1}, []float64{1, 2})
}

func TestQualityZeroForPerfectEstimate(t *testing.T) {
	v := []float64{0.5, 0.3, 0.2}
	if Quality(v, v) != 0 {
		t.Fatal("perfect estimate must have E = 0")
	}
}

func TestRingWrapProperty(t *testing.T) {
	// The K-th last time always equals the (count-K+1)-th observation from a
	// monotone stream once at least K observations happened.
	check := func(raw []uint8, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		tr := NewTracker(1, k)
		var all []vtime.Time
		now := vtime.Time(0)
		for _, step := range raw {
			now += vtime.Time(step%7) + 1
			tr.Observe(1, now)
			all = append(all, now)
		}
		if len(all) < k {
			_, ok := tr.KthLastTime(1)
			return !ok
		}
		want := all[len(all)-k]
		got, ok := tr.KthLastTime(1)
		return ok && got == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := NewTracker(576, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(media.ClipID(i%576+1), vtime.Time(i))
	}
}

func BenchmarkEstimatedFrequencies(b *testing.B) {
	tr := NewTracker(576, 2)
	for i := 0; i < 5000; i++ {
		tr.Observe(media.ClipID(i%576+1), vtime.Time(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.EstimatedFrequencies(vtime.Time(5000 + i))
	}
}
