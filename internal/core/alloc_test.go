package core

import (
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// noopPolicy never evicts and does no per-request bookkeeping, isolating
// the engine's own request-path cost.
type noopPolicy struct{}

func (noopPolicy) Name() string                        { return "noop" }
func (noopPolicy) Record(media.Clip, vtime.Time, bool) {}
func (noopPolicy) Admit(media.Clip, vtime.Time) bool   { return true }
func (noopPolicy) OnInsert(media.Clip, vtime.Time)     {}
func (noopPolicy) OnEvict(media.ClipID, vtime.Time)    {}
func (noopPolicy) Reset()                              {}
func (noopPolicy) Victims(_ media.Clip, view ResidentView, need media.Bytes, _ vtime.Time) []media.ClipID {
	var out []media.ClipID
	var freed media.Bytes
	for c := range view.Residents() {
		if freed >= need {
			break
		}
		out = append(out, c.ID)
		freed += c.Size
	}
	return out
}

// TestRequestZeroAllocsNilObserver asserts the hot-path guarantee the
// observability layer is built around: with no observer installed,
// Cache.Request allocates nothing on hits and on eviction-free misses.
// `make check` runs this as the allocation gate; TestEvictingMissZeroAllocs
// covers the evicting miss.
func TestRequestZeroAllocsNilObserver(t *testing.T) {
	repo := smallRepo(t)
	cache, err := New(repo, 50, noopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	mustRequest(t, cache, 1)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := cache.Request(1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("hit path allocs/op = %v, want 0", avg)
	}

	// Eviction-free miss path: the first-fill misses of a cache large
	// enough to hold every clip requested.
	big, err := media.NewRepository(manyClips(64))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(big, 63*10, noopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	next := media.ClipID(0)
	if avg := testing.AllocsPerRun(50, func() {
		next++
		if _, err := cold.Request(next); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cold miss path allocs/op = %v, want 0", avg)
	}
}

// TestRequestAllocsUnchangedWithObserver asserts the enabled path adds no
// heap allocations either: events are passed by value to the observer.
func TestRequestAllocsUnchangedWithObserver(t *testing.T) {
	repo := smallRepo(t)
	obs := &countingObserver{}
	cache, err := New(repo, 50, noopPolicy{}, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	mustRequest(t, cache, 1)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := cache.Request(1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("observed hit path allocs/op = %v, want 0", avg)
	}
	if obs.n == 0 {
		t.Fatal("observer saw no events")
	}
}

// countingObserver counts events without retaining them (retention would
// itself allocate and mask the engine's behaviour).
type countingObserver struct{ n int }

func (o *countingObserver) Observe(Event) { o.n++ }

// manyClips builds n equal-size clips.
func manyClips(n int) []media.Clip {
	clips := make([]media.Clip, n)
	for i := range clips {
		clips[i] = media.Clip{ID: media.ClipID(i + 1), Size: 10}
	}
	return clips
}
