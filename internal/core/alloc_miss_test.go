package core_test

import (
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/greedydual"
)

// TestEvictingMissZeroAllocs gates the steady-state miss path: with the
// cache full, every miss runs victim selection, evicts and inserts, and
// none of that may allocate — not the engine's residency upkeep, not
// GreedyDual's ranked set. `make alloccheck` runs it beside the hit and
// cold-miss gates.
func TestEvictingMissZeroAllocs(t *testing.T) {
	clips := make([]media.Clip, 64)
	for i := range clips {
		clips[i] = media.Clip{ID: media.ClipID(i + 1), Size: media.Bytes(10 + i%3)}
	}
	repo, err := media.NewRepository(clips)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.New(repo, 200, greedydual.New(greedydual.UniformCost, 42))
	if err != nil {
		t.Fatal(err)
	}
	// Cycling through every clip in ID order keeps the cache full and makes
	// each request a miss that evicts.
	next := 0
	request := func() {
		next = next%repo.N() + 1
		if out, err := cache.Request(media.ClipID(next)); err != nil || out != core.MissCached {
			t.Fatalf("request %d: %v, %v", next, out, err)
		}
	}
	for i := 0; i < 2*repo.N(); i++ {
		request()
	}
	before := cache.Stats().Evictions
	if avg := testing.AllocsPerRun(500, request); avg != 0 {
		t.Errorf("evicting miss path allocs/op = %v, want 0", avg)
	}
	if cache.Stats().Evictions == before {
		t.Fatal("drive produced no evictions; measurement vacuous")
	}
}
