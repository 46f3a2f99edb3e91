package core_test

// alloc_steady_test.go gates the allocation guarantees of the policies: in
// steady state (cache warm, evictions ongoing) neither a hit on a resident
// nor a Victims call may allocate. Every indexed selection is a walk — of one ordered tree
// (prioindex.Set), or of per-class cursors (prioindex.Classed) — into buffers
// the policy reuses, and changes no rank. IGD has no index (its priorities
// move with time) but its scan of the resident view is held to the same
// bar: dense per-clip state, a visit function bound once, and a reused
// result buffer. `make alloccheck` runs this file alongside the request-path
// gates.

import (
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/policy/gdfreq"
	"mediacache/internal/policy/gdsp"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/igd"
	"mediacache/internal/policy/lfu"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/lrusk"
	"mediacache/internal/policy/random"
	"mediacache/internal/policy/simple"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// steadyAllocs warms a cache into an eviction-heavy steady state and
// measures the allocations of a hit on a resident clip, then of direct
// Victims calls against the live resident view.
func steadyAllocs(t *testing.T, policy core.Policy) (hit, victims float64) {
	t.Helper()
	repo := media.PaperRepository()
	cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), policy)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 21)
	for i := 0; i < 5000; i++ {
		if _, err := cache.Request(gen.Next()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("steady-state drive produced no evictions; measurement vacuous")
	}
	resident := core.CollectResidentIDs(cache)[0]
	hit = testing.AllocsPerRun(200, func() {
		if out, err := cache.Request(resident); out != core.Hit || err != nil {
			t.Fatalf("request of resident clip %d: %v, %v", resident, out, err)
		}
	})
	// An incoming clip the policy must make room for. Asking for a few
	// clips' worth of space exercises the multi-victim walk.
	incoming := repo.Clip(1)
	need := incoming.Size * 3
	now := vtime.Time(1 << 20)
	victims = testing.AllocsPerRun(200, func() {
		if victims := policy.Victims(incoming, cache, need, now); len(victims) == 0 {
			t.Fatal("no victims from a full cache")
		}
	})
	return hit, victims
}

// TestVictimsZeroAllocsSteadyState is the acceptance gate for the eviction
// core: once warm, every indexed policy, and IGD's scan, must serve a hit and
// select victims with zero allocations per call.
func TestVictimsZeroAllocsSteadyState(t *testing.T) {
	uniform := make([]float64, media.PaperRepository().N())
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	policies := []core.Policy{
		greedydual.New(greedydual.UniformCost, 42),
		gdfreq.New(nil, 42),
		gdsp.MustNew(nil, 0, 42),
		lruk.MustNew(media.PaperRepository().N(), 2),
		lrusk.MustNew(media.PaperRepository().N(), 2),
		dynsimple.MustNew(media.PaperRepository().N(), 2),
		lfu.New(),
		lfu.NewDA(),
		simple.MustNew(uniform),
		random.New(42),
		igd.MustNew(media.PaperRepository().N(), 2, 42),
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			hit, victims := steadyAllocs(t, p)
			if hit != 0 {
				t.Errorf("steady-state hit allocs/op = %v, want 0", hit)
			}
			if victims != 0 {
				t.Errorf("steady-state Victims allocs/op = %v, want 0", victims)
			}
		})
	}
}
