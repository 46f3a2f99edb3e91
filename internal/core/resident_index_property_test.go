package core_test

import (
	"slices"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// checkResidentIndex compares every view of the engine's resident set with
// a reference computed from ResidentBytes alone: the clips with a cached
// byte, in ascending ID order.
func checkResidentIndex(t *testing.T, c *core.Cache, step int, op string) {
	t.Helper()
	repo := c.Repository()
	var want []media.ClipID
	for id := media.ClipID(1); int(id) <= repo.N(); id++ {
		if c.ResidentBytes(id) > 0 {
			want = append(want, id)
		}
	}
	var got []media.ClipID
	c.ForEachResident(func(clip media.Clip) bool {
		if n := len(got); n > 0 && clip.ID <= got[n-1] {
			t.Fatalf("step %d (%s): ForEachResident yielded %d after %d", step, op, clip.ID, got[n-1])
		}
		if clip != repo.Clip(clip.ID) {
			t.Fatalf("step %d (%s): ForEachResident yielded %+v, repository holds %+v", step, op, clip, repo.Clip(clip.ID))
		}
		got = append(got, clip.ID)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("step %d (%s): ForEachResident = %v, reference %v", step, op, got, want)
	}
	if c.NumResident() != len(want) {
		t.Fatalf("step %d (%s): NumResident = %d, reference %d", step, op, c.NumResident(), len(want))
	}
	var ranged []media.ClipID
	for clip := range c.Residents() {
		ranged = append(ranged, clip.ID)
	}
	if !slices.Equal(ranged, want) {
		t.Fatalf("step %d (%s): Residents = %v, reference %v", step, op, ranged, want)
	}
	if ids := core.CollectResidentIDs(c); !slices.Equal(ids, want) {
		t.Fatalf("step %d (%s): CollectResidentIDs = %v, reference %v", step, op, ids, want)
	}
	// An early exit after k visits sees exactly the first k residents.
	for _, k := range []int{1, len(want) / 2, len(want)} {
		if k == 0 || k > len(want) {
			continue
		}
		var prefix []media.ClipID
		c.ForEachResident(func(clip media.Clip) bool {
			prefix = append(prefix, clip.ID)
			return len(prefix) < k
		})
		if !slices.Equal(prefix, want[:k]) {
			t.Fatalf("step %d (%s): ForEachResident stopped after %d yielded %v, reference %v", step, op, k, prefix, want)
		}
	}
}

// TestResidentIndexMatchesReference drives a segmented, prefix-admitting,
// TTL-expiring cache through random range and whole-clip requests,
// invalidations, sweeps, warms, snapshot/restore round trips and resets,
// and checks the resident index against the per-clip byte record after
// every step. One repository size is a multiple of 64 and the others are
// not, so the last bitmap word is covered both full and partial.
func TestResidentIndexMatchesReference(t *testing.T) {
	for _, n := range []int{64, 100, 37} {
		for trial := 0; trial < 4; trial++ {
			src := randutil.NewSource(uint64(1000*n + trial)).Split("resident-index")
			repo := randomRepo(t, src.Split("repo"), n)
			cache, err := core.New(repo, repo.TotalSize()/6, greedydual.New(greedydual.UniformCost, uint64(trial)),
				core.WithSegments(256<<10), core.WithPrefixAdmission(2), core.WithTTL(vtime.Duration(15+src.Intn(30))))
			if err != nil {
				t.Fatal(err)
			}
			clip := func() media.ClipID { return media.ClipID(1 + src.Intn(n)) }
			var snap core.Snapshot
			haveSnap := false
			// Reset and Restore replace the statistics; fold them in first.
			var evictions, invalidated, expired uint64
			tally := func() {
				s := cache.Stats()
				evictions, invalidated, expired = evictions+s.Evictions, invalidated+s.Invalidated, expired+s.Expired
			}
			for step := 0; step < 1500; step++ {
				var op string
				switch r := src.Intn(100); {
				case r < 45:
					op = "RequestRange"
					id := clip()
					size := repo.Clip(id).Size
					start := media.Bytes(src.Intn(int(size)))
					length := media.Bytes(-1)
					if src.Intn(2) == 0 {
						length = 1 + media.Bytes(src.Intn(int(size-start)))
					}
					if _, err := cache.RequestRange(id, start, length); err != nil {
						t.Fatalf("n %d trial %d step %d: RequestRange(%d, %d, %d): %v", n, trial, step, id, start, length, err)
					}
				case r < 70:
					op = "Request"
					if _, err := cache.Request(clip()); err != nil {
						t.Fatalf("n %d trial %d step %d: Request: %v", n, trial, step, err)
					}
				case r < 80:
					op = "Invalidate"
					cache.Invalidate(clip())
				case r < 85:
					op = "SweepExpired"
					cache.SweepExpired()
				case r < 90:
					op = "Warm"
					cache.Warm([]media.ClipID{clip(), clip(), clip()})
				case r < 94:
					op = "Snapshot"
					snap, haveSnap = cache.Snapshot(), true
				case r < 98:
					if !haveSnap {
						continue
					}
					op = "Restore"
					tally()
					if err := cache.Restore(snap); err != nil {
						t.Fatalf("n %d trial %d step %d: Restore: %v", n, trial, step, err)
					}
				default:
					op = "Reset"
					tally()
					cache.Reset()
				}
				checkResidentIndex(t, cache, step, op)
			}
			tally()
			if evictions == 0 || invalidated == 0 || expired == 0 {
				t.Fatalf("n %d trial %d: drive left a path unexercised: %d evictions, %d invalidations, %d expiries",
					n, trial, evictions, invalidated, expired)
			}
		}
	}
}
