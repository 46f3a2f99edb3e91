package core_test

// equivalence_test.go pins that whole-clip caching is the one-segment case
// of the segmented engine: a cache built without WithSegments and one built
// with WithSegments(repo.MaxClipSize()) — one segment per clip — must agree
// outcome for outcome, event for event (type, clip, bytes, tick) and
// counter for counter under every registered policy, with and without TTL
// expiry, with and without fetch faults, and with explicit invalidations
// interleaved.

import (
	"errors"
	"fmt"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	_ "mediacache/internal/policy/all"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
	"mediacache/internal/zipf"
)

// eventLog records the engine event stream one operation at a time.
type eventLog struct {
	events []core.Event
}

func (l *eventLog) Observe(ev core.Event) { l.events = append(l.events, ev) }

func TestSegmentedWholeClipEquivalence(t *testing.T) {
	const (
		requests        = 30000
		invalidateEvery = 13
	)
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	pmf := dist.PMF()
	capacity := repo.CacheSizeForRatio(0.125)

	for _, name := range registry.Names() {
		for _, ttl := range []vtime.Duration{0, 500} {
			for _, faultRate := range []float64{0, 0.2} {
				t.Run(fmt.Sprintf("%s/ttl=%d/faults=%v", name, ttl, faultRate), func(t *testing.T) {
					t.Parallel()
					build := func(log *eventLog, extra ...core.Option) *core.Cache {
						policy, err := registry.Build(name, repo, pmf, 7)
						if err != nil {
							t.Fatal(err)
						}
						opts := append([]core.Option{core.WithObserver(log)}, extra...)
						if ttl > 0 {
							opts = append(opts, core.WithTTL(ttl))
						}
						if faultRate > 0 {
							// Each cache draws from its own identically seeded
							// stream, so equal fetch sequences fail alike.
							fsrc := randutil.NewSource(99).Split("faults")
							opts = append(opts, core.WithFetch(func(media.Clip, vtime.Time) error {
								if fsrc.Float64() < faultRate {
									return errors.New("injected fetch failure")
								}
								return nil
							}))
						}
						c, err := core.New(repo, capacity, policy, opts...)
						if err != nil {
							t.Fatal(err)
						}
						return c
					}
					var wholeLog, segLog eventLog
					whole := build(&wholeLog)
					seg := build(&segLog, core.WithSegments(repo.MaxClipSize()))

					src := randutil.NewSource(42).Split("drive")
					for i := 0; i < requests; i++ {
						id := media.ClipID(dist.Sample(src))
						if i%invalidateEvery == invalidateEvery-1 {
							if a, b := whole.Invalidate(id), seg.Invalidate(id); a != b {
								t.Fatalf("op %d: Invalidate(%d) freed %v whole, %v segmented", i, id, a, b)
							}
						} else {
							a, errA := whole.Request(id)
							b, errB := seg.Request(id)
							if a != b || (errA == nil) != (errB == nil) {
								t.Fatalf("op %d (clip %d): whole %v/%v, segmented %v/%v", i, id, a, errA, b, errB)
							}
						}
						if len(wholeLog.events) != len(segLog.events) {
							t.Fatalf("op %d (clip %d): %d events whole, %d segmented\nwhole     %+v\nsegmented %+v",
								i, id, len(wholeLog.events), len(segLog.events), wholeLog.events, segLog.events)
						}
						for k := range wholeLog.events {
							if wholeLog.events[k] != segLog.events[k] {
								t.Fatalf("op %d (clip %d) event %d: whole %+v, segmented %+v",
									i, id, k, wholeLog.events[k], segLog.events[k])
							}
						}
						wholeLog.events, segLog.events = wholeLog.events[:0], segLog.events[:0]
					}

					ws, ss := whole.Stats(), seg.Stats()
					if ws.SegmentsFetched != 0 || ws.SegmentsEvicted != 0 || ws.PartialHits != 0 || whole.ResidentSegments() != 0 {
						t.Errorf("unsegmented cache accumulated segment counters: %+v (resident segments %d)",
							ws, whole.ResidentSegments())
					}
					// The segment counters are the one bookkeeping difference.
					ss.SegmentsFetched, ss.SegmentsEvicted = 0, 0
					if ws != ss {
						t.Errorf("stats diverged:\nwhole     %+v\nsegmented %+v", ws, ss)
					}
					if ws.Evictions == 0 || (ttl > 0 && ws.Expired == 0) || (faultRate > 0 && ws.FetchFailed == 0) {
						t.Errorf("drive too tame to exercise the configuration: %+v", ws)
					}
					if ws.BytesHit+ws.BytesFetched+ws.BytesFailed != ws.BytesReferenced {
						t.Errorf("byte identity broken: %+v", ws)
					}
					wids, sids := core.CollectResidentIDs(whole), core.CollectResidentIDs(seg)
					if fmt.Sprint(wids) != fmt.Sprint(sids) {
						t.Errorf("resident sets diverged:\nwhole     %v\nsegmented %v", wids, sids)
					}
				})
			}
		}
	}
}
