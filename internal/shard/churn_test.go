package shard

// churn_test.go (ISSUE 8): differential and determinism coverage for
// catalog churn. A 1-shard pool with TTL must stay byte-identical to the
// bare serialized engine — victim for victim, event for event — and churn
// drives must be deterministic at every shard count. A concurrent drive
// mixing requests, invalidations and forced sweeps pins the identities
// under the race detector.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
)

// eventRec is one observed engine event, comparable for differential runs.
type eventRec struct {
	typ   core.EventType
	id    media.ClipID
	bytes media.Bytes
	now   vtime.Time
}

// eventCollector records every event in delivery order.
type eventCollector struct {
	events []eventRec
}

func (c *eventCollector) Observe(ev core.Event) {
	c.events = append(c.events, eventRec{typ: ev.Type, id: ev.Clip.ID, bytes: ev.Bytes, now: ev.Now})
}

// churnDrive replays one churn schedule against a requester/invalidator
// pair: requests go to req, perish events to inv.
func churnDrive(t *testing.T, gen *workload.Churn, req func(media.ClipID) (core.Outcome, error), inv func(media.ClipID) media.Bytes) []core.Outcome {
	t.Helper()
	var outs []core.Outcome
	for {
		ev, ok := gen.Next()
		if !ok {
			return outs
		}
		switch ev.Kind {
		case workload.ChurnRequest:
			out, err := req(ev.Clip)
			if err != nil {
				t.Fatalf("request clip %d: %v", ev.Clip, err)
			}
			outs = append(outs, out)
		case workload.ChurnPerish:
			inv(ev.Clip)
		}
	}
}

// TestSingleShardChurnEquivalence drives the same churn schedule — TTL on,
// perish-driven invalidation — through a 1-shard pool and a bare cache
// built from the same seed, and requires identical outcomes, statistics,
// resident sets, snapshot bytes and event streams (victim for victim). The
// counted-link variant adds a fetch hook on both sides and requires the
// pool's logical fetch count to equal the link consultations: a TTL-expired
// clip is refetched through a counted flight, not under the lock.
func TestSingleShardChurnEquivalence(t *testing.T) {
	t.Run("no-fetch", func(t *testing.T) { testSingleShardChurnEquivalence(t, false) })
	t.Run("counted-link", func(t *testing.T) { testSingleShardChurnEquivalence(t, true) })
}

func testSingleShardChurnEquivalence(t *testing.T, countedLink bool) {
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(testRatio)
	spec := workload.ChurnSpec{Rate: 0.05, Life: 800, Horizon: 6000}
	const ttl = 500

	var poolEvents, cacheEvents eventCollector
	var poolLink, cacheLink atomic.Uint64
	cfg := Config{
		Policy: "greedydual", Repo: repo, Capacity: capacity,
		Seed: 7, Shards: 1, TTL: ttl,
		ShardOptions: func(int) []core.Option {
			return []core.Option{core.WithObserver(&poolEvents)}
		},
	}
	cacheOpts := []core.Option{core.WithTTL(ttl), core.WithObserver(&cacheEvents)}
	if countedLink {
		cfg.Fetch = func(media.Clip, vtime.Time) error { poolLink.Add(1); return nil }
		cacheOpts = append(cacheOpts, core.WithFetch(func(media.Clip, vtime.Time) error {
			cacheLink.Add(1)
			return nil
		}))
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := registry.Build("greedydual", repo, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.New(repo, capacity, pol, cacheOpts...)
	if err != nil {
		t.Fatal(err)
	}

	genPool, err := workload.NewChurn(repo.N(), 0.27, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	genCache, err := workload.NewChurn(repo.N(), 0.27, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	po := churnDrive(t, genPool, pool.Request, pool.Invalidate)
	co := churnDrive(t, genCache, cache.Request, cache.Invalidate)

	if len(po) != len(co) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(po), len(co))
	}
	for i := range po {
		if po[i] != co[i] {
			t.Fatalf("outcome %d diverged: pool %v, cache %v", i, po[i], co[i])
		}
	}
	ps, cs := pool.Stats(), cache.Stats()
	if ps != cs {
		t.Fatalf("stats diverged:\npool  %+v\ncache %+v", ps, cs)
	}
	if ps.Invalidated == 0 || ps.Expired == 0 {
		t.Fatalf("churn drive produced no invalidations/expiries: %+v", ps)
	}
	if countedLink && (poolLink.Load() == 0 || pool.Fetches() != poolLink.Load() || poolLink.Load() != cacheLink.Load()) {
		t.Fatalf("Fetches() = %d, pool link consulted %d times, bare cache link %d times",
			pool.Fetches(), poolLink.Load(), cacheLink.Load())
	}
	pids, cids := pool.ResidentIDs(), core.CollectResidentIDs(cache)
	if len(pids) != len(cids) {
		t.Fatalf("resident sets diverged: %v vs %v", pids, cids)
	}
	for i := range pids {
		if pids[i] != cids[i] {
			t.Fatalf("resident sets diverged at %d: %v vs %v", i, pids, cids)
		}
		if pd, cd := pool.DeadlineOf(pids[i]), cache.DeadlineOf(cids[i]); pd != cd {
			t.Fatalf("deadline of clip %d diverged: pool %d, cache %d", pids[i], pd, cd)
		}
	}
	// Stats() drained every pending touch, so both event streams are
	// complete. Victim-for-victim: every eviction and invalidation (and
	// everything else) must match in order, id, bytes and tick.
	if len(poolEvents.events) != len(cacheEvents.events) {
		t.Fatalf("event streams diverged: %d vs %d events",
			len(poolEvents.events), len(cacheEvents.events))
	}
	for i := range poolEvents.events {
		if poolEvents.events[i] != cacheEvents.events[i] {
			t.Fatalf("event %d diverged: pool %+v, cache %+v",
				i, poolEvents.events[i], cacheEvents.events[i])
		}
	}
	var pbuf, cbuf bytes.Buffer
	if err := pool.Snapshot().WriteSnapshot(&pbuf); err != nil {
		t.Fatal(err)
	}
	if err := cache.Snapshot().WriteSnapshot(&cbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pbuf.Bytes(), cbuf.Bytes()) {
		t.Fatal("snapshot bytes diverged between 1-shard pool and bare cache")
	}
}

// TestChurnPoolDeterminism requires identically configured pools — at
// several shard counts, TTL on, perish-driven invalidation — to agree on
// every outcome and the final state across two runs of the same seed.
func TestChurnPoolDeterminism(t *testing.T) {
	repo := media.PaperRepository()
	spec := workload.ChurnSpec{Rate: 0.08, Life: 500, Horizon: 5000}
	for _, shards := range []int{1, 2, 4} {
		run := func() (core.Stats, []media.ClipID, []core.Outcome) {
			p, err := New(Config{
				Policy: "greedydual", Repo: repo,
				Capacity: repo.CacheSizeForRatio(testRatio),
				Seed:     9, Shards: shards, TTL: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewChurn(repo.N(), 0.27, spec, 21)
			if err != nil {
				t.Fatal(err)
			}
			outs := churnDrive(t, gen, p.Request, p.Invalidate)
			return p.Stats(), p.ResidentIDs(), outs
		}
		s1, ids1, o1 := run()
		s2, ids2, o2 := run()
		if s1 != s2 {
			t.Fatalf("%d shards: stats diverged across runs:\n%+v\n%+v", shards, s1, s2)
		}
		if len(ids1) != len(ids2) {
			t.Fatalf("%d shards: resident sets diverged", shards)
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] {
				t.Fatalf("%d shards: resident sets diverged at %d", shards, i)
			}
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("%d shards: outcome %d diverged: %v vs %v", shards, i, o1[i], o2[i])
			}
		}
		if s1.Invalidated == 0 {
			t.Fatalf("%d shards: churn drive produced no invalidations", shards)
		}
	}
}

// TestConcurrentChurnIdentities hammers a TTL pool with concurrent
// requesters, invalidators and forced sweeps, then checks that the
// counting and byte identities hold on the drained statistics — the
// race-detector chaos complement of the serialized differential tests.
func TestConcurrentChurnIdentities(t *testing.T) {
	repo := media.PaperRepository()
	p, err := New(Config{
		Policy: "greedydual", Repo: repo,
		Capacity: repo.CacheSizeForRatio(testRatio),
		Seed:     5, Shards: 4, TTL: 400, Fetch: failEveryNth(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers  = 8
		requests = 2000
	)
	var (
		wg        sync.WaitGroup
		requested atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := testTrace(requests, uint64(w+1))
			for i, id := range trace {
				switch {
				case i%97 == 13:
					p.Invalidate(id)
				case i%251 == 100:
					p.SweepExpired()
				default:
					if _, err := p.Request(id); err != nil {
						t.Errorf("worker %d request %d: %v", w, i, err)
						return
					}
					requested.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Requests != requested.Load() {
		t.Fatalf("drove %d requests, stats report %d (invalidations must not count)",
			requested.Load(), s.Requests)
	}
	// Requests == Hits + MissCached + Bypassed + FetchFailed: MissCached is
	// not counted directly, so assert the other terms never overshoot (an
	// identity break would make the derived MissCached underflow).
	if s.Hits+s.Bypassed+s.FetchFailed > s.Requests {
		t.Fatalf("counting identity broken under concurrent churn: %+v", s)
	}
	if s.BytesHit+s.BytesFetched+s.BytesFailed != s.BytesReferenced {
		t.Fatalf("byte identity broken under concurrent churn: %+v", s)
	}
	if s.Expired > s.Invalidated {
		t.Fatalf("Expired %d exceeds Invalidated %d", s.Expired, s.Invalidated)
	}
	if p.UsedBytes() < 0 || p.UsedBytes() > p.Capacity() {
		t.Fatalf("used bytes %v outside [0, %v]", p.UsedBytes(), p.Capacity())
	}
}
