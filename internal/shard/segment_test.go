package shard

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

const testSegSize = 256 * media.MB

// segFaultByKey builds a deterministic, call-order-independent segment fetch
// hook: the fetch of segment seg of clip id fails iff (id*31+seg) % mod == 0.
// Order independence matters because a pool fetches a range's missing
// segments concurrently.
func segFaultByKey(mod int64) core.SegmentFetchFunc {
	return func(clip media.Clip, seg int32, _ vtime.Time) error {
		if (int64(clip.ID)*31+int64(seg))%mod == 0 {
			return errors.New("injected segment fetch failure")
		}
		return nil
	}
}

// rangeTrace generates a deterministic trace of prefix-biased range
// requests: mostly ranges starting at byte 0 (the streaming-startup pattern
// prefix caching targets), occasionally interior ranges.
func rangeTrace(n int, seed uint64) []struct {
	id            media.ClipID
	start, length media.Bytes
} {
	repo := media.PaperRepository()
	src := randutil.NewSource(seed)
	out := make([]struct {
		id            media.ClipID
		start, length media.Bytes
	}, n)
	for i := range out {
		id := media.ClipID(src.Intn(repo.N()) + 1)
		clip := repo.Clip(id)
		var start media.Bytes
		if src.Intn(4) == 0 { // every 4th request seeks into the clip
			start = media.Bytes(src.Intn(int(clip.Size)))
		}
		length := media.Bytes(src.Intn(int(clip.Size-start))) + 1
		out[i] = struct {
			id            media.ClipID
			start, length media.Bytes
		}{id, start, length}
	}
	return out
}

// TestSegmentedSingleShardEquivalence drives a 1-shard segmented pool and a
// bare segmented cache built from the same seed through the same range trace
// under the same deterministic per-segment fault profile, and requires
// identical outcomes, statistics and snapshot bytes.
func TestSegmentedSingleShardEquivalence(t *testing.T) {
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(testRatio)
	fault := segFaultByKey(11)

	pool, err := New(Config{
		Policy: "greedydual", Repo: repo, Capacity: capacity,
		Seed: 7, Shards: 1,
		SegmentSize: testSegSize, PrefixSegments: 2, SegmentFetch: fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := registry.Build("greedydual", repo, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.New(repo, capacity, pol,
		core.WithSegments(testSegSize), core.WithPrefixAdmission(2),
		core.WithSegmentFetch(fault))
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range rangeTrace(3000, 99) {
		pr, perr := pool.RequestRange(r.id, r.start, r.length)
		cr, cerr := cache.RequestRange(r.id, r.start, r.length)
		if pr != cr || (perr == nil) != (cerr == nil) {
			t.Fatalf("range %d (clip %d [%d,+%d)): pool %+v/%v, cache %+v/%v",
				i, r.id, r.start, r.length, pr, perr, cr, cerr)
		}
	}
	ps, cs := pool.Stats(), cache.Stats()
	if ps != cs {
		t.Fatalf("stats diverged:\npool  %+v\ncache %+v", ps, cs)
	}
	if ps.BytesHit+ps.BytesFetched+ps.BytesFailed != ps.BytesReferenced {
		t.Fatalf("byte identity broken: %+v", ps)
	}
	if ps.PartialHits == 0 || ps.SegmentsEvicted == 0 {
		t.Fatalf("trace too tame to exercise segmentation: %+v", ps)
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

// TestPerSegmentCoalescing pins the per-(clip, segment) singleflight: G
// concurrent requests for the same cold bytes execute each segment's fetch
// exactly once while every other requester waits for that leader — for a
// byte range and for a whole-clip Request alike. Every leader parks on the
// gate until all joins are in, so the test only completes if the segments'
// fetches are in flight together, outside the shard lock.
func TestPerSegmentCoalescing(t *testing.T) {
	repo := media.PaperRepository()
	clip := repo.Clip(1) // 3.5 GB: 14 segments of 256 MB
	const G = 8
	for _, tc := range []struct {
		name    string
		bytes   media.Bytes
		request func(*Pool) error
	}{
		{"range", media.GB, func(p *Pool) error {
			res, err := p.RequestRange(clip.ID, 0, media.GB)
			if err == nil && res.BytesHit+res.BytesFetched != media.GB {
				t.Errorf("delivered %v hit + %v fetched, want %v total",
					res.BytesHit, res.BytesFetched, media.GB)
			}
			return err
		}},
		{"whole-clip", clip.Size, func(p *Pool) error {
			out, err := p.Request(clip.ID)
			if err == nil && out != core.MissCached && out != core.Hit {
				t.Errorf("Request outcome = %v", out)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqSegs := int((tc.bytes + testSegSize - 1) / testSegSize)

			gate := make(chan struct{})
			var perSeg [32]atomic.Uint64
			fetch := func(_ media.Clip, seg int32, _ vtime.Time) error {
				perSeg[seg].Add(1)
				<-gate
				return nil
			}
			pool, err := New(Config{
				Policy: "greedydual", Repo: repo, Capacity: repo.TotalSize(),
				Seed: 7, Shards: 4, SegmentSize: testSegSize, SegmentFetch: fetch,
			})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			wg.Add(G)
			for g := 0; g < G; g++ {
				go func() {
					defer wg.Done()
					if err := tc.request(pool); err != nil {
						t.Errorf("request: %v", err)
					}
				}()
			}
			// All G requests miss the same reqSegs segments. Wait until each
			// segment has its flight leader parked on the gate and every other
			// requester has joined (coalesced increments at join time), then
			// release the leaders.
			deadline := time.Now().Add(5 * time.Second)
			wantJoins := uint64((G - 1) * reqSegs)
			for pool.Coalesced() < wantJoins {
				if time.Now().After(deadline) {
					t.Fatalf("coalesced %d after 5s, want %d", pool.Coalesced(), wantJoins)
				}
				time.Sleep(time.Millisecond)
			}
			close(gate)
			wg.Wait()

			for seg := 0; seg < reqSegs; seg++ {
				if n := perSeg[seg].Load(); n != 1 {
					t.Errorf("segment %d fetched %d times, want 1", seg, n)
				}
			}
			if got := pool.Fetches(); got != uint64(reqSegs) {
				t.Errorf("logical fetches = %d, want %d", got, reqSegs)
			}
			if got := pool.Coalesced(); got != wantJoins {
				t.Errorf("coalesced = %d, want %d", got, wantJoins)
			}
			if got := pool.ResidentBytes(clip.ID); got != tc.bytes {
				t.Errorf("resident bytes = %v, want %v", got, tc.bytes)
			}
		})
	}
}

// TestSegmentedPoolSnapshotRestore round-trips a multi-shard segmented pool
// with partially resident clips through Snapshot/Restore, including across a
// shard-count change, and checks granularity mismatches are rejected before
// any shard is touched.
func TestSegmentedPoolSnapshotRestore(t *testing.T) {
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(testRatio)
	build := func(shards int, segSize media.Bytes) *Pool {
		cfg := Config{
			Policy: "greedydual", Repo: repo, Capacity: capacity,
			Seed: 7, Shards: shards, SegmentSize: segSize,
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	pool := build(4, testSegSize)
	for _, r := range rangeTrace(2000, 5) {
		if _, err := pool.RequestRange(r.id, r.start, r.length); err != nil {
			t.Fatal(err)
		}
	}
	snap := pool.Snapshot()
	if snap.SegmentSize != testSegSize {
		t.Fatalf("snapshot segment size = %v", snap.SegmentSize)
	}
	if len(snap.Partial) == 0 {
		t.Fatal("trace left no partially resident clips; nothing exercised")
	}

	for _, shards := range []int{4, 2} {
		fresh := build(shards, testSegSize)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("restore into %d shards: %v", shards, err)
		}
		if fresh.UsedBytes() != pool.UsedBytes() {
			t.Errorf("%d shards: used %v, want %v", shards, fresh.UsedBytes(), pool.UsedBytes())
		}
		if fresh.ResidentSegments() != pool.ResidentSegments() {
			t.Errorf("%d shards: resident segments %d, want %d",
				shards, fresh.ResidentSegments(), pool.ResidentSegments())
		}
		for _, cs := range snap.Partial {
			a, b := fresh.ResidentExtentsOf(cs.ID), pool.ResidentExtentsOf(cs.ID)
			if len(a) != len(b) {
				t.Fatalf("%d shards: clip %d extents %v, want %v", shards, cs.ID, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%d shards: clip %d extents %v, want %v", shards, cs.ID, a, b)
				}
			}
		}
	}

	// Granularity mismatches fail up front.
	if err := build(2, 0).Restore(snap); err == nil {
		t.Error("segmented snapshot restored into unsegmented pool")
	}
	if err := build(2, testSegSize/2).Restore(snap); err == nil {
		t.Error("snapshot restored across a segment-size change")
	}

	// A pre-segment whole-clip snapshot is adopted into a segmented pool.
	legacy := build(2, 0)
	for _, id := range testTrace(500, 3) {
		if _, err := legacy.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	lsnap := legacy.Snapshot()
	adopted := build(2, testSegSize)
	if err := adopted.Restore(lsnap); err != nil {
		t.Fatalf("adopting whole-clip snapshot: %v", err)
	}
	if adopted.UsedBytes() != legacy.UsedBytes() {
		t.Errorf("adopted used %v, want %v", adopted.UsedBytes(), legacy.UsedBytes())
	}
	for _, id := range lsnap.ResidentIDs {
		if got := adopted.ResidentBytes(id); got != repo.Clip(id).Size {
			t.Errorf("adopted clip %d resident bytes %v, want full size", id, got)
		}
	}
}

// TestSegmentedPoolWholeClipFetchFallback checks a segmented pool built with
// only the whole-clip Fetch hook still fetches per missing segment through
// the adapter — one link consultation per segment, each counted as a
// logical fetch — for a byte range and for a whole-clip Request alike.
func TestSegmentedPoolWholeClipFetchFallback(t *testing.T) {
	repo := media.PaperRepository()
	for _, tc := range []struct {
		name    string
		request func(*Pool) (core.Outcome, error)
	}{
		{"range", func(p *Pool) (core.Outcome, error) { // 1.8 GB clip: first GB is 4 cold segments
			res, err := p.RequestRange(3, 0, media.GB)
			return res.Outcome, err
		}},
		{"whole-clip", func(p *Pool) (core.Outcome, error) { // 0.9 GB clip: 4 segments
			return p.Request(5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Uint64
			fetch := func(media.Clip, vtime.Time) error { calls.Add(1); return nil }
			pool, err := New(Config{
				Policy: "greedydual", Repo: repo, Capacity: repo.TotalSize(),
				Seed: 7, Shards: 2, SegmentSize: testSegSize, Fetch: fetch,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := tc.request(pool)
			if err != nil {
				t.Fatal(err)
			}
			if out != core.MissCached {
				t.Fatalf("outcome = %v", out)
			}
			if calls.Load() != 4 {
				t.Errorf("link consulted %d times, want 4 (one per segment)", calls.Load())
			}
			if got := pool.Fetches(); got != 4 {
				t.Errorf("Fetches() = %d, want 4", got)
			}
		})
	}
}
