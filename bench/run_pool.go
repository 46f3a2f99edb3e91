package main

// run_pool.go runs the two in-process workloads: callers loop on a
// shard.Pool with an instant no-op fetch, so no layer above the pool and no
// timer is in the measurement.

import (
	"fmt"
	"os"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	_ "mediacache/internal/policy/all" // shard.Config.Policy resolves through the registry
	"mediacache/internal/shard"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
)

const (
	// One caller, not nproc: the sizing host has two vCPUs, and a second
	// caller leaves none for the runtime's background work (GC workers, the
	// CPU reader), so the run measures who got preempted. Interleaved runs
	// there spread twice as wide with two callers (≈20 % against ≈10 %)
	// and were a third slower. What a second caller costs is a ladder number:
	// shard.contention_ratio and shard.coalesced_share.
	poolCallers   = 1
	poolStreamLen = 1 << 18 // events per caller; a power of two, callers cycle through it
	poolWarmSteps = 20000   // per caller
	poolSetupReps = 3       // setup_s is the median of this many full set-ups

	segmentSize    = 256 * media.MB
	prefixSegments = 2
	ttlTicks       = 20000

	// The churn mix alternates mixSingles single calls with mixBatches
	// RequestBatch calls of mixBatchSize items.
	mixSingles   = 64
	mixBatches   = 8
	mixBatchSize = 8
)

func noFetch(media.Clip, vtime.Time) error               { return nil }
func noSegmentFetch(media.Clip, int32, vtime.Time) error { return nil }

// clipPoolConfig is pool-clip-zipf's pool. The no-op Fetch is non-nil on
// purpose: it selects the staged probe→flight→apply miss path.
func clipPoolConfig(repo *media.Repository, seed uint64, shards int) shard.Config {
	return shard.Config{
		Policy: "greedydual", Repo: repo, Capacity: repo.CacheSizeForRatio(cacheRatio),
		Seed: seed, Shards: shards, Fetch: noFetch,
	}
}

// rangePoolConfig is pool-range-churn's pool: every engine feature on.
func rangePoolConfig(repo *media.Repository, seed uint64, shards int) shard.Config {
	return shard.Config{
		Policy: "greedydual", Repo: repo, Capacity: repo.CacheSizeForRatio(cacheRatio),
		Seed: seed, Shards: shards,
		SegmentSize: segmentSize, PrefixSegments: prefixSegments, TTL: ttlTicks,
		SegmentFetch: noSegmentFetch,
	}
}

// poolCaller is one caller's cursor and what it saw. Outcomes are counted
// from the replies because miss-cached is not a core.Stats field.
type poolCaller struct {
	events   []workload.Request
	pos      int
	outcomes [core.MissError + 1]int64
	requests int64 // items that were requests (not invalidations)
	batch    []shard.BatchItem
	_        [64]byte
}

func (c *poolCaller) next() workload.Request {
	ev := c.events[c.pos&(len(c.events)-1)]
	c.pos++
	return ev
}

type poolDriver struct {
	pool    *shard.Pool
	callers []poolCaller
}

func newPoolDriver(cfg shard.Config, streams [][]workload.Request) (*poolDriver, error) {
	pool, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &poolDriver{pool: pool, callers: make([]poolCaller, len(streams))}
	for i, s := range streams {
		d.callers[i].events = s
		d.callers[i].batch = make([]shard.BatchItem, 0, mixBatchSize)
	}
	return d, nil
}

// poolRequest issues one request event as one pool call.
func poolRequest(p *shard.Pool, ev workload.Request) (core.Outcome, error) {
	if ev.Ranged {
		res, err := p.RequestRange(ev.Clip, ev.Start, ev.Length)
		return res.Outcome, err
	}
	return p.Request(ev.Clip)
}

// batchItem is the same request as one item of a RequestBatch call.
func batchItem(ev workload.Request) shard.BatchItem {
	return shard.BatchItem{ID: ev.Clip, Ranged: ev.Ranged, Start: ev.Start, Length: ev.Length}
}

// single issues one event as one pool call.
func (d *poolDriver) single(c *poolCaller, ev workload.Request) error {
	if ev.Kind == workload.EventPerish {
		d.pool.Invalidate(ev.Clip)
		return nil
	}
	out, err := poolRequest(d.pool, ev)
	c.requests++
	c.outcomes[out]++
	return err
}

// clipStep is pool-clip-zipf's step: one Pool.Request.
func (d *poolDriver) clipStep(caller, _ int) (int, error) {
	c := &d.callers[caller]
	return 1, d.single(c, c.next())
}

// mixStep is pool-range-churn's step: of every mixSingles+mixBatches
// steps the first mixSingles are single calls and the rest are batches. A
// perish event met while a batch is being filled is invalidated at once
// (a batch carries no invalidations) and counts as an item.
func (d *poolDriver) mixStep(caller, i int) (int, error) {
	c := &d.callers[caller]
	if i%(mixSingles+mixBatches) < mixSingles {
		return 1, d.single(c, c.next())
	}
	items := 0
	c.batch = c.batch[:0]
	for len(c.batch) < mixBatchSize {
		ev := c.next()
		items++
		if ev.Kind == workload.EventPerish {
			d.pool.Invalidate(ev.Clip)
			continue
		}
		c.batch = append(c.batch, batchItem(ev))
	}
	var err error
	for _, r := range d.pool.RequestBatch(c.batch) {
		c.requests++
		c.outcomes[r.Outcome]++
		if r.Err != nil && err == nil {
			err = r.Err
		}
	}
	return items, err
}

// checks verifies the engine's identities against what the callers saw.
func (d *poolDriver) checks() []check {
	st := d.pool.Stats()
	var missCached, requests int64
	for i := range d.callers {
		missCached += d.callers[i].outcomes[core.MissCached]
		requests += d.callers[i].requests
	}
	return []check{
		{"requests == hits + miss-cached + bypassed + fetch-failed",
			st.Requests == st.Hits+uint64(missCached)+st.Bypassed+st.FetchFailed,
			fmt.Sprintf("%d vs %d+%d+%d+%d", st.Requests, st.Hits, missCached, st.Bypassed, st.FetchFailed)},
		{"bytes hit + fetched + failed == referenced",
			st.BytesHit+st.BytesFetched+st.BytesFailed == st.BytesReferenced,
			fmt.Sprintf("%d+%d+%d vs %d", st.BytesHit, st.BytesFetched, st.BytesFailed, st.BytesReferenced)},
		{"pool requests == requests issued",
			st.Requests == uint64(requests), fmt.Sprintf("%d vs %d", st.Requests, requests)},
		{"used <= capacity",
			d.pool.UsedBytes() <= d.pool.Capacity(), fmt.Sprintf("%d vs %d", d.pool.UsedBytes(), d.pool.Capacity())},
	}
}

// runPool measures one pool workload.
func runPool(o options) (*runResult, error) {
	repo := media.PaperRepository()
	ranged := o.workload == "pool-range-churn"

	setup := func() (*poolDriver, stepFunc, error) {
		streams, err := callerStreams(ranged, repo, o.seed, poolCallers, poolStreamLen)
		if err != nil {
			return nil, nil, err
		}
		cfg := clipPoolConfig(repo, o.seed, shards)
		if ranged {
			cfg = rangePoolConfig(repo, o.seed, shards)
		}
		d, err := newPoolDriver(cfg, streams)
		if err != nil {
			return nil, nil, err
		}
		step := d.clipStep
		if ranged {
			step = d.mixStep
		}
		if failed, err := fixedLoop(poolCallers, o.scale(poolWarmSteps), step); failed > 0 {
			return nil, nil, fmt.Errorf("warm-up: %d steps failed, first: %w", failed, err)
		}
		return d, step, nil
	}

	var (
		d      *poolDriver
		step   stepFunc
		setups []float64
	)
	for rep := 0; rep < poolSetupReps; rep++ {
		start := time.Now()
		var err error
		if d, step, err = setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// One step in `stride` is timed. On the churn mix the stride is one
	// whole singles+batches cycle, so the timed step is always a single call.
	stride := 64
	if ranged {
		stride = mixSingles + mixBatches
	}
	loop := closedLoop(poolCallers, o.duration(), stride, os.Getpid(), step)
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	st := d.pool.Stats()
	res := newRunResult(o, loop, median(setups), rss, st.HitRate())
	res.note("byte_hit_rate %.6f", st.ByteHitRate())
	res.Checks = append(res.Checks, d.checks()...)
	return res, nil
}
