package main

// ladder.go is the traced pass: one caller, fixed op counts, a rung per
// layer from the workload generators up to the sweep engine, each timed
// from outside through the layer's public functions. The ladder is one set
// of numbers — every traced run reproduces all of it, whichever workload it
// names, because the per-layer names are not per workload; the interaction
// table in README.md says which end-to-end metric each should move where.
// The loopback rungs are in ladder_http.go.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/shard"
	"mediacache/internal/sim"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

const (
	ladderOps     = 100000 // events of an in-process rung
	ladderTimed   = time.Second
	ladderHTTPOps = 12000 // Clip calls of the loopback rung: p99.9 keeps 12 samples beyond it
)

type ladder struct {
	o      options
	repo   *media.Repository
	cap    media.Bytes
	set    *metricSet
	rungs  map[string]*tracer
	ops    int64
	failed int64
	checks []check

	zipf  []workload.Request // the whole-clip stream every in-process rung replays
	churn []workload.Request // the churn mix
}

// count books one op's error, if any.
func (l *ladder) count(err error) {
	l.ops++
	if err != nil {
		l.failed++
		if l.failed == 1 {
			l.checks = append(l.checks, check{"first ladder error", false, err.Error()})
		}
	}
}

// plainPass runs f n times untraced and returns ns and heap allocations
// per call.
func plainPass(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// tracedPolicy is the timing decorator around core.Policy: every callback
// the engine makes becomes a child span of the request that caused it.
type tracedPolicy struct {
	core.Policy
	tr      *tracer
	victims int64 // victims named over all Victims calls
}

func (p *tracedPolicy) Record(clip media.Clip, now vtime.Time, hit bool) {
	id := p.tr.begin("policy.record")
	p.Policy.Record(clip, now, hit)
	p.tr.end(id)
}

func (p *tracedPolicy) Admit(clip media.Clip, now vtime.Time) bool {
	id := p.tr.begin("policy.admit")
	ok := p.Policy.Admit(clip, now)
	p.tr.end(id)
	return ok
}

func (p *tracedPolicy) Victims(incoming media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	id := p.tr.begin("policy.victims")
	v := p.Policy.Victims(incoming, view, need, now)
	p.tr.end(id)
	p.victims += int64(len(v))
	return v
}

func (p *tracedPolicy) OnInsert(clip media.Clip, now vtime.Time) {
	id := p.tr.begin("policy.on_insert")
	p.Policy.OnInsert(clip, now)
	p.tr.end(id)
}

func (p *tracedPolicy) OnEvict(clipID media.ClipID, now vtime.Time) {
	id := p.tr.begin("policy.on_evict")
	p.Policy.OnEvict(clipID, now)
	p.tr.end(id)
}

// Bind forwards the resident view to policies that ask for one; core.New
// only sees the decorator.
func (p *tracedPolicy) Bind(view core.ResidentView) {
	if b, ok := p.Policy.(core.Binder); ok {
		b.Bind(view)
	}
}

// tracedRequester puts a core.request span around the engine call the
// simulator makes.
type tracedRequester struct {
	cache *core.Cache
	tr    *tracer
}

func (r tracedRequester) Request(id media.ClipID) (core.Outcome, error) {
	r.tr.request++
	s := r.tr.begin("core.request")
	out, err := r.cache.Request(id)
	r.tr.end(s)
	return out, err
}

func (r tracedRequester) Stats() core.Stats { return r.cache.Stats() }

func (l *ladder) newCache(spec string, wrap func(core.Policy) core.Policy, opts ...core.Option) (*core.Cache, error) {
	pol, err := registry.Build(spec, l.repo, zipf.MustNew(l.repo.N(), zipf.DefaultMean).PMF(), l.o.seed)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		pol = wrap(pol)
	}
	return core.New(l.repo, l.cap, pol, opts...)
}

// rangeOf is the byte range an event references on a bare segmented
// engine: a whole-clip reference is the range to the end.
func rangeOf(ev workload.Request) (start, length media.Bytes) {
	if ev.Ranged {
		return ev.Start, ev.Length
	}
	return 0, -1
}

// timed is the length of a rung's timed loops.
func (l *ladder) timed() time.Duration {
	if l.o.quick {
		return ladderTimed / 10
	}
	return ladderTimed
}

func segmentedOptions() []core.Option {
	return []core.Option{core.WithSegments(segmentSize), core.WithPrefixAdmission(prefixSegments), core.WithTTL(ttlTicks)}
}

// runLadder measures every per-layer metric.
func runLadder(o options) (*runResult, error) {
	repo := media.PaperRepository()
	l := &ladder{o: o, repo: repo, cap: repo.CacheSizeForRatio(cacheRatio), set: newMetricSet(perLayer), rungs: map[string]*tracer{}}
	n := o.scale(ladderOps)
	var err error
	if l.zipf, err = zipfStream(repo, callerSeed(o.seed, 0), n); err != nil {
		return nil, err
	}
	if l.churn, err = rangeChurnStream(repo, callerSeed(o.seed, 0), n); err != nil {
		return nil, err
	}
	for _, rung := range []func() error{
		l.workloadRung, l.policyRungs, l.coreRangeRung, l.shardRung, l.shardRangeRung, l.simRung, l.httpRungs, l.harnessRung,
	} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	l.set.set("harness.errors", float64(l.failed))
	if err := writeTrace(filepath.Join(o.outDir(), o.workload+".trace.json"), o.workload, o.seed, l.rungs); err != nil {
		return nil, err
	}
	r := &runResult{Workload: o.workload, Seed: o.seed, Attempted: l.ops, Failed: l.failed, set: l.set, Checks: l.checks}
	r.Checks = append(r.Checks, check{"no ladder operation failed", l.failed == 0, fmt.Sprintf("%d of %d", l.failed, l.ops)})
	return r, nil
}

// workloadRung times one draw of each generator.
func (l *ladder) workloadRung() error {
	n := len(l.zipf)
	dist, err := zipf.New(l.repo.N(), zipf.DefaultMean)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(dist, l.o.seed)
	if err != nil {
		return err
	}
	ranges, err := workload.NewRangeGenerator(l.repo, dist, l.o.seed, workload.DefaultRangeConfig())
	if err != nil {
		return err
	}
	churn, err := workload.NewChurn(l.repo.N(), zipf.DefaultMean, workload.ChurnSpec{Rate: churnRate, Life: churnLife, Horizon: n}, l.o.seed)
	if err != nil {
		return err
	}
	for _, g := range []struct {
		name string
		src  workload.Source
	}{
		{"workload.next_ns", gen.Source()}, {"workload.range_next_ns", ranges.Source()}, {"workload.churn_next_ns", churn.Source()},
	} {
		ns, _ := plainPass(n, func(int) {
			if _, ok := g.src.Next(); !ok {
				l.count(fmt.Errorf("%s: source ended early", g.name))
			}
		})
		l.ops += int64(n)
		l.set.set(g.name, ns)
	}
	return nil
}

// policyRungs replays the Zipf stream through a bare core.Cache under each
// ladder policy, decorated: core.request spans with the policy callbacks as
// children. The greedydual pass — pool-clip-zipf's engine — also gives the
// core.* numbers, and an undecorated pass its allocations and the cost of
// tracing.
func (l *ladder) policyRungs() error {
	n := len(l.zipf)
	for _, p := range ladderPolicies {
		tr := newTracer(8 * n)
		tp := &tracedPolicy{tr: tr}
		cache, err := l.newCache(p.Spec, func(inner core.Policy) core.Policy { tp.Policy = inner; return tp })
		if err != nil {
			return err
		}
		hit := make([]bool, n)
		start := time.Now()
		for i, ev := range l.zipf {
			tr.request = int32(i)
			s := tr.begin("core.request")
			out, err := cache.Request(ev.Clip)
			tr.end(s)
			hit[i] = out.IsHit()
			l.count(err)
		}
		tracedNs := float64(time.Since(start)) / float64(n)
		l.rungs["core."+p.Key] = tr

		dur := tr.durations()
		victims := tr.pick(dur, named("policy.victims"))
		l.set.set("policy."+p.Key+".record_ns", mean(tr.pick(dur, named("policy.record"))))
		l.set.set("policy."+p.Key+".victims_ns", mean(victims))
		l.set.set("policy."+p.Key+".victims_calls", float64(len(victims)))
		l.set.set("policy."+p.Key+".victims_per_call", float64(tp.victims)/float64(max(len(victims), 1)))
		if p.Spec != "greedydual" {
			continue
		}

		l.set.set("core.request_hit_ns", mean(tr.pick(dur, byOutcome("core.request", hit, true))))
		l.set.set("core.request_miss_ns", mean(tr.pick(dur, byOutcome("core.request", hit, false))))
		l.set.set("core.self_ns", mean(tr.pick(selfTimes(tr.spans), named("core.request"))))
		st := cache.Stats()
		misses := float64(max(st.Requests-st.Hits, 1))
		l.set.set("core.evictions_per_miss", float64(st.Evictions)/misses)
		l.set.set("core.victim_calls_per_miss", float64(st.VictimCalls)/misses)

		plain, err := l.newCache(p.Spec, nil)
		if err != nil {
			return err
		}
		plainNs, allocs := plainPass(n, func(i int) {
			_, err := plain.Request(l.zipf[i].Clip)
			l.count(err)
		})
		l.set.set("core.request_allocs_per_op", allocs)
		// The engine rung has the most spans per microsecond of work, so
		// this is the ladder's worst case.
		l.set.set("harness.trace_overhead_share", 1-plainNs/tracedNs)
		l.checks = append(l.checks, check{"decorated and plain engines agree", plain.Stats() == st,
			fmt.Sprintf("%d vs %d hits", plain.Stats().Hits, st.Hits)})
	}
	return nil
}

// coreRangeRung replays the churn mix through a bare segmented engine.
func (l *ladder) coreRangeRung() error {
	n := len(l.churn)
	cache, err := l.newCache("greedydual", nil, segmentedOptions()...)
	if err != nil {
		return err
	}
	tr := newTracer(n)
	l.rungs["core.range"] = tr
	results := make([]core.RangeResult, n)
	for i, ev := range l.churn {
		tr.request = int32(i)
		if ev.Kind == workload.EventPerish {
			s := tr.begin("core.invalidate")
			cache.Invalidate(ev.Clip)
			tr.end(s)
			l.ops++
			continue
		}
		start, length := rangeOf(ev)
		s := tr.begin("core.range")
		res, err := cache.RequestRange(ev.Clip, start, length)
		tr.end(s)
		results[i] = res
		l.count(err)
	}
	dur := tr.durations()
	kind := func(keep func(core.RangeResult) bool) func(span) bool {
		return func(s span) bool { return s.Name == "core.range" && keep(results[s.Request]) }
	}
	l.set.set("core.range_hit_ns", mean(tr.pick(dur, kind(func(r core.RangeResult) bool { return r.Outcome.IsHit() }))))
	l.set.set("core.range_partial_ns", mean(tr.pick(dur, kind(func(r core.RangeResult) bool { return !r.Outcome.IsHit() && r.BytesHit > 0 }))))
	l.set.set("core.range_miss_ns", mean(tr.pick(dur, kind(func(r core.RangeResult) bool { return !r.Outcome.IsHit() && r.BytesHit == 0 }))))
	l.set.set("core.invalidate_ns", mean(tr.pick(dur, named("core.invalidate"))))

	plain, err := l.newCache("greedydual", nil, segmentedOptions()...)
	if err != nil {
		return err
	}
	_, allocs := plainPass(n, func(i int) {
		ev := l.churn[i]
		if ev.Kind == workload.EventPerish {
			plain.Invalidate(ev.Clip)
			return
		}
		start, length := rangeOf(ev)
		_, err := plain.RequestRange(ev.Clip, start, length)
		l.count(err)
	})
	l.set.set("core.range_allocs_per_op", allocs)
	return nil
}

// shardRung measures the whole-clip pool: its cost over the bare engine on
// one shard, the traced hit and miss paths on two, and what a second caller
// costs the first.
func (l *ladder) shardRung() error {
	n := len(l.zipf)
	request := func(p *shard.Pool) func(int) {
		return func(i int) {
			_, err := p.Request(l.zipf[i].Clip)
			l.count(err)
		}
	}

	// shard.self_ns: a one-shard pool with no fetch hook makes the bare
	// engine's decisions (TestSingleShardEquivalence), so the difference in
	// ns/op on the identical stream is the pool's own.
	bare, err := l.newCache("greedydual", nil)
	if err != nil {
		return err
	}
	bareNs, _ := plainPass(n, func(i int) {
		_, err := bare.Request(l.zipf[i].Clip)
		l.count(err)
	})
	oneCfg := clipPoolConfig(l.repo, l.o.seed, 1)
	oneCfg.Fetch = nil
	one, err := shard.New(oneCfg)
	if err != nil {
		return err
	}
	oneNs, _ := plainPass(n, request(one))
	l.set.set("shard.self_ns", oneNs-bareNs)
	l.checks = append(l.checks, check{"one-shard pool and bare engine agree", one.Stats() == bare.Stats(),
		fmt.Sprintf("%d vs %d hits", one.Stats().Hits, bare.Stats().Hits)})

	// The traced pass: pool-clip-zipf's pool, its fetch a child span.
	tr := newTracer(2 * n)
	l.rungs["shard"] = tr
	cfg := clipPoolConfig(l.repo, l.o.seed, shards)
	cfg.Fetch = func(media.Clip, vtime.Time) error {
		tr.end(tr.begin("shard.fetch"))
		return nil
	}
	pool, err := shard.New(cfg)
	if err != nil {
		return err
	}
	hit := make([]bool, n)
	for i, ev := range l.zipf {
		tr.request = int32(i)
		s := tr.begin("shard.request")
		out, err := pool.Request(ev.Clip)
		tr.end(s)
		hit[i] = out.IsHit()
		l.count(err)
	}
	dur := tr.durations()
	l.set.set("shard.request_hit_ns", mean(tr.pick(dur, byOutcome("shard.request", hit, true))))
	l.set.set("shard.request_miss_ns", mean(tr.pick(dur, byOutcome("shard.request", hit, false))))
	st := pool.Stats()
	misses := float64(max(st.Requests-st.Hits, 1))
	l.set.set("shard.fast_hit_share", float64(pool.FastPathHits())/float64(max(st.Hits, 1)))
	l.set.set("shard.touch_flushes_per_kop", float64(pool.TouchFlushes())/(float64(n)/1000))
	l.set.set("shard.fetches_per_miss", float64(pool.Fetches())/misses)
	l.set.set("shard.byte_hit_rate", st.ByteHitRate())

	plain, err := shard.New(clipPoolConfig(l.repo, l.o.seed, shards))
	if err != nil {
		return err
	}
	_, allocs := plainPass(n, request(plain))
	l.set.set("shard.allocs_per_op", allocs)

	// Contention: the same warm pool under one caller, then under two, each
	// on its own stream. Per-caller ns/op is callers ÷ rate.
	second, err := zipfStream(l.repo, callerSeed(l.o.seed, 1), n)
	if err != nil {
		return err
	}
	streams := [][]workload.Request{l.zipf, second}
	step := func(c, i int) (int, error) {
		_, err := plain.Request(streams[c][i%n].Clip)
		return 1, err
	}
	solo := closedLoop(1, l.timed(), 1, 0, step)
	coalescedBefore, missesBefore := plain.Coalesced(), plain.Stats().Requests-plain.Stats().Hits
	duo := closedLoop(callers, l.timed(), 1, 0, step)
	l.ops += solo.Issued + duo.Issued
	l.failed += solo.Failed + duo.Failed
	l.set.set("shard.contention_ratio", float64(callers)*summarize(solo.Windows).Throughput/summarize(duo.Windows).Throughput)
	l.set.set("shard.latency_p999_us", quantile(duo.Lat, 0.999)/1e3)
	duoMisses := plain.Stats().Requests - plain.Stats().Hits - missesBefore
	l.set.set("shard.coalesced_share", float64(plain.Coalesced()-coalescedBefore)/float64(max(duoMisses, 1)))
	return nil
}

// shardRangeRung replays the churn mix through pool-range-churn's pool:
// singles traced, then batches of mixBatchSize timed as a whole.
func (l *ladder) shardRangeRung() error {
	n := len(l.churn)
	pool, err := shard.New(rangePoolConfig(l.repo, l.o.seed, shards))
	if err != nil {
		return err
	}
	tr := newTracer(n)
	l.rungs["shard.range"] = tr
	hit := make([]bool, n)
	for i, ev := range l.churn {
		tr.request = int32(i)
		if ev.Kind == workload.EventPerish {
			s := tr.begin("shard.invalidate")
			pool.Invalidate(ev.Clip)
			tr.end(s)
			l.ops++
			continue
		}
		s := tr.begin("shard.range")
		out, err := poolRequest(pool, ev)
		tr.end(s)
		hit[i] = out.IsHit()
		l.count(err)
	}
	dur := tr.durations()
	l.set.set("shard.range_hit_ns", mean(tr.pick(dur, byOutcome("shard.range", hit, true))))
	l.set.set("shard.range_miss_ns", mean(tr.pick(dur, byOutcome("shard.range", hit, false))))
	l.set.set("shard.invalidate_ns", mean(tr.pick(dur, named("shard.invalidate"))))
	l.set.set("shard.range_byte_hit_rate", pool.Stats().ByteHitRate())

	plain, err := shard.New(rangePoolConfig(l.repo, l.o.seed, shards))
	if err != nil {
		return err
	}
	// The first half of the stream's requests go one by one, the second
	// half in batches.
	var requests []workload.Request
	for _, ev := range l.churn {
		if ev.Kind == workload.EventRequest {
			requests = append(requests, ev)
		}
	}
	half := len(requests) / 2 / mixBatchSize * mixBatchSize
	_, allocs := plainPass(half, func(i int) {
		_, err := poolRequest(plain, requests[i])
		l.count(err)
	})
	l.set.set("shard.range_allocs_per_op", allocs)
	batches := make([]shard.BatchItem, half)
	for i, ev := range requests[half : 2*half] {
		batches[i] = batchItem(ev)
	}
	batchNs, batchAllocs := plainPass(half/mixBatchSize, func(i int) {
		for _, r := range plain.RequestBatch(batches[i*mixBatchSize : (i+1)*mixBatchSize]) {
			l.count(r.Err)
		}
	})
	l.set.set("shard.batch_ns_per_item", batchNs/mixBatchSize)
	l.set.set("shard.batch_allocs_per_item", batchAllocs/mixBatchSize)
	return nil
}

// simRung measures the simulator over the engine: one RunSource cell plain
// and traced, then one sweep pair at each worker count.
func (l *ladder) simRung() error {
	n := len(l.zipf)
	source := func() (workload.Source, error) {
		gen, err := workload.NewGenerator(zipf.MustNew(l.repo.N(), zipf.DefaultMean), callerSeed(l.o.seed, 0))
		if err != nil {
			return nil, err
		}
		return gen.Source(), nil
	}
	cache, err := l.newCache("greedydual", nil)
	if err != nil {
		return err
	}
	src, err := source()
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := sim.RunSource("greedydual", cache, src, sim.SourceConfig{Limit: n}); err != nil {
		return err
	}
	l.set.set("sim.run_ns_per_req", float64(time.Since(start))/float64(n))
	l.ops += int64(n)

	tr := newTracer(n + 1)
	l.rungs["sim"] = tr
	if cache, err = l.newCache("greedydual", nil); err != nil {
		return err
	}
	if src, err = source(); err != nil {
		return err
	}
	root := tr.begin("sim.run")
	_, err = sim.RunSource("greedydual", tracedRequester{cache, tr}, src, sim.SourceConfig{Limit: n})
	tr.end(root)
	if err != nil {
		return err
	}
	l.set.set("sim.self_ns", float64(selfTimes(tr.spans)[root])/float64(n))
	l.ops += int64(n)

	opt := sim.Options{Seed: l.o.seed, Requests: l.o.scale(simRequests), Parallel: 1}
	start = time.Now()
	if _, _, err := sweepOnce(opt); err != nil {
		return err
	}
	sequential := time.Since(start)
	opt.Parallel = callers
	start = time.Now()
	figs, total, err := sweepOnce(opt)
	if err != nil {
		return err
	}
	parallel := time.Since(start)
	var cells []float64
	for _, f := range figs {
		for _, c := range f.Cells {
			cells = append(cells, c.Wall.Seconds())
		}
	}
	slices.Sort(cells)
	l.set.set("sim.cell_s_p50", median(cells))
	l.set.set("sim.cell_s_max", cells[len(cells)-1])
	l.set.set("sim.parallel_speedup", sequential.Seconds()/parallel.Seconds())
	l.ops += 2 * int64(total.Requests)
	return nil
}

// harnessRung measures the harness itself, so a reader can tell when a
// number above is the harness's and not the program's.
func (l *ladder) harnessRung() error {
	const pairs = 1 << 20
	var sink time.Duration
	ns, _ := plainPass(pairs, func(int) { sink += time.Since(time.Now()) })
	_ = sink
	l.set.set("harness.timer_ns", ns)

	noop, err := noopCeiling(l.timed())
	if err != nil {
		return err
	}
	l.ops += noop.Issued
	l.failed += noop.Failed
	l.set.set("harness.noop_http_rps", summarize(noop.Windows).Throughput)
	l.set.set("harness.noop_http_p50_us", quantile(noop.Lat, 0.50)/1e3)
	return nil
}
