package main

// metrics.go is the single table of names: the workloads, the end-to-end
// metrics with their bounds, and the per-layer ladder. BENCHMARK.json is
// generated from it (-manifest) and bench_test.go pins the two together.

import (
	"encoding/json"
	"fmt"
)

const (
	runSeconds = 20 // measured phase of one untraced run
	callers    = 2  // closed-loop callers over HTTP, and sweep workers: nproc on the sizing host
	shards     = 2  // of every pool, in-process or in the server
	cacheRatio = 0.125
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"http-clip-zipf", "default cacheserver over loopback, whole-clip cacheclient.Clip: the HTTP chain and client are ~98% of the time, the engine ~2%"},
	{"http-range-churn", "everything-on server (segments, prefix, TTL, reqlog): Range GETs, whole clips and DELETEs, so a default-path gain that costs the feature path shows"},
	{"pool-clip-zipf", "in-process 2-shard greedydual pool, instant fetch: lock-free hit path, touch drains and the staged miss path; HTTP does nothing"},
	{"pool-range-churn", "segmented TTL pool, range/whole/invalidate singles plus RequestBatch: the engine with no fast path, where a whole-clip-only trick must not regress"},
	{"sim-sweep", "Figure5b + Figure6a sweeps in a loop: policy Record/Victims, core.Cache.Request and generators are all of the time; shard, HTTP and client none"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// The bounds are what the sizing host can resolve, not what one would like:
// ten-seed sets of 20-second runs on that VM spread by 4–16 % (interquartile
// over median) on every timed metric whatever the estimator, and a bound
// must sit well above the spread to mean anything. README.md has the table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "hit_rate", Unit: "ratio", Better: "higher", Bound: 0.05},
}

// ladderPolicies are the P of policy.P.*: registry spec and metric infix.
var ladderPolicies = []struct{ Spec, Key string }{
	{"greedydual", "greedydual"},
	{"dynsimple:2", "dynsimple2"},
	{"igd:2", "igd2"},
	{"lruk:2", "lruk2"},
	{"lrusk:2", "lrusk2"},
}

const (
	movesSetup    = "setup_s everywhere; throughput_rps on sim-sweep only"
	movesPolicy   = "throughput_rps, cpu_us_per_op on sim-sweep; a few % on pool-*; none on http-*"
	movesCore     = "throughput_rps on sim-sweep; latency_p99_us on pool-clip-zipf"
	movesCoreSeg  = "throughput_rps, latency_p50_us on pool-range-churn; none on pool-clip-zipf, sim-sweep"
	movesShard    = "throughput_rps, cpu_us_per_op on pool-clip-zipf"
	movesShardSeg = "throughput_rps, latency_p50_us on pool-range-churn only"
	movesSim      = "throughput_rps on sim-sweep"
	movesClient   = "latency_p50_us on http-*"
	movesServer   = "throughput_rps, latency_p50_us, cpu_us_per_op on http-clip-zipf"
	movesServerFt = "throughput_rps, latency_p50_us on http-range-churn only"
	movesNothing  = "nothing: says when a number is the harness's, not the program's"
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(moves string, rows ...[3]string) {
		for _, r := range rows {
			defs = append(defs, metricDef{Name: r[0], Unit: r[1], Better: r[2], Moves: moves})
		}
	}
	add(movesSetup,
		[3]string{"workload.next_ns", "ns", "lower"},
		[3]string{"workload.range_next_ns", "ns", "lower"},
		[3]string{"workload.churn_next_ns", "ns", "lower"})
	for _, p := range ladderPolicies {
		add(movesPolicy,
			[3]string{"policy." + p.Key + ".record_ns", "ns", "lower"},
			[3]string{"policy." + p.Key + ".victims_ns", "ns", "lower"},
			[3]string{"policy." + p.Key + ".victims_calls", "count", "lower"},
			[3]string{"policy." + p.Key + ".victims_per_call", "count", "higher"})
	}
	add(movesCore,
		[3]string{"core.request_hit_ns", "ns", "lower"},
		[3]string{"core.request_miss_ns", "ns", "lower"},
		[3]string{"core.self_ns", "ns", "lower"},
		[3]string{"core.request_allocs_per_op", "count", "lower"},
		[3]string{"core.evictions_per_miss", "count", "lower"},
		[3]string{"core.victim_calls_per_miss", "count", "lower"})
	add(movesCoreSeg,
		[3]string{"core.range_hit_ns", "ns", "lower"},
		[3]string{"core.range_partial_ns", "ns", "lower"},
		[3]string{"core.range_miss_ns", "ns", "lower"},
		[3]string{"core.range_allocs_per_op", "count", "lower"},
		[3]string{"core.invalidate_ns", "ns", "lower"})
	add(movesShard,
		[3]string{"shard.request_hit_ns", "ns", "lower"},
		[3]string{"shard.request_miss_ns", "ns", "lower"},
		[3]string{"shard.self_ns", "ns", "lower"},
		[3]string{"shard.fast_hit_share", "ratio", "higher"},
		[3]string{"shard.touch_flushes_per_kop", "count", "lower"},
		[3]string{"shard.fetches_per_miss", "count", "lower"},
		[3]string{"shard.coalesced_share", "ratio", "higher"},
		[3]string{"shard.allocs_per_op", "count", "lower"},
		[3]string{"shard.contention_ratio", "ratio", "lower"},
		[3]string{"shard.latency_p999_us", "us", "lower"},
		[3]string{"shard.byte_hit_rate", "ratio", "higher"})
	add(movesShardSeg,
		[3]string{"shard.range_hit_ns", "ns", "lower"},
		[3]string{"shard.range_miss_ns", "ns", "lower"},
		[3]string{"shard.range_allocs_per_op", "count", "lower"},
		[3]string{"shard.batch_ns_per_item", "ns", "lower"},
		[3]string{"shard.batch_allocs_per_item", "count", "lower"},
		[3]string{"shard.invalidate_ns", "ns", "lower"},
		[3]string{"shard.range_byte_hit_rate", "ratio", "higher"})
	add(movesSim,
		[3]string{"sim.run_ns_per_req", "ns", "lower"},
		[3]string{"sim.self_ns", "ns", "lower"},
		[3]string{"sim.cell_s_p50", "s", "lower"},
		[3]string{"sim.cell_s_max", "s", "lower"},
		[3]string{"sim.parallel_speedup", "ratio", "higher"})
	add(movesClient,
		[3]string{"cacheclient.clip_us", "us", "lower"},
		[3]string{"cacheclient.self_us", "us", "lower"},
		[3]string{"cacheclient.allocs_per_op", "count", "lower"},
		[3]string{"cacheclient.retries", "count", "lower"},
		[3]string{"cacheclient.breaker_opens", "count", "lower"})
	add(movesServer,
		[3]string{"cacheserver.clip_hit_us", "us", "lower"},
		[3]string{"cacheserver.clip_miss_us", "us", "lower"},
		[3]string{"cacheserver.batch8_us_per_item", "us", "lower"},
		[3]string{"cacheserver.stats_us", "us", "lower"},
		[3]string{"cacheserver.metrics_us", "us", "lower"},
		[3]string{"cacheserver.handler_us", "us", "lower"},
		[3]string{"cacheserver.transport_us", "us", "lower"},
		[3]string{"cacheserver.self_us", "us", "lower"},
		[3]string{"cacheserver.response_bytes", "B", "lower"},
		[3]string{"cacheserver.log_bytes_per_req", "B", "lower"},
		[3]string{"cacheserver.shed_share", "ratio", "lower"},
		[3]string{"cacheserver.start_ms", "ms", "lower"},
		[3]string{"cacheserver.latency_p999_us", "us", "lower"},
		[3]string{"cacheserver.byte_hit_rate", "ratio", "higher"})
	add(movesServerFt,
		[3]string{"cacheserver.range_us", "us", "lower"},
		[3]string{"cacheserver.delete_us", "us", "lower"},
		[3]string{"cacheserver.reqlog_bytes_per_req", "B", "lower"},
		[3]string{"cacheserver.range_byte_hit_rate", "ratio", "higher"})
	add(movesNothing,
		[3]string{"harness.noop_http_rps", "1/s", "higher"},
		[3]string{"harness.noop_http_p50_us", "us", "lower"},
		[3]string{"harness.timer_ns", "ns", "lower"},
		[3]string{"harness.build_s", "s", "lower"},
		[3]string{"harness.trace_overhead_share", "ratio", "lower"},
		[3]string{"harness.errors", "count", "lower"})
	return defs
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// metricValue is one reported number, in the shape of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a definition table and
// refuses unknown and repeated names, so every name is emitted exactly once.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		s.defs[d.Name] = d
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	d, ok := s.defs[name]
	switch {
	case !ok:
		s.errs = append(s.errs, "unknown metric "+name)
	case s.has(name):
		s.errs = append(s.errs, "metric set twice: "+name)
	default:
		s.values[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

func (s *metricSet) has(name string) bool { _, ok := s.values[name]; return ok }

// complete reports the names defined but never set, plus any misuse.
func (s *metricSet) complete() []string {
	errs := append([]string(nil), s.errs...)
	for name := range s.defs {
		if !s.has(name) {
			errs = append(errs, "metric not emitted: "+name)
		}
	}
	return errs
}
