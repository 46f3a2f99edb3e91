// Package mediacache_test is the benchmark harness of the reproduction:
// one testing.B benchmark per table/figure of the paper's evaluation
// (regenerating its rows through the same code as cmd/experiments), plus
// per-policy throughput benchmarks and the ablation benches DESIGN.md §6
// calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report the figure's headline values through
// b.ReportMetric (unit suffix "%hit"), so a bench run doubles as a quick
// regression check on the reproduced numbers. The full row-by-row output
// comes from cmd/experiments.
package mediacache_test

import (
	"fmt"
	"strings"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/blocklru"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/policy/gdfreq"
	"mediacache/internal/policy/gdsp"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/igd"
	"mediacache/internal/policy/lfu"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/lrusk"
	"mediacache/internal/policy/simple"
	"mediacache/internal/sim"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// benchFigure regenerates one experiment per iteration and reports the mean
// Y value of every series as a metric.
func benchFigure(b *testing.B, id string) {
	run, ok := sim.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var fig *sim.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = run(sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		if len(s.Y) > 0 {
			// Metric units must not contain whitespace.
			unit := strings.ReplaceAll(s.Label, " ", "") + "_%"
			b.ReportMetric(100*sum/float64(len(s.Y)), unit)
		}
	}
}

// One benchmark per table/figure of the evaluation section.

func BenchmarkFigure2a(b *testing.B) { benchFigure(b, "2a") }
func BenchmarkFigure2b(b *testing.B) { benchFigure(b, "2b") }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, "3") }
func BenchmarkFigure5a(b *testing.B) { benchFigure(b, "5a") }
func BenchmarkFigure5b(b *testing.B) { benchFigure(b, "5b") }
func BenchmarkFigure6a(b *testing.B) { benchFigure(b, "6a") }
func BenchmarkFigure6b(b *testing.B) { benchFigure(b, "6b") }
func BenchmarkFigure7a(b *testing.B) { benchFigure(b, "7a") }
func BenchmarkFigure7b(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkQuality regenerates the Section 4.1 estimate-quality study.
func BenchmarkQuality(b *testing.B) {
	var fig *sim.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = sim.Quality(sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	s := fig.Series[0]
	b.ReportMetric(s.Y[0], "E_K2")
	b.ReportMetric(s.Y[len(s.Y)-1], fmt.Sprintf("E_K%d", int(s.X[len(s.X)-1])))
}

// BenchmarkSkew regenerates the Section 4.4 skew sweep.
func BenchmarkSkew(b *testing.B) { benchFigure(b, "skew") }

// BenchmarkBlockAblation regenerates the footnote 3 block-size ablation.
func BenchmarkBlockAblation(b *testing.B) { benchFigure(b, "blocks") }

// BenchmarkDYNSimpleRefinement regenerates the Figure 4 phase-2 ablation.
func BenchmarkDYNSimpleRefinement(b *testing.B) { benchFigure(b, "refinement") }

// benchPolicyThroughput measures per-request cost of a policy on the paper
// repository at S_T/S_DB = 0.125 under the standard Zipf workload.
func benchPolicyThroughput(b *testing.B, spec string) {
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
	pmf := gen.PMF()
	cache, err := sim.NewCache(spec, repo, repo.CacheSizeForRatio(0.125), pmf, sim.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up so the steady-state mix of hits and evictions is measured.
	for i := 0; i < 2000; i++ {
		if _, err := cache.Request(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Request(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicy measures steady-state request latency per technique —
// the paper's "processor utilization" metric (Section 1) as CPU time per
// request.
func BenchmarkPolicy(b *testing.B) {
	for _, spec := range []string{
		"simple", "random", "lruk:2", "lrusk:2",
		"dynsimple:2", "dynsimple:32", "greedydual", "gdfreq", "igd:2",
	} {
		b.Run(spec, func(b *testing.B) { benchPolicyThroughput(b, spec) })
	}
}

// BenchmarkIGDAging compares IGD's selection-time Δ aging against frozen
// touch-time priorities (DESIGN.md §6.3): hit rate after a popularity shift.
func BenchmarkIGDAging(b *testing.B) {
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	sched := workload.Schedule{{Shift: 0, Requests: 5000}, {Shift: 200, Requests: 5000}}
	run := func(b *testing.B, opts ...igd.Option) float64 {
		var rate float64
		for i := 0; i < b.N; i++ {
			p, err := igd.New(repo.N(), 2, sim.DefaultSeed, opts...)
			if err != nil {
				b.Fatal(err)
			}
			cache, err := core.New(repo, repo.CacheSizeForRatio(0.125), p)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
			res, err := sim.Run(p.Name(), cache, gen, sched, sim.RunConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rate = res.Stats.HitRate()
		}
		return rate
	}
	b.Run("dynamic", func(b *testing.B) {
		b.ReportMetric(100*run(b), "hit_%")
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportMetric(100*run(b, igd.FrozenAging()), "hit_%")
	})
}

// BenchmarkDYNSimpleK sweeps the history depth K (the Figure 5.b / 6
// discussion of estimate quality vs adaptation speed).
func BenchmarkDYNSimpleK(b *testing.B) {
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				p, err := dynsimple.New(repo.N(), k)
				if err != nil {
					b.Fatal(err)
				}
				cache, err := core.New(repo, repo.CacheSizeForRatio(0.125), p)
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
				res, err := sim.Run(p.Name(), cache, gen,
					workload.Schedule{{Shift: 0, Requests: sim.DefaultRequests}}, sim.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				rate = res.Stats.HitRate()
			}
			b.ReportMetric(100*rate, "hit_%")
		})
	}
}

// Extension experiments (see internal/sim/extensions.go).

func BenchmarkGDSPTradeoff(b *testing.B)     { benchFigure(b, "gdsp") }
func BenchmarkLatency(b *testing.B)          { benchFigure(b, "latency") }
func BenchmarkRegionThroughput(b *testing.B) { benchFigure(b, "region") }
func BenchmarkTaxonomy(b *testing.B)         { benchFigure(b, "taxonomy") }
func BenchmarkCoop(b *testing.B)             { benchFigure(b, "coop") }
func BenchmarkFiveRule(b *testing.B)         { benchFigure(b, "fiverule") }
func BenchmarkDrift(b *testing.B)            { benchFigure(b, "drift") }
func BenchmarkOptimal(b *testing.B)          { benchFigure(b, "optimal") }
func BenchmarkAdmission(b *testing.B)        { benchFigure(b, "admission") }

// BenchmarkSweepParallel measures the worker-pool sweep engine on the
// Figure 5.b grid (9 policies × 7 cache ratios = 63 cells) at several
// worker counts. parallel=1 is the sequential baseline; parallel=0 uses
// one worker per CPU. The figure output is byte-identical at every worker
// count (internal/sim/parallel_test.go pins that); this benchmark measures
// only the wall-clock effect.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("parallel=%d", workers)
		if workers == 0 {
			name = "parallel=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Figure5b(sim.Options{Parallel: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLRUSKSelection measures the Section 5 tree-based LRU-SK on a
// large synthetic repository (20,000 clips, 6 size classes), where
// victim-selection complexity dominates.
func BenchmarkLRUSKSelection(b *testing.B) {
	const nClips = 20004 // multiple of 6 for the paper-style size pattern
	repo, err := media.VariableRepository(nClips)
	if err != nil {
		b.Fatal(err)
	}
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	b.Run("tree", func(b *testing.B) {
		p, err := lrusk.NewFast(repo.N(), 2)
		if err != nil {
			b.Fatal(err)
		}
		cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), p)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
		for i := 0; i < 3000; i++ {
			if _, err := cache.Request(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Request(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvictionHeavy measures each indexed policy's victim selection on a
// large synthetic repository (20,004 clips, 6 size classes) in an
// eviction-heavy regime: a 5% cache under the standard Zipf workload, where
// roughly half the requests miss and force victim selection.
func BenchmarkEvictionHeavy(b *testing.B) {
	const nClips = 20004
	repo, err := media.VariableRepository(nClips)
	if err != nil {
		b.Fatal(err)
	}
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	pmf := workload.MustNewGenerator(dist, sim.DefaultSeed).PMF()
	run := func(b *testing.B, p core.Policy) {
		cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), p)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
		for i := 0; i < 3000; i++ {
			if _, err := cache.Request(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Request(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	}
	policies := []struct {
		name    string
		indexed func() core.Policy
	}{
		{"greedydual", func() core.Policy { return greedydual.New(nil, sim.DefaultSeed) }},
		{"gdfreq", func() core.Policy { return gdfreq.New(nil, sim.DefaultSeed) }},
		{"gdsp", func() core.Policy { return gdsp.MustNew(nil, 0, sim.DefaultSeed) }},
		{"lruk", func() core.Policy { return lruk.MustNew(nClips, 2) }},
		{"lrusk", func() core.Policy { return lrusk.MustNew(nClips, 2) }},
		{"lfu", func() core.Policy { return lfu.New() }},
		{"simple", func() core.Policy { return simple.MustNew(pmf) }},
		{"dynsimple", func() core.Policy { return dynsimple.MustNew(nClips, 2) }},
	}
	for _, p := range policies {
		b.Run(p.name+"/indexed", func(b *testing.B) { run(b, p.indexed()) })
	}
}

// BenchmarkIGDSelection measures IGD's O(n)-scan victim selection per
// request: "scan" on a large synthetic repository (20,004 clips, ratio
// 0.05), "paper" on the paper's 576-clip repository at ratio 0.125 — the
// Figure 6.a cell the sim-sweep benchmark runs.
func BenchmarkIGDSelection(b *testing.B) {
	cases := []struct {
		name   string
		nClips int
		ratio  float64
	}{
		{"scan", 20004, 0.05},
		{"paper", media.PaperRepositorySize, 0.125},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			repo, err := media.VariableRepository(tc.nClips)
			if err != nil {
				b.Fatal(err)
			}
			p, err := igd.New(repo.N(), 2, sim.DefaultSeed)
			if err != nil {
				b.Fatal(err)
			}
			cache, err := core.New(repo, repo.CacheSizeForRatio(tc.ratio), p)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), sim.DefaultSeed)
			for i := 0; i < 3000; i++ {
				if _, err := cache.Request(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Request(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockRequest measures block-grained request cost at several
// block sizes (bookkeeping overhead of footnote 3's naive design).
func BenchmarkBlockRequest(b *testing.B) {
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	for _, bs := range []media.Bytes{8 * media.MB, 64 * media.MB, media.GB} {
		b.Run(bs.String(), func(b *testing.B) {
			cache, err := blocklru.New(repo, repo.CacheSizeForRatio(0.125), bs, 2)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.MustNewGenerator(dist, sim.DefaultSeed)
			for i := 0; i < 500; i++ {
				if _, err := cache.Request(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Request(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
