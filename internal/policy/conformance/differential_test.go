package conformance

import (
	"slices"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/fiverule"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/policy/gdfreq"
	"mediacache/internal/policy/gdsp"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/lfu"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/lrusk"
	"mediacache/internal/policy/simple"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// victim is one step of a victim sequence: a clip evicted outright, or (on a
// segmented cache) trimmed and left resident.
type victim struct {
	id      media.ClipID
	trimmed bool
}

// evictionLog records the exact victim sequence an engine produces.
type evictionLog struct {
	victims []victim
}

func (l *evictionLog) Observe(ev core.Event) {
	if ev.Type == core.EventEviction || ev.Type == core.EventTrim {
		l.victims = append(l.victims, victim{ev.Clip.ID, ev.Type == core.EventTrim})
	}
}

// syntheticFreq builds the frequency vector Simple's off-line variant needs.
func syntheticFreq(n int) []float64 {
	freq := make([]float64, n)
	for i := range freq {
		freq[i] = 1.0 / float64(i+1)
	}
	return freq
}

// diffPair builds an indexed instance and its scan-mode twin.
type diffPair struct {
	name    string
	indexed func(n int) core.Policy
	scan    func(n int) core.Policy
}

func diffPairs() []diffPair {
	return []diffPair{
		{"greedydual",
			func(n int) core.Policy { return greedydual.New(greedydual.UniformCost, 42) },
			func(n int) core.Policy { return greedydual.New(greedydual.UniformCost, 42).Scan() }},
		{"greedydual-sizecost",
			func(n int) core.Policy { return greedydual.New(greedydual.SizeCost, 42) },
			func(n int) core.Policy { return greedydual.New(greedydual.SizeCost, 42).Scan() }},
		{"gdfreq",
			func(n int) core.Policy { return gdfreq.New(nil, 42) },
			func(n int) core.Policy { return gdfreq.New(nil, 42).Scan() }},
		{"gdsp",
			func(n int) core.Policy { return gdsp.MustNew(nil, 0, 42) },
			func(n int) core.Policy { return gdsp.MustNew(nil, 0, 42).Scan() }},
		{"lruk",
			func(n int) core.Policy { return lruk.MustNew(n, 2) },
			func(n int) core.Policy { return lruk.MustNew(n, 2).Scan() }},
		{"lruk-k1",
			func(n int) core.Policy { return lruk.MustNew(n, 1) },
			func(n int) core.Policy { return lruk.MustNew(n, 1).Scan() }},
		{"lruk-k3",
			func(n int) core.Policy { return lruk.MustNew(n, 3) },
			func(n int) core.Policy { return lruk.MustNew(n, 3).Scan() }},
		{"lrusk",
			func(n int) core.Policy { return lrusk.MustNew(n, 2) },
			func(n int) core.Policy { return lrusk.MustNew(n, 2).Scan() }},
		{"lrusk-k1",
			func(n int) core.Policy { return lrusk.MustNew(n, 1) },
			func(n int) core.Policy { return lrusk.MustNew(n, 1).Scan() }},
		{"lrusk-k3",
			func(n int) core.Policy { return lrusk.MustNew(n, 3) },
			func(n int) core.Policy { return lrusk.MustNew(n, 3).Scan() }},
		{"lfu",
			func(n int) core.Policy { return lfu.New() },
			func(n int) core.Policy { return lfu.New().Scan() }},
		{"lfu-da",
			func(n int) core.Policy { return lfu.NewDA() },
			func(n int) core.Policy { return lfu.NewDA().Scan() }},
		{"simple",
			func(n int) core.Policy { return simple.MustNew(syntheticFreq(n)) },
			func(n int) core.Policy { return simple.MustNew(syntheticFreq(n)).Scan() }},
		{"dynsimple",
			func(n int) core.Policy { return dynsimple.MustNew(n, 2) },
			func(n int) core.Policy { return dynsimple.MustNew(n, 2).Scan() }},
		{"dynsimple-k1",
			func(n int) core.Policy { return dynsimple.MustNew(n, 1) },
			func(n int) core.Policy { return dynsimple.MustNew(n, 1).Scan() }},
		// K=32 is what Figures 5b/6a sweep: 198 classes on the paper repository.
		{"dynsimple-k32",
			func(n int) core.Policy { return dynsimple.MustNew(n, 32) },
			func(n int) core.Policy { return dynsimple.MustNew(n, 32).Scan() }},
		{"dynsimple-no-refine",
			func(n int) core.Policy { return dynsimple.MustNew(n, 2, dynsimple.WithoutRefinement()) },
			func(n int) core.Policy { return dynsimple.MustNew(n, 2, dynsimple.WithoutRefinement()).Scan() }},
	}
}

// diffDrive is one way of driving an indexed policy and its scan twin side by
// side on the paper repository.
type diffDrive struct {
	ratio    float64
	seed     uint64
	requests int
	// warm clips are placed before the first request, skipping the miss and
	// admission path entirely.
	warm []media.ClipID
	// segmented drives byte ranges against a segmented cache with a pinned
	// prefix, where a victim can be trimmed and stay resident.
	segmented bool
	// retention, when positive, prunes the reference history the policy
	// exposes through Tracker, as sim.FiveRule does: whatever the policy
	// derived from a forgotten history must be forgotten with it. Pairs
	// without a tracker skip the drive.
	retention vtime.Duration
}

// runDifferential drives the indexed policy and its scan twin through one
// identical trace and requires identical outcome sequences, identical victim
// sequences (in eviction order, trims included), and identical final
// resident sets.
func runDifferential(t *testing.T, pair diffPair, d diffDrive) {
	t.Helper()
	repo := media.PaperRepository()
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	var (
		caches  [2]*core.Cache
		logs    [2]evictionLog
		pruners [2]*fiverule.Pruner
	)
	for i, build := range []func(int) core.Policy{pair.indexed, pair.scan} {
		policy := build(repo.N())
		opts := []core.Option{core.WithObserver(&logs[i])}
		if d.segmented {
			opts = append(opts, core.WithSegments(64*media.MB), core.WithPrefixAdmission(2))
		}
		c, err := core.New(repo, repo.CacheSizeForRatio(d.ratio), policy, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c.Warm(d.warm)
		caches[i] = c
		if d.retention > 0 {
			tracked, ok := policy.(interface{ Tracker() *history.Tracker })
			if !ok {
				return
			}
			// A rule whose break-even interval is the retention.
			rule := fiverule.Rule{NetworkCostPerByte: float64(d.retention), MemoryCostPerBytePerTick: 1, AvgClipBytes: 16, MetadataBytes: 16}
			if pruners[i], err = fiverule.NewPruner(rule, tracked.Tracker(), d.retention/2+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// next issues one request to cache i and returns its comparable result.
	var next func(i int) (any, error)
	if d.segmented {
		var gens [2]*workload.RangeGenerator
		for i := range gens {
			gen, err := workload.NewRangeGenerator(repo, dist, d.seed, workload.DefaultRangeConfig())
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = gen
		}
		next = func(i int) (any, error) {
			req := gens[i].Next()
			return caches[i].RequestRange(req.Clip, req.Start, req.Length)
		}
	} else {
		gens := [2]*workload.Generator{workload.MustNewGenerator(dist, d.seed), workload.MustNewGenerator(dist, d.seed)}
		next = func(i int) (any, error) { return caches[i].Request(gens[i].Next()) }
	}
	for n := 0; n < d.requests; n++ {
		a, errA := next(0)
		b, errB := next(1)
		if errA != nil || errB != nil {
			t.Fatalf("%+v request %d: indexed err=%v scan err=%v", d, n, errA, errB)
		}
		if a != b {
			t.Fatalf("%+v request %d: outcome diverged indexed=%+v scan=%+v", d, n, a, b)
		}
		for i, pruner := range pruners {
			if pruner == nil {
				continue
			}
			if _, err := pruner.Tick(caches[i].Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(logs[0].victims) != len(logs[1].victims) {
		t.Fatalf("%+v: victim counts diverge: indexed=%d scan=%d", d, len(logs[0].victims), len(logs[1].victims))
	}
	for i, v := range logs[0].victims {
		if v != logs[1].victims[i] {
			t.Fatalf("%+v: victim %d diverged: indexed=%+v scan=%+v", d, i, v, logs[1].victims[i])
		}
	}
	if !slices.Equal(core.CollectResidentIDs(caches[0]), core.CollectResidentIDs(caches[1])) {
		t.Fatalf("%+v: resident sets diverge", d)
	}
	if logs[0].victims == nil {
		t.Fatalf("%+v: trace produced no evictions; differential check vacuous", d)
	}
	if pruners[0] != nil && pruners[0].Dropped() == 0 {
		t.Fatalf("%+v: pruner never forgot a history; pruned drive vacuous", d)
	}
}

// TestIndexedMatchesScan is the correctness proof for the indexed victim
// structures: on randomized Zipf traces every indexed policy must produce the
// byte-identical victim ID sequence its linear scan produces — on whole
// clips, on a segmented cache whose trimmed victims stay resident, and with
// the reference history pruned underneath the policy.
func TestIndexedMatchesScan(t *testing.T) {
	var drives []diffDrive
	for _, ratio := range []float64{0.05, 0.0125} {
		for seed := uint64(1); seed <= 3; seed++ {
			drives = append(drives, diffDrive{ratio: ratio, seed: seed, requests: 2500})
		}
	}
	drives = append(drives,
		diffDrive{ratio: 0.05, seed: 4, requests: 2500, segmented: true},
		diffDrive{ratio: 0.05, seed: 5, requests: 2500, retention: 50},
		diffDrive{ratio: 0.125, seed: 6, requests: 2500, retention: 200})
	for _, pair := range diffPairs() {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for _, d := range drives {
				runDifferential(t, pair, d)
			}
		})
	}
}

// TestIndexedMatchesScanWarm pre-loads clips via Warm, which skips the miss
// and admission path entirely; indexed and scan twins must still agree on
// every later victim.
func TestIndexedMatchesScanWarm(t *testing.T) {
	warm := []media.ClipID{2, 4, 6, 8, 10, 12}
	for _, pair := range diffPairs() {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			runDifferential(t, pair, diffDrive{ratio: 0.05, seed: 17, requests: 2000, warm: warm})
		})
	}
}
