package conformance

import (
	"slices"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/fiverule"
	"mediacache/internal/history"
	"mediacache/internal/media"
	_ "mediacache/internal/policy/all"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/igd"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/lrusk"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
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

func sizeCost(c media.Clip) float64 { return float64(c.Size) }

// registryOracles gives, for every registered policy name, the oracle of
// the technique the registry builds under it with the default K and seed 42.
var registryOracles = map[string]func(n int) *oracle{
	"greedydual": func(int) *oracle { return newOracle(techGreedyDual, 0, 42) },
	"gdfreq":     func(int) *oracle { return newOracle(techGDFreq, 0, 42) },
	"gdsp": func(int) *oracle {
		o := newOracle(techGDSP, 0, 42)
		o.cost, o.beta = sizeCost, 1
		return o
	},
	"igd":    func(int) *oracle { return newOracle(techIGD, 2, 42) },
	"lfu":    func(int) *oracle { return newOracle(techLFU, 0, 42) },
	"lfu-da": func(int) *oracle { o := newOracle(techLFU, 0, 42); o.aging = true; return o },
	"lru":    func(int) *oracle { return newOracle(techLRUK, 1, 42) },
	"lruk":   func(int) *oracle { return newOracle(techLRUK, 2, 42) },
	"lrusk":  func(int) *oracle { return newOracle(techLRUSK, 2, 42) },
	// lrusk-tree is lrusk under the name of the Section 5 tree variant.
	"lrusk-tree": func(int) *oracle { return newOracle(techLRUSK, 2, 42) },
	"random":     func(int) *oracle { return newOracle(techRandom, 0, 42) },
	"simple":     func(n int) *oracle { o := newOracle(techSimple, 0, 42); o.freq = syntheticFreq(n); return o },
	"simple-variant": func(n int) *oracle {
		o := newOracle(techSimple, 0, 42)
		o.freq, o.colder = syntheticFreq(n), true
		return o
	},
	"dynsimple": func(int) *oracle { o := newOracle(techDYNSimple, 2, 42); o.refine = true; return o },
}

// diffPair is a policy under test and the oracle of its technique.
type diffPair struct {
	name   string
	policy func(repo *media.Repository) core.Policy
	oracle func(n int) *oracle
}

// diffPairs returns every registered policy, then the variants the registry
// does not name: other history depths, a size cost, no refinement, frozen
// aging.
func diffPairs(t *testing.T) []diffPair {
	var pairs []diffPair
	for _, name := range registry.Names() {
		ref, ok := registryOracles[name]
		if !ok {
			t.Fatalf("registered policy %q has no oracle", name)
		}
		pairs = append(pairs, diffPair{name, func(repo *media.Repository) core.Policy {
			p, err := registry.Build(name, repo, syntheticFreq(repo.N()), 42)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, ref})
	}
	depth := func(tech technique, k int) func(int) *oracle {
		return func(int) *oracle { o := newOracle(tech, k, 42); o.refine = tech == techDYNSimple; return o }
	}
	return append(pairs,
		diffPair{"greedydual-sizecost",
			func(*media.Repository) core.Policy { return greedydual.New(greedydual.SizeCost, 42) },
			func(int) *oracle { o := newOracle(techGreedyDual, 0, 42); o.cost = sizeCost; return o }},
		diffPair{"lruk-k1", func(r *media.Repository) core.Policy { return lruk.MustNew(r.N(), 1) }, depth(techLRUK, 1)},
		diffPair{"lruk-k3", func(r *media.Repository) core.Policy { return lruk.MustNew(r.N(), 3) }, depth(techLRUK, 3)},
		diffPair{"lrusk-k1", func(r *media.Repository) core.Policy { return lrusk.MustNew(r.N(), 1) }, depth(techLRUSK, 1)},
		diffPair{"lrusk-k3", func(r *media.Repository) core.Policy { return lrusk.MustNew(r.N(), 3) }, depth(techLRUSK, 3)},
		diffPair{"dynsimple-k1", func(r *media.Repository) core.Policy { return dynsimple.MustNew(r.N(), 1) }, depth(techDYNSimple, 1)},
		// K=32 is what Figures 5b/6a sweep: 198 classes on the paper repository.
		diffPair{"dynsimple-k32", func(r *media.Repository) core.Policy { return dynsimple.MustNew(r.N(), 32) }, depth(techDYNSimple, 32)},
		diffPair{"dynsimple-no-refine",
			func(r *media.Repository) core.Policy {
				return dynsimple.MustNew(r.N(), 2, dynsimple.WithoutRefinement())
			},
			func(int) *oracle { return newOracle(techDYNSimple, 2, 42) }},
		diffPair{"igd-frozen",
			func(r *media.Repository) core.Policy { return igd.MustNew(r.N(), 2, 42, igd.FrozenAging()) },
			func(int) *oracle { o := newOracle(techIGD, 2, 42); o.frozen = true; return o }},
	)
}

// diffDrive is one way of driving a policy and its oracle side by side.
type diffDrive struct {
	// small, when set, replaces the paper repository by a small one drawn
	// from seed: "random" sizes of 1–8 units, "pow2" sizes of 1, 2, 4 or 8
	// units (so 1/size is exact), or "dup" — eight clips of four sizes. A
	// quarter of it is cached, and half the requests fall on its first
	// quarter.
	small    string
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
	// exposes through Tracker, as sim.FiveRule does, and passes each forget
	// to the oracle. Policies without a tracker skip the drive.
	retention vtime.Duration
}

// smallRepository builds the small repository d names and its request
// stream.
func smallRepository(t *testing.T, d diffDrive) (*media.Repository, func() media.ClipID) {
	t.Helper()
	src := randutil.NewSource(d.seed).Split(d.small)
	var sizes []media.Bytes
	switch d.small {
	case "random":
		for range 12 + src.Intn(20) {
			sizes = append(sizes, media.Bytes(1+src.Intn(8))*256<<10)
		}
	case "pow2":
		for range 10 + src.Intn(24) {
			sizes = append(sizes, media.Bytes(256<<10)<<src.Intn(4))
		}
	case "dup":
		sizes = []media.Bytes{10, 10, 20, 20, 30, 30, 40, 40}
	default:
		t.Fatalf("unknown small repository %q", d.small)
	}
	clips := make([]media.Clip, len(sizes))
	for i, size := range sizes {
		clips[i] = media.Clip{ID: media.ClipID(i + 1), Kind: media.Video, Size: size, DisplayRate: 3_500_000}
	}
	repo, err := media.NewRepository(clips)
	if err != nil {
		t.Fatal(err)
	}
	n := repo.N()
	drive := src.Split("drive")
	return repo, func() media.ClipID {
		id := media.ClipID(1 + drive.Intn(n))
		if drive.Float64() < 0.5 {
			id = media.ClipID(1 + drive.Intn(1+n/4))
		}
		return id
	}
}

// runDifferential drives the policy and its oracle through one identical
// trace and requires identical outcomes on every request, identical victim
// sequences (in eviction order, trims included), and identical final
// resident sets and statistics.
func runDifferential(t *testing.T, pair diffPair, d diffDrive) {
	t.Helper()
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(d.ratio)
	var nexts [2]func() media.ClipID
	if d.small != "" {
		for i := range nexts {
			repo, nexts[i] = smallRepository(t, d)
		}
		capacity = repo.TotalSize() / 4
	}
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	policy, ref := pair.policy(repo), pair.oracle(repo.N())
	var (
		caches  [2]*core.Cache
		logs    [2]evictionLog
		tracker *history.Tracker
		pruner  *fiverule.Pruner
	)
	if d.retention > 0 {
		tracked, ok := policy.(interface{ Tracker() *history.Tracker })
		if !ok {
			return
		}
		tracker = tracked.Tracker()
		// A rule whose break-even interval is the retention.
		rule := fiverule.Rule{NetworkCostPerByte: float64(d.retention), MemoryCostPerBytePerTick: 1, AvgClipBytes: 16, MetadataBytes: 16}
		var err error
		if pruner, err = fiverule.NewPruner(rule, tracker, d.retention/2+1); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range []core.Policy{policy, ref} {
		opts := []core.Option{core.WithObserver(&logs[i])}
		if d.segmented {
			opts = append(opts, core.WithSegments(64*media.MB), core.WithPrefixAdmission(2))
		}
		c, err := core.New(repo, capacity, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c.Warm(d.warm)
		caches[i] = c
	}
	// next issues one request to cache i and returns its comparable result.
	var next func(i int) (any, error)
	switch {
	case d.small != "":
		next = func(i int) (any, error) { return caches[i].Request(nexts[i]()) }
	case d.segmented:
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
	default:
		gens := [2]*workload.Generator{workload.MustNewGenerator(dist, d.seed), workload.MustNewGenerator(dist, d.seed)}
		next = func(i int) (any, error) { return caches[i].Request(gens[i].Next()) }
	}
	for n := 0; n < d.requests; n++ {
		a, errA := next(0)
		b, errB := next(1)
		if errA != nil || errB != nil {
			t.Fatalf("%+v request %d: policy err=%v oracle err=%v", d, n, errA, errB)
		}
		if a != b {
			t.Fatalf("%+v request %d: outcome diverged policy=%+v oracle=%+v", d, n, a, b)
		}
		if pruner == nil {
			continue
		}
		dropped, err := pruner.Tick(caches[0].Now())
		if err != nil {
			t.Fatal(err)
		}
		if dropped > 0 {
			// Both saw the same references, so a clip the tracker holds no
			// history for while the oracle does was just forgotten.
			for id := media.ClipID(1); int(id) <= repo.N(); id++ {
				if tracker.Tracked(id) == 0 && len(ref.rec(id).refs) > 0 {
					ref.Forget(id)
				}
			}
		}
	}
	if len(logs[0].victims) != len(logs[1].victims) {
		t.Fatalf("%+v: victim counts diverge: policy=%d oracle=%d", d, len(logs[0].victims), len(logs[1].victims))
	}
	for i, v := range logs[0].victims {
		if v != logs[1].victims[i] {
			t.Fatalf("%+v: victim %d diverged: policy=%+v oracle=%+v", d, i, v, logs[1].victims[i])
		}
	}
	if !slices.Equal(core.CollectResidentIDs(caches[0]), core.CollectResidentIDs(caches[1])) {
		t.Fatalf("%+v: resident sets diverge", d)
	}
	if a, b := caches[0].Stats(), caches[1].Stats(); a != b {
		t.Fatalf("%+v: stats diverge:\npolicy %+v\noracle %+v", d, a, b)
	}
	// A drive is vacuous if the victim order was never consulted: no victim,
	// and no admission declined for want of a colder resident (Simple's
	// no-cache-colder variant, which can settle on a small repository).
	if logs[0].victims == nil && caches[0].Stats().Bypassed == 0 {
		t.Fatalf("%+v: trace produced no evictions; differential check vacuous", d)
	}
	if pruner != nil && pruner.Dropped() == 0 {
		t.Fatalf("%+v: pruner never forgot a history; pruned drive vacuous", d)
	}
}

// TestIndexedMatchesScan is the correctness proof for every replacement
// technique: on randomized traces each registered policy, and each variant,
// must produce the victim sequence of its oracle's linear scan — on whole
// clips, on a segmented cache whose trimmed victims stay resident, with the
// reference history pruned underneath the policy, and on small repositories
// whose sizes make ties common.
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
	for seed := uint64(1); seed <= 4; seed++ {
		drives = append(drives,
			diffDrive{small: "random", seed: seed, requests: 600},
			diffDrive{small: "pow2", seed: seed, requests: 600},
			diffDrive{small: "dup", seed: seed, requests: 600})
	}
	for _, pair := range diffPairs(t) {
		t.Run(pair.name, func(t *testing.T) {
			for _, d := range drives {
				runDifferential(t, pair, d)
			}
		})
	}
}

// TestIndexedMatchesScanWarm pre-loads clips via Warm, which skips the miss
// and admission path entirely; every policy and its oracle must still agree
// on every later victim.
func TestIndexedMatchesScanWarm(t *testing.T) {
	warm := []media.ClipID{2, 4, 6, 8, 10, 12}
	for _, pair := range diffPairs(t) {
		t.Run(pair.name, func(t *testing.T) {
			runDifferential(t, pair, diffDrive{ratio: 0.05, seed: 17, requests: 2000, warm: warm})
		})
	}
}
