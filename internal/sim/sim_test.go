package sim

import (
	"errors"
	"strings"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/simple"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

func testRepo(t *testing.T) *media.Repository {
	t.Helper()
	r, err := media.EquiRepository(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidation(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(20, 0.27), 1)
	cache, _ := NewCache("lru", repo, 50, nil, 1)
	sched := workload.Schedule{{Shift: 0, Requests: 10}}
	if _, err := Run("x", nil, gen, sched, RunConfig{}); err == nil {
		t.Error("nil requester should fail")
	}
	if _, err := Run("x", cache, nil, sched, RunConfig{}); err == nil {
		t.Error("nil generator should fail")
	}
	if _, err := Run("x", cache, gen, workload.Schedule{}, RunConfig{}); err == nil {
		t.Error("empty schedule should fail")
	}
}

func TestRunBasic(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(20, 0.27), 7)
	cache, err := NewCache("lruk:2", repo, 50, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run("LRU-2", cache, gen, workload.Schedule{{Shift: 0, Requests: 1000}}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Requests != 1000 {
		t.Fatalf("requests = %d", res.Stats.Requests)
	}
	if res.Stats.HitRate() <= 0 {
		t.Fatal("expected some hits on a Zipf workload")
	}
	if res.Theoretical <= 0 || res.Theoretical > 1 {
		t.Fatalf("theoretical = %v", res.Theoretical)
	}
}

func TestRunWindows(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(20, 0.27), 7)
	cache, _ := NewCache("lruk:2", repo, 50, nil, 7)
	res, err := Run("LRU-2", cache, gen,
		workload.Schedule{{Shift: 0, Requests: 500}}, RunConfig{WindowSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 5 {
		t.Fatalf("windows = %d, want 5", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.EndRequest != (i+1)*100 {
			t.Fatalf("window %d ends at %d", i, w.EndRequest)
		}
		if w.HitRate < 0 || w.HitRate > 1 {
			t.Fatalf("window hit rate %v", w.HitRate)
		}
	}
}

func TestRunPhaseHook(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(20, 0.27), 7)
	cache, _ := NewCache("lru", repo, 50, nil, 7)
	var phases []int
	cfg := RunConfig{OnPhaseStart: func(p workload.Phase, pmf []float64) {
		phases = append(phases, p.Shift)
		if len(pmf) != 20 {
			t.Errorf("pmf length %d", len(pmf))
		}
	}}
	sched := workload.Schedule{{Shift: 0, Requests: 50}, {Shift: 5, Requests: 50}}
	if _, err := Run("LRU", cache, gen, sched, cfg); err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0] != 0 || phases[1] != 5 {
		t.Fatalf("phases = %v", phases)
	}
}

func TestRunTrace(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(20, 0.27), 7)
	trace := workload.Record("t", gen, 200)
	cache, _ := NewCache("lru", repo, 50, nil, 7)
	res, err := RunTrace("LRU", cache, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Requests != 200 {
		t.Fatalf("requests = %d", res.Stats.Requests)
	}
	if _, err := RunTrace("x", nil, trace); err == nil {
		t.Error("nil requester should fail")
	}
	if _, err := RunTrace("x", cache, nil); err == nil {
		t.Error("nil trace should fail")
	}
	bad := &workload.Trace{Name: "bad", NumClips: 20, Requests: []media.ClipID{25}}
	if _, err := RunTrace("x", cache, bad); err == nil {
		t.Error("invalid trace should fail")
	}
}

func TestNewPolicySpecs(t *testing.T) {
	repo := testRepo(t)
	pmf := make([]float64, 20)
	for i := range pmf {
		pmf[i] = 0.05
	}
	wantNames := map[string]string{
		"simple":         "Simple",
		"simple-variant": "Simple(no-cache-colder)",
		"random":         "Random",
		"lru":            "LRU-1",
		"lruk:2":         "LRU-2",
		"lruk:8":         "LRU-8",
		"lrusk:2":        "LRU-S2",
		"dynsimple:2":    "DYNSimple(K=2)",
		"dynsimple:32":   "DYNSimple(K=32)",
		"greedydual":     "GreedyDual",
		"gdfreq":         "GreedyDual-Freq",
		"igd:2":          "IGD(K=2)",
	}
	for spec, want := range wantNames {
		p, err := NewPolicy(spec, repo, pmf, 1)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("%s: name %q, want %q", spec, p.Name(), want)
		}
	}
}

func TestNewPolicyErrors(t *testing.T) {
	repo := testRepo(t)
	for _, spec := range []string{"", "nope", "lruk:0", "lruk:x", "igd:-2"} {
		if _, err := NewPolicy(spec, repo, nil, 1); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
	if _, err := NewPolicy("simple", repo, nil, 1); err == nil {
		t.Error("simple without pmf should fail")
	}
	if _, err := NewPolicy("lru", nil, nil, 1); err == nil {
		t.Error("nil repo should fail")
	}
}

func TestNewCacheBindsVariant(t *testing.T) {
	repo := testRepo(t)
	pmf := make([]float64, 20)
	for i := range pmf {
		pmf[i] = 0.05
	}
	cache, err := NewCache("simple-variant", repo, 50, pmf, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := cache.Policy().(*simple.Variant)
	if !ok {
		t.Fatal("policy is not a Variant")
	}
	// A bound variant must consult the resident view; drive a request to be
	// sure nothing panics and admission logic runs.
	if _, err := cache.Request(1); err != nil {
		t.Fatal(err)
	}
	_ = v
}

func TestRunErrorPropagation(t *testing.T) {
	repo := testRepo(t)
	gen := workload.MustNewGenerator(zipf.MustNew(25, 0.27), 7) // 25 > repo size
	cache, _ := NewCache("lru", repo, 50, nil, 7)
	_, err := Run("x", cache, gen, workload.Schedule{{Shift: 0, Requests: 5000}}, RunConfig{})
	if err == nil {
		t.Fatal("expected unknown-clip error to propagate")
	}
	if !errors.Is(err, core.ErrUnknownClip) && !strings.Contains(err.Error(), "clip") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestByID(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("experiment %q not resolvable", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}
