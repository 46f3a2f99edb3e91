package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is generated from the tables in metrics.go; a hand edit of
// either side fails here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

// The limits the benchmark contract puts on the manifest.
func TestManifestLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", d.Name)
		}
	}
	if b, _ := manifest(); len(b) > 64<<10 {
		t.Errorf("manifest is %d bytes, want at most 64 KiB", len(b))
	}
}

// A hand-built trace: a request with two children that overlap each other
// and a grandchild, plus a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // 20 past the parent's end
		{Name: "next", Start: 200, End: 230, Parent: -1},
	}
	// request: 100 − |[10,60] ∪ [90,100]| = 100 − 60; a: 30 − 10.
	want := []int64{40, 20, 10, 30, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(4)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	root := tr.begin("root")
	tr.end(root)
	for i, want := range []int32{-1, outer, outer, -1} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("parent of %s = %d, want %d", tr.spans[i].Name, got, want)
		}
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	wide := []float64{60, 100, 140, 80, 120}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"slower than the bound", lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegression},
		{"higher is better: a drop", higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegression},
		{"higher is better: a gain", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"spread wider than the bound", lower, wide, steady, verdictUnresolved},
		{"wide, but every run is better", lower, wide, []float64{50, 51, 49, 50, 50}, verdictOK},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higher, steady, []float64{80, 80, 80}); math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("worse = %v, want 0.2", worse)
	}
}

// Every workload runs end to end at a tenth of the fixed work and one-second
// phases, passes its own checks, and emits exactly the metrics of the table.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns cacheserver")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	emitsExactly := func(t *testing.T, r *runResult, defs []metricDef) {
		t.Helper()
		for _, c := range r.Checks {
			// The harness-ceiling check compares this (possibly race-
			// instrumented) process with an uninstrumented server over a
			// 50 ms phase; it is a property of full runs, not of this test.
			if !c.OK && !strings.HasPrefix(c.Name, "valid:") {
				t.Errorf("check failed: %s (%s)", c.Name, c.Detail)
			}
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("attempted=%d failed=%d", r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				t.Errorf("metric %s not emitted", d.Name)
			} else if v.Unit != d.Unit {
				t.Errorf("metric %s: unit %q, want %q", d.Name, v.Unit, d.Unit)
			} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("metric %s = %v", d.Name, v.Value)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := runOne(options{workload: w.Name, seed: 42, seconds: 1, quick: true, root: root})
			if err != nil {
				t.Fatal(err)
			}
			emitsExactly(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above zero", d.Name, r.Metrics[d.Name].Value)
				}
			}
		})
	}
	t.Run("ladder", func(t *testing.T) {
		r, err := runOne(options{workload: "sim-sweep", seed: 42, seconds: 1, quick: true, trace: true, root: root})
		if err != nil {
			t.Fatal(err)
		}
		emitsExactly(t, r, perLayer)
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "sim-sweep.trace.json")); err != nil {
			t.Errorf("trace file: %v", err)
		}
	})
	if _, err := runOne(options{workload: "no-such", root: root}); err == nil {
		t.Error("an unknown workload ran")
	}
}
