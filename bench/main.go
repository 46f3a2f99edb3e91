// Command bench is the repository's benchmark: five seeded workloads from
// the simulator to a loopback cacheserver, seven end-to-end metrics, and a
// per-layer ladder measured from outside the program. See README.md.
//
// One run measures one workload and prints one JSON object as its last line
// of standard output; everything a person reads goes to standard error.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench -suite out.json [-runs n] [-seed n]   every workload, n seeds each
//	bench -compare A.json B.json                judge B against A
//	bench -manifest                             print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	root     string // the checkout: cmd/cacheserver is built from here
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// scale shrinks a fixed op count for -quick runs (the tier of bench_test.go).
func (o options) scale(n int) int {
	if o.quick {
		return max(n/10, 1)
	}
	return n
}

func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }
func (o options) outDir() string   { return filepath.Join(o.root, "bench", "out") }

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runResult is one run. Its first four fields are the result line the
// driver reads; the rest is kept for -suite files and for people.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string   `json:"-"`
	Seed     uint64   `json:"-"`
	Checks   []check  `json:"-"`
	Notes    []string `json:"-"`
	set      *metricSet
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// newRunResult fills the seven end-to-end metrics from a measured phase.
func newRunResult(o options, phase loopResult, setupS, peakRSSMB, hitRate float64) *runResult {
	r := &runResult{Workload: o.workload, Seed: o.seed, Attempted: phase.Issued, Failed: phase.Failed, set: newMetricSet(endToEnd)}
	s := summarize(phase.Windows)
	r.set.set("setup_s", setupS)
	r.set.set("throughput_rps", s.Throughput)
	r.set.set("latency_p50_us", s.P50/1e3)
	r.set.set("latency_p99_us", s.P99/1e3)
	r.set.set("cpu_us_per_op", s.CPU*1e6)
	r.set.set("peak_rss_mb", peakRSSMB)
	r.set.set("hit_rate", hitRate)
	r.note("%d windows over %.2fs, %d latency samples", len(phase.Windows), phase.Elapsed.Seconds(), len(phase.Lat))
	// The windows behind the quartiles, for whoever doubts a number.
	if b, err := json.Marshal(phase.Windows); err == nil {
		_ = os.WriteFile(filepath.Join(o.outDir(), fmt.Sprintf("%s-%d.windows.json", o.workload, o.seed)), b, 0o644)
	}
	r.Checks = append(r.Checks, check{"no operation failed", phase.Failed == 0 && phase.FirstErr == nil,
		fmt.Sprintf("%d failed, first: %v", phase.Failed, phase.FirstErr)})
	return r
}

// finish settles Correct: every check passed and every metric of the table
// was emitted exactly once.
func (r *runResult) finish() {
	for _, msg := range r.set.complete() {
		r.Checks = append(r.Checks, check{Name: msg})
	}
	r.Metrics = r.set.values
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// report prints the run for a person.
func (r *runResult) report(defs []metricDef) {
	fmt.Fprintf(os.Stderr, "== %s seed %d\n", r.Workload, r.Seed)
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "  %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
}

// runOne dispatches one run of one workload.
func runOne(o options) (*runResult, error) {
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return nil, err
	}
	var (
		r   *runResult
		err error
	)
	switch {
	case !knownWorkload(o.workload):
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	case o.trace:
		r, err = runLadder(o)
	case o.workload == "sim-sweep":
		r, err = runSim(o)
	case o.workload == "pool-clip-zipf", o.workload == "pool-range-churn":
		r, err = runPool(o)
	default:
		r, err = runHTTP(o)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// findRoot locates the checkout when -root is not given: the working
// directory is either the checkout or bench/ inside it.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cacheserver", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the checkout (no cmd/cacheserver here or one level up); pass -root")
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (see -manifest)")
	fs.Uint64Var(&o.seed, "seed", 42, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ladder")
	fs.BoolVar(&o.quick, "quick", false, "tenth-size fixed work, for tests")
	fs.StringVar(&o.root, "root", "", "the checkout (default: found from the working directory)")
	suite := fs.String("suite", "", "run every workload and write the results to this file")
	runs := fs.Int("runs", 1, "with -suite: untraced runs per workload, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two -suite files given as arguments")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	o.trace = *traceFlag != 0

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}

	if o.root == "" {
		var err error
		if o.root, err = findRoot(); err != nil {
			return fail(err)
		}
	}
	if *suite != "" {
		if err := runSuite(o, *suite, *runs); err != nil {
			return fail(err)
		}
		return 0
	}
	r, err := runOne(o)
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r.report(defs)
	line, err := json.Marshal(r)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}
