package main

// suite.go is the two-sided tool around single runs: -suite runs every
// workload over several seeds into one file, and -compare judges one such
// file against another by the bounds of the end-to-end table.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*suiteResults `json:"workloads"`
}

type suiteResults struct {
	// Runs holds the end-to-end metrics of each untraced run, in seed order.
	Runs []map[string]metricValue `json:"runs"`
	// PerLayer holds the ladder of the one traced run, on the first seed.
	PerLayer map[string]metricValue `json:"per_layer"`
}

// runSuite is the one command that prints everything: each workload runs
// `runs` times untraced and once traced, each run in a child process of
// its own so CPU and peak RSS are per run.
func runSuite(o options, path string, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := suiteFile{Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*suiteResults{}}
	allCorrect := true
	for _, w := range workloads {
		sr := &suiteResults{}
		out.Workloads[w.Name] = sr
		for i := 0; i <= runs; i++ {
			child := o
			child.workload, child.seed, child.trace = w.Name, o.seed+uint64(i), false
			if i == runs {
				child.seed, child.trace = o.seed, true
			}
			r, err := runChild(exe, child)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			allCorrect = allCorrect && r.Correct
			if child.trace {
				sr.PerLayer = r.Metrics
			} else {
				sr.Runs = append(sr.Runs, r.Metrics)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !allCorrect {
		return errors.New("a run failed its checks (see above)")
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its result line.
// A child that fails its checks still prints the line, and exits non-zero.
func runChild(exe string, o options) (*runResult, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-root", o.root, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return &r, nil
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the change's runs b with the parent's runs a for one
// metric. worse is the share of the parent's median by which the change's
// median is worse (negative when it is better). A metric whose own spread
// exceeds its bound cannot carry a verdict either way — unless every run of
// the change reads better than every run of the parent.
func judge(d metricDef, a, b []float64) (worse float64, v verdict) {
	medA, medB := median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
	}
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	if max(spread(a), spread(b)) > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return worse, verdictOK
		}
		return worse, verdictUnresolved
	}
	if worse > d.Bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any metric is outside its bound.
func compareFiles(pathA, pathB string) int {
	a, errA := readSuite(pathA)
	b, errB := readSuite(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	values := func(f *suiteFile, workload, metric string) []float64 {
		var v []float64
		if w := f.Workloads[workload]; w != nil {
			for _, run := range w.Runs {
				if m, ok := run[metric]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v
	}
	code := 0
	fmt.Printf("%-17s %-15s %14s %14s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-17s %-15s missing from a file\n", w.Name, d.Name)
				code = 1
				continue
			}
			worse, v := judge(d, va, vb)
			if v == verdictRegression {
				code = 1
			}
			fmt.Printf("%-17s %-15s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	return code
}
