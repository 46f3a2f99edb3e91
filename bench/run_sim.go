package main

// run_sim.go runs the researcher's workload: the Figure 5.b and 6.a sweeps
// back to back, over and over until the phase ends. Each sweep is the same
// fixed work (the seed does not change between sweeps), so the sweep rates
// are samples of one quantity and the hit rate must repeat exactly.

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"time"

	"mediacache/internal/sim"
)

const (
	// simRequests is the per-cell request count, the paper's own (and
	// sim.DefaultRequests): one sweep pair is 60 cells, 600 000 simulated
	// requests, under a second — short enough that a phase holds many.
	simRequests     = 10000
	simWarmRequests = 1000
	simCheckPrefix  = 500
	simSetupReps    = 3
)

// sweepOnce runs both figures and returns them with the pair's totals.
func sweepOnce(opt sim.Options) (figs [2]*sim.Figure, total sim.Metrics, err error) {
	if figs[0], err = sim.Figure5b(opt); err != nil {
		return figs, total, err
	}
	if figs[1], err = sim.Figure6a(opt); err != nil {
		return figs, total, err
	}
	total = figs[0].TotalMetrics()
	total.Add(figs[1].TotalMetrics())
	return figs, total, nil
}

func runSim(o options) (*runResult, error) {
	opt := sim.Options{Seed: o.seed, Requests: o.scale(simRequests), Parallel: callers}

	// Set-up is a small sweep that pays the lazy costs (policy registry,
	// repository and distribution tables, worker start) before timing.
	var setups []float64
	for rep := 0; rep < simSetupReps; rep++ {
		start := time.Now()
		warm := opt
		warm.Requests = o.scale(simWarmRequests)
		if _, _, err := sweepOnce(warm); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Figures must not depend on the worker count.
	prefix := opt
	prefix.Requests = simCheckPrefix
	prefix.Parallel = 1
	seq, _, err := sweepOnce(prefix)
	if err != nil {
		return nil, err
	}
	prefix.Parallel = callers
	par, _, err := sweepOnce(prefix)
	if err != nil {
		return nil, err
	}
	sameFigures := reflect.DeepEqual(seq[0].Series, par[0].Series) && reflect.DeepEqual(seq[1].Series, par[1].Series)

	// The callers here are the sweep pool's workers, not closedLoop's. A
	// window is one sweep pair, an operation one simulated request, and a
	// latency sample one cell's wall time per simulated request — the
	// slowest cells set a sweep's time.
	self := os.Getpid()
	var (
		phase   loopResult
		first   sim.Metrics
		repeats = true
	)
	start := time.Now()
	for time.Since(start) < o.duration() {
		cpu0, err := procCPU(self)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		figs, total, err := sweepOnce(opt)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		cpu1, err := procCPU(self)
		if err != nil {
			return nil, err
		}
		var cells []int64
		for _, f := range figs {
			for _, c := range f.Cells {
				cells = append(cells, int64(c.Wall)/int64(max(c.Requests, 1)))
			}
		}
		slices.Sort(cells)
		phase.Lat = append(phase.Lat, cells...)
		phase.Issued += int64(total.Requests)
		phase.Windows = append(phase.Windows, window{
			Rate: float64(total.Requests) / wall.Seconds(),
			P50:  quantile(cells, 0.50), P99: quantile(cells, 0.99),
			CPU: (cpu1 - cpu0) / float64(total.Requests),
		})
		if len(phase.Windows) == 1 {
			first = total
		}
		repeats = repeats && total.Hits == first.Hits && total.Requests == first.Requests
	}
	phase.Elapsed = time.Since(start)
	rss, err := procPeakRSS(self)
	if err != nil {
		return nil, err
	}
	r := newRunResult(o, phase, median(setups), rss, float64(first.Hits)/float64(max(first.Requests, 1)))
	r.Checks = append(r.Checks,
		check{"figures identical at Parallel 1 and 2", sameFigures, fmt.Sprintf("%d-request prefix", simCheckPrefix)},
		check{"hit rate repeats exactly across sweeps", repeats, fmt.Sprintf("%d hits of %d", first.Hits, first.Requests)},
	)
	return r, nil
}
