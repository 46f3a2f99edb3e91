package main

// loop.go is the closed-loop driver every workload shares: each caller
// issues its next step only after the previous one returned, no step
// sleeps, and the clock is read once every `stride` steps.
//
// The sizing host is a shared VM that runs up to a quarter slower for five
// to ten seconds at a time, so a twenty-second phase sees a handful of host
// regimes and its mean, or its median window, repeats no better than ±15 %.
// So a phase is cut into half-second windows, every metric is computed per
// window, and a run reports the decile of its windows that the host's
// interference moves least: the 90th percentile of the rates, the 10th
// percentile of the times. Over ten-seed sets that estimator repeated
// better than the mean, the median, the quartile and the best window. A
// slowdown of the program itself moves every window, and so the decile.

import (
	"slices"
	"sync"
	"time"
)

const maxWindow = 500 * time.Millisecond

// window is one slice of a measured phase.
type window struct {
	Rate float64 // items per second
	P50  float64 // of the window's latency samples, ns
	P99  float64
	CPU  float64 // CPU-seconds of the program under test per item
}

// stepFunc performs step i of one caller and returns how many items it
// completed (1 for a single call, the batch size for a batch).
type stepFunc func(caller, i int) (items int, err error)

type loopResult struct {
	Windows  []window
	Lat      []int64       // every latency sample, ns, sorted
	Issued   int64         // items issued, including the tail past the deadline
	Failed   int64         // steps that returned an error
	FirstErr error         // the first of them, or a failed CPU reading
	Elapsed  time.Duration // wall time until the last caller stopped
}

// closedLoop runs n callers for d. A caller reads the clock once every
// stride steps; a latency sample is the time since its previous reading
// divided by the items completed in between — one request when stride is 1,
// the mean over the stretch otherwise, so a 300 ns call is not timed by two
// 45 ns clock readings. Window accounting happens at the same points. pid, when not 0, is the process whose CPU
// time is read at every window boundary (by a goroutine of its own, which
// sleeps between boundaries; the callers never do).
func closedLoop(n int, d time.Duration, stride, pid int, step stepFunc) loopResult {
	winLen := min(maxWindow, d/4)
	nWin := int(d / winLen)
	type callerState struct {
		items  []int64 // per window
		mark   []int   // mark[w] is len(lat) when window w began
		lat    []int64
		issued int64
		failed int64
		err    error
		_      [64]byte // keep callers' counters off each other's cache lines
	}
	states := make([]callerState, n)
	for c := range states {
		states[c] = callerState{items: make([]int64, nWin), mark: make([]int, nWin+1), lat: make([]int64, 0, 1<<18)}
	}
	cpuAt := make([]float64, nWin+1)
	var cpuErr error
	var wg sync.WaitGroup
	start := time.Now()
	if pid != 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range cpuAt {
				time.Sleep(time.Until(start.Add(time.Duration(w) * winLen)))
				var err error
				if cpuAt[w], err = procCPU(pid); err != nil && cpuErr == nil {
					cpuErr = err
				}
			}
		}()
	}
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &states[c]
			note := func(items int, err error) int64 {
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
				}
				return int64(items)
			}
			var pending int64 // items since the last clock reading
			last := start
			cur := 0
			for i := 0; ; i++ {
				if i%stride != 0 {
					pending += note(step(c, i))
					continue
				}
				now := time.Now()
				w := int(now.Sub(start) / winLen)
				st.issued += pending
				for cur < min(w, nWin) {
					cur++
					st.mark[cur] = len(st.lat)
				}
				if w >= nWin {
					return
				}
				if pending > 0 {
					st.items[w] += pending
					st.lat = append(st.lat, int64(now.Sub(last))/pending)
				}
				last = now
				pending = note(step(c, i))
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{Elapsed: time.Since(start), FirstErr: cpuErr}
	var lat []int64
	for w := 0; w < nWin; w++ {
		var items int64
		lat = lat[:0]
		for c := range states {
			items += states[c].items[w]
			lat = append(lat, states[c].lat[states[c].mark[w]:states[c].mark[w+1]]...)
		}
		if items == 0 || len(lat) == 0 {
			continue // a window no timed step fell into carries no information
		}
		slices.Sort(lat)
		res.Lat = append(res.Lat, lat...)
		res.Windows = append(res.Windows, window{
			Rate: float64(items) / winLen.Seconds(),
			P50:  quantile(lat, 0.50), P99: quantile(lat, 0.99),
			CPU: (cpuAt[w+1] - cpuAt[w]) / float64(items),
		})
	}
	slices.Sort(res.Lat)
	for c := range states {
		res.Issued += states[c].issued
		res.Failed += states[c].failed
		if res.FirstErr == nil {
			res.FirstErr = states[c].err
		}
	}
	return res
}

// fixedLoop runs n callers for exactly steps steps each (warm-up) and
// returns how many steps failed and the first error.
func fixedLoop(n, steps int, step stepFunc) (int64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failed   int64
		firstErr error
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var bad int64
			var first error
			for i := 0; i < steps; i++ {
				if _, err := step(c, i); err != nil {
					bad++
					if first == nil {
						first = err
					}
				}
			}
			mu.Lock()
			failed += bad
			if firstErr == nil {
				firstErr = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return failed, firstErr
}

// summary is a phase reduced to the numbers a run reports.
type summary struct {
	Throughput float64 // items per second: 90th percentile of the windows
	P50, P99   float64 // ns: 10th percentile of the windows' percentiles
	CPU        float64 // CPU-seconds per item: 10th percentile of the windows
}

func summarize(ws []window) summary {
	col := func(f func(window) float64) []float64 {
		v := make([]float64, len(ws))
		for i, w := range ws {
			v[i] = f(w)
		}
		return v
	}
	return summary{
		Throughput: percentile(col(func(w window) float64 { return w.Rate }), 0.90),
		P50:        percentile(col(func(w window) float64 { return w.P50 }), 0.10),
		P99:        percentile(col(func(w window) float64 { return w.P99 }), 0.10),
		CPU:        percentile(col(func(w window) float64 { return w.CPU }), 0.10),
	}
}

// percentile returns the q-quantile of v, interpolating between ranks.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	at := q * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

// quantile returns the q-quantile of sorted by the nearest-rank method.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// exclusive method), which is how the bounds' spreads are defined too.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}
