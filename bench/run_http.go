package main

// run_http.go runs the two loopback workloads: cmd/cacheserver is built
// from the checkout, spawned as a child, and driven over one keep-alive
// connection per caller. CPU and peak RSS are the server's, not the
// harness's.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cacheclient"
	"mediacache/internal/media"
	"mediacache/internal/workload"
)

const (
	httpStreamLen = 1 << 17 // events per caller
	httpWarmSteps = 5000    // per caller: 10 000 warm-up requests in all
	httpSetupReps = 3       // setup_s is the median of this many full set-ups
	// ceilingFactor is how far above a workload's throughput the same
	// driver must get against a no-op server before the number is taken to
	// be the program's and not the harness's.
	ceilingFactor = 2
)

// serverArgs are the cacheserver flags of an HTTP workload.
func serverArgs(workloadName, reqlogPath string) []string {
	nShards := strconv.Itoa(shards)
	if workloadName == "http-range-churn" {
		return []string{"-policy", "greedydual", "-ratio", fmt.Sprint(cacheRatio), "-shards", nShards,
			"-segment", strconv.FormatInt(int64(segmentSize), 10), "-prefix", strconv.Itoa(prefixSegments),
			"-ttl", strconv.Itoa(ttlTicks), "-reqlog", reqlogPath}
	}
	return []string{"-policy", "dynsimple:2", "-ratio", fmt.Sprint(cacheRatio), "-shards", nShards}
}

// httpCaller is one device: its own connection, client and stream.
type httpCaller struct {
	client   *cacheclient.Client
	http     *http.Client
	base     string
	id       string
	events   []workload.Request
	pos      int
	requests int64 // GETs issued (DELETEs are not cache requests)
	_        [64]byte
}

// newHTTPCaller builds caller i against base. rt, when non-nil, wraps the
// transport (the traced pass's round-trip span).
func newHTTPCaller(base string, seed uint64, i int, events []workload.Request, rt func(http.RoundTripper) http.RoundTripper) (*httpCaller, error) {
	var transport http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if rt != nil {
		transport = rt(transport)
	}
	hc := &http.Client{Transport: transport}
	id := fmt.Sprintf("bench-%d", i)
	client, err := cacheclient.New(cacheclient.Config{BaseURL: base, HTTPClient: hc, Seed: callerSeed(seed, i), ClientID: id})
	if err != nil {
		return nil, err
	}
	return &httpCaller{client: client, http: hc, base: base, id: id, events: events}, nil
}

func (c *httpCaller) close() { c.http.CloseIdleConnections() }

// do issues one event: a perish is a Client.Delete, a ranged request a raw
// Range GET on the same connection, anything else a Client.Clip.
func (c *httpCaller) do(ctx context.Context, ev workload.Request) (hit bool, err error) {
	switch {
	case ev.Kind == workload.EventPerish:
		return false, c.client.Delete(ctx, ev.Clip)
	case ev.Ranged:
		c.requests++
		return c.rangeGet(ctx, ev)
	default:
		c.requests++
		res, err := c.client.Clip(ctx, ev.Clip)
		return res.Hit, err
	}
}

// rangeGet is the device pressing play mid-clip: cacheclient has no ranged
// call, so this is net/http on the caller's own connection.
func (c *httpCaller) rangeGet(ctx context.Context, ev workload.Request) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/clips/%d", c.base, ev.Clip), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", ev.Start, ev.Start+ev.Length-1))
	req.Header.Set(api.ClientIDHeader, c.id)
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return false, fmt.Errorf("range GET clip %d: status %d: %s", ev.Clip, resp.StatusCode, body)
	}
	return resp.StatusCode == http.StatusOK, nil
}

// step is the closed loop's step: the caller's next event.
func (c *httpCaller) step(ctx context.Context) (int, error) {
	ev := c.events[c.pos&(len(c.events)-1)]
	c.pos++
	_, err := c.do(ctx, ev)
	return 1, err
}

// noopCeiling drives an in-process server whose handler only writes a JSON
// body the size of a clip reply, with the same callers and connections as
// a workload: what the driver and the loopback can do with no program
// under test behind them.
func noopCeiling(d time.Duration) (loopResult, error) {
	body := []byte(`{"clip":2,"kind":"audio","sizeBytes":9227468,"outcome":"miss-cached","hit":false,"latencySeconds":0.5}` + "\n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/clips/{id}", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	addr, err := freeAddr()
	if err != nil {
		return loopResult{}, err
	}
	srv := &http.Server{Addr: addr, Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	defer func() {
		srv.Close()
		<-served
	}()
	cs := make([]*httpCaller, callers)
	for i := range cs {
		events := []workload.Request{{Clip: 2}}
		if cs[i], err = newHTTPCaller("http://"+addr, 1, i, events, nil); err != nil {
			return loopResult{}, err
		}
		defer cs[i].close()
	}
	ctx := context.Background()
	// cacheclient retries a refused connection, which covers the moment
	// before ListenAndServe has bound.
	if failed, err := fixedLoop(callers, 50, func(c, _ int) (int, error) { return cs[c].step(ctx) }); failed > 0 {
		return loopResult{}, fmt.Errorf("no-op server warm-up: %w", err)
	}
	return closedLoop(callers, d, 1, 0, func(c, _ int) (int, error) { return cs[c].step(ctx) }), nil
}

// runHTTP measures one loopback workload.
func runHTTP(o options) (*runResult, error) {
	ctx := context.Background()
	repo := media.PaperRepository()
	bin, _, err := buildServer(ctx, o.root, o.buildDir())
	if err != nil {
		return nil, err
	}
	ceiling, err := noopCeiling(o.duration() / 20)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(o.outDir(), fmt.Sprintf("%s-%d", o.workload, o.seed))
	reqlog := tmp + ".reqlog"
	defer os.Remove(reqlog)
	defer os.Remove(tmp + ".server.log")

	// One set-up: streams drawn → process start → healthy → warm.
	var (
		srv *server
		cs  []*httpCaller
	)
	teardown := func() {
		for _, c := range cs {
			c.close()
		}
		if srv != nil {
			srv.stop()
		}
		srv, cs = nil, nil
	}
	defer teardown()
	step := func(c, _ int) (int, error) { return cs[c].step(ctx) }
	setup := func() error {
		streams, err := callerStreams(o.workload == "http-range-churn", repo, o.seed, callers, httpStreamLen)
		if err != nil {
			return err
		}
		os.Remove(reqlog) // the server appends to it
		if srv, err = startServer(ctx, bin, tmp+".server.log", serverArgs(o.workload, reqlog)...); err != nil {
			return err
		}
		for i := range streams {
			c, err := newHTTPCaller(srv.URL, o.seed, i, streams[i], nil)
			if err != nil {
				return err
			}
			cs = append(cs, c)
		}
		if failed, err := fixedLoop(callers, o.scale(httpWarmSteps), step); failed > 0 {
			return fmt.Errorf("warm-up: %d steps failed, first: %w", failed, err)
		}
		return nil
	}
	var setups []float64
	for rep := 0; rep < httpSetupReps; rep++ {
		teardown()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	loop := closedLoop(callers, o.duration(), 1, srv.pid(), step)
	alive := srv.alive()
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return nil, fmt.Errorf("server gone after the measured phase: %w", err)
	}
	stats, err := cs[0].client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	healthErr := cs[0].client.Healthz(ctx)

	res := newRunResult(o, loop, median(setups), rss, stats.HitRate)
	throughput, noopRPS := summarize(loop.Windows).Throughput, summarize(ceiling.Windows).Throughput
	res.note("byte_hit_rate %.6f; server start %.1f ms; no-op ceiling %.0f req/s", stats.ByteHitRate, srv.StartMS, noopRPS)
	var requests int64
	for _, c := range cs {
		requests += c.requests
	}
	res.Checks = append(res.Checks,
		check{"server alive after the measured phase", alive, fmt.Sprint(alive)},
		check{"/v1/healthz", healthErr == nil, fmt.Sprint(healthErr)},
		check{"used <= capacity", stats.UsedBytes <= stats.CapacityBytes, fmt.Sprintf("%d vs %d", stats.UsedBytes, stats.CapacityBytes)},
		check{"server requests == GETs issued", stats.Requests == uint64(requests), fmt.Sprintf("%d vs %d", stats.Requests, requests)},
		check{fmt.Sprintf("valid: no-op ceiling >= %dx throughput", ceilingFactor),
			noopRPS >= ceilingFactor*throughput, fmt.Sprintf("%.0f vs %.0f", noopRPS, throughput)},
	)
	return res, nil
}
