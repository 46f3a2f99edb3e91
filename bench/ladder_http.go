package main

// ladder_http.go holds the loopback rungs of the traced pass: one caller
// against a default server (cacheclient → round trip → handler, the handler
// read from the server's own /v1/metrics) and against the everything-on
// server (Range GETs, DELETEs, the request log).

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/shard"
	"mediacache/internal/sim"
	"mediacache/internal/workload"
)

const (
	clipRoute    = `{route="GET /v1/clips/{id}"}`
	ladderWarm   = 2000 // untraced requests before a loopback rung's timed ops
	ladderProbes = 30   // calls of each control route
	ladderBatch  = 300  // POST /v1/batch calls of 8 items
)

// tracedTransport is the http.RoundTripper handed to
// cacheclient.Config.HTTPClient: the round trip is a child span of the
// client call.
type tracedTransport struct {
	next  http.RoundTripper
	tr    *tracer
	bytes int64 // Σ Content-Length of the replies
	calls int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("http.roundtrip")
	resp, err := t.next.RoundTrip(req)
	t.tr.end(id)
	if err == nil {
		t.bytes += resp.ContentLength
		t.calls++
	}
	return resp, err
}

// scrape reads a Prometheus text page into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Label values contain spaces ("GET /v1/..."), the sample value does not.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			series[line[:cut]] = v
		}
	}
	return series, sc.Err()
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// timeCalls returns the mean duration of n calls of f in µs.
func (l *ladder) timeCalls(n int, f func() error) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		l.count(f())
	}
	return float64(time.Since(start)) / float64(n) / 1e3
}

func (l *ladder) httpRungs() error {
	bin, buildTime, err := buildServer(context.Background(), l.o.root, l.o.buildDir())
	if err != nil {
		return err
	}
	l.set.set("harness.build_s", buildTime.Seconds())
	if err := l.httpClipRung(bin); err != nil {
		return err
	}
	return l.httpRangeRung(bin)
}

// httpClipRung is http-clip-zipf's stack under one caller.
func (l *ladder) httpClipRung(bin string) error {
	ctx := context.Background()
	n, warm := l.o.scale(ladderHTTPOps), l.o.scale(ladderWarm)
	tmp := filepath.Join(l.o.outDir(), "ladder-"+l.o.workload)
	srv, err := startServer(ctx, bin, tmp+".server.log", serverArgs("http-clip-zipf", "")...)
	if err != nil {
		return err
	}
	defer srv.stop()
	defer os.Remove(srv.LogPath)
	l.set.set("cacheserver.start_ms", srv.StartMS)

	// The stream must outlast warm-up plus the timed ops; it is a power of
	// two because callers cycle by masking.
	events, err := zipfStream(l.repo, callerSeed(l.o.seed, 0), httpStreamLen)
	if err != nil {
		return err
	}
	plain, err := newHTTPCaller(srv.URL, l.o.seed, 0, events, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	for i := 0; i < warm; i++ {
		_, err := plain.step(ctx)
		l.count(err)
	}
	_, allocs := plainPass(warm, func(int) {
		_, err := plain.step(ctx)
		l.count(err)
	})
	l.set.set("cacheclient.allocs_per_op", allocs)

	tr := newTracer(2 * n)
	l.rungs["http.clip"] = tr
	var tt *tracedTransport
	traced, err := newHTTPCaller(srv.URL, l.o.seed, 1, events, func(next http.RoundTripper) http.RoundTripper {
		tt = &tracedTransport{next: next, tr: tr}
		return tt
	})
	if err != nil {
		return err
	}
	defer traced.close()

	before, err := scrape(srv.URL + "/v1/metrics")
	if err != nil {
		return err
	}
	logBefore, err := fileSize(srv.LogPath)
	if err != nil {
		return err
	}
	hit := make([]bool, n)
	first := plain.pos
	for i := 0; i < n; i++ {
		tr.request = int32(i)
		s := tr.begin("cacheclient.clip")
		res, err := traced.client.Clip(ctx, events[first+i].Clip)
		tr.end(s)
		hit[i] = res.Hit
		l.count(err)
	}
	logAfter, err := fileSize(srv.LogPath)
	if err != nil {
		return err
	}
	after, err := scrape(srv.URL + "/v1/metrics")
	if err != nil {
		return err
	}

	dur := tr.durations()
	lat := tr.pick(dur, named("cacheclient.clip"))
	roundTripUS := mean(tr.pick(dur, named("http.roundtrip"))) / 1e3
	l.set.set("cacheclient.clip_us", mean(lat)/1e3)
	l.set.set("cacheclient.self_us", mean(tr.pick(selfTimes(tr.spans), named("cacheclient.clip")))/1e3)
	l.set.set("cacheclient.retries", float64(traced.client.Retries()))
	l.set.set("cacheclient.breaker_opens", float64(traced.client.BreakerOpens()))
	l.set.set("cacheserver.clip_hit_us", mean(tr.pick(dur, byOutcome("cacheclient.clip", hit, true)))/1e3)
	l.set.set("cacheserver.clip_miss_us", mean(tr.pick(dur, byOutcome("cacheclient.clip", hit, false)))/1e3)
	slices.Sort(lat)
	l.set.set("cacheserver.latency_p999_us", quantile(lat, 0.999)/1e3)

	const sum, count = "mediacache_http_request_seconds_sum" + clipRoute, "mediacache_http_request_seconds_count" + clipRoute
	handled := after[count] - before[count]
	handlerUS := (after[sum] - before[sum]) / max(handled, 1) * 1e6
	l.set.set("cacheserver.handler_us", handlerUS)
	l.set.set("cacheserver.transport_us", roundTripUS-handlerUS)
	l.set.set("cacheserver.response_bytes", float64(tt.bytes)/float64(max(tt.calls, 1)))
	l.set.set("cacheserver.log_bytes_per_req", float64(logAfter-logBefore)/float64(n))
	l.set.set("cacheserver.shed_share", after["mediacache_http_shed_total"]/max(after["mediacache_http_requests_total"], 1))
	l.checks = append(l.checks, check{"handler histogram counted the traced requests", handled == float64(n), fmt.Sprintf("%.0f vs %d", handled, n)})

	// cacheserver.self_us: the handler minus the pool on the same stream — a
	// pool built like the server's (no fetch hook, so fully under the lock).
	pool, err := shard.New(shard.Config{Policy: "dynsimple:2", Repo: l.repo, Capacity: l.cap, Seed: sim.DefaultSeed, Shards: shards})
	if err != nil {
		return err
	}
	for _, ev := range events[:first] {
		_, err := pool.Request(ev.Clip)
		l.count(err)
	}
	poolNs, _ := plainPass(n, func(i int) {
		_, err := pool.Request(events[first+i].Clip)
		l.count(err)
	})
	l.set.set("cacheserver.self_us", handlerUS-poolNs/1e3)

	items := make([]api.BatchItem, mixBatchSize)
	at := first + n
	l.set.set("cacheserver.batch8_us_per_item", l.timeCalls(l.o.scale(ladderBatch), func() error {
		for k := range items {
			items[k] = api.BatchItem{Clip: events[at&(len(events)-1)].Clip}
			at++
		}
		_, err := plain.client.Batch(ctx, items)
		return err
	})/mixBatchSize)
	l.set.set("cacheserver.stats_us", l.timeCalls(ladderProbes, func() error {
		_, err := plain.client.Stats(ctx)
		return err
	}))
	l.set.set("cacheserver.metrics_us", l.timeCalls(ladderProbes, func() error {
		_, err := scrape(srv.URL + "/v1/metrics")
		return err
	}))
	stats, err := plain.client.Stats(ctx)
	if err != nil {
		return err
	}
	l.set.set("cacheserver.byte_hit_rate", stats.ByteHitRate)
	l.checks = append(l.checks, check{"ladder server alive", srv.alive(), "http-clip rung"})
	return nil
}

// httpRangeRung is http-range-churn's stack under one caller: each event
// of the churn mix is one span named for what it is.
func (l *ladder) httpRangeRung(bin string) error {
	ctx := context.Background()
	n, warm := l.o.scale(ladderHTTPOps)/2, l.o.scale(ladderWarm)
	tmp := filepath.Join(l.o.outDir(), "ladder-"+l.o.workload)
	reqlog := tmp + ".reqlog"
	os.Remove(reqlog) // the server appends
	srv, err := startServer(ctx, bin, tmp+".server.log", serverArgs("http-range-churn", reqlog)...)
	if err != nil {
		return err
	}
	defer srv.stop()
	defer os.Remove(srv.LogPath)
	defer os.Remove(reqlog)

	caller, err := newHTTPCaller(srv.URL, l.o.seed, 0, l.churn, nil)
	if err != nil {
		return err
	}
	defer caller.close()
	for i := 0; i < warm; i++ {
		_, err := caller.do(ctx, l.churn[i%len(l.churn)])
		l.count(err)
	}
	tr := newTracer(n)
	l.rungs["http.range"] = tr
	for i := 0; i < n; i++ {
		ev := l.churn[(warm+i)%len(l.churn)]
		name := "cacheclient.clip"
		switch {
		case ev.Kind == workload.EventPerish:
			name = "cacheclient.delete"
		case ev.Ranged:
			name = "http.range_get"
		}
		tr.request = int32(i)
		s := tr.begin(name)
		_, err := caller.do(ctx, ev)
		tr.end(s)
		l.count(err)
	}
	dur := tr.durations()
	l.set.set("cacheserver.range_us", mean(tr.pick(dur, named("http.range_get")))/1e3)
	l.set.set("cacheserver.delete_us", mean(tr.pick(dur, named("cacheclient.delete")))/1e3)
	logged, err := fileSize(reqlog)
	if err != nil {
		return err
	}
	l.set.set("cacheserver.reqlog_bytes_per_req", float64(logged)/float64(max(caller.requests, 1)))
	stats, err := caller.client.Stats(ctx)
	if err != nil {
		return err
	}
	l.set.set("cacheserver.range_byte_hit_rate", stats.ByteHitRate)
	l.checks = append(l.checks,
		check{"ladder server alive", srv.alive(), "http-range rung"},
		check{"ladder server requests == GETs issued", stats.Requests == uint64(caller.requests), fmt.Sprintf("%d vs %d", stats.Requests, caller.requests)})
	return nil
}
