package main

// streams.go generates the inputs. Every event comes from a
// workload.Source and is drawn before any timed phase starts, so the
// program under test receives only the inputs; a caller cycles through its
// stream when a phase outlasts it.

import (
	"fmt"

	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

const (
	churnRate   = 0.02
	churnLife   = 5000
	rangedShare = 0.85 // of the churn mix's request events
)

// callerSeed is the stream of caller i, split from the run's seed.
func callerSeed(seed uint64, i int) uint64 {
	return randutil.NewSource(seed).Split(fmt.Sprintf("caller-%d", i)).Uint64()
}

// callerStreams draws one stream of length events per caller: the churn mix
// when ranged, whole-clip Zipf references otherwise.
func callerStreams(ranged bool, repo *media.Repository, seed uint64, callers, length int) ([][]workload.Request, error) {
	draw := zipfStream
	if ranged {
		draw = rangeChurnStream
	}
	streams := make([][]workload.Request, callers)
	for i := range streams {
		var err error
		if streams[i], err = draw(repo, callerSeed(seed, i), length); err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// zipfStream draws n whole-clip references, Zipf(θ = zipf.DefaultMean)
// over repo.
func zipfStream(repo *media.Repository, seed uint64, n int) ([]workload.Request, error) {
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(dist, seed)
	if err != nil {
		return nil, err
	}
	return workload.Take(make([]workload.Request, 0, n), gen.Source(), n), nil
}

// rangeChurnStream draws n events of the churn mix: the churn source
// decides which clip is referenced or perishes; a request event becomes a
// byte range with probability rangedShare, shaped by the next draw of a
// RangeGenerator under workload.DefaultRangeConfig() and scaled onto the
// referenced clip. Publish markers are catalog bookkeeping no cache sees
// and are dropped.
func rangeChurnStream(repo *media.Repository, seed uint64, n int) ([]workload.Request, error) {
	churn, err := workload.NewChurn(repo.N(), zipf.DefaultMean,
		workload.ChurnSpec{Rate: churnRate, Life: churnLife, Horizon: n}, seed)
	if err != nil {
		return nil, err
	}
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	if err != nil {
		return nil, err
	}
	shapes, err := workload.NewRangeGenerator(repo, dist, seed, workload.DefaultRangeConfig())
	if err != nil {
		return nil, err
	}
	coin := randutil.NewSource(seed).Split("ranged")
	src := churn.Source()
	events := make([]workload.Request, 0, n)
	for len(events) < n {
		ev, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("churn source ended after %d of %d events", len(events), n)
		}
		switch ev.Kind {
		case workload.EventPublish:
			continue
		case workload.EventRequest:
			if coin.Float64() < rangedShare {
				ev = scaleRange(repo, shapes.Next(), ev.Clip)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// scaleRange maps the shape of rr (start and length as fractions of its own
// clip) onto clip id.
func scaleRange(repo *media.Repository, rr workload.RangeRequest, id media.ClipID) workload.Request {
	from, to := float64(repo.Clip(rr.Clip).Size), repo.Clip(id).Size
	start := media.Bytes(float64(rr.Start) / from * float64(to))
	if start >= to {
		start = to - 1
	}
	length := media.Bytes(float64(rr.Length) / from * float64(to))
	if length < 1 {
		length = 1
	}
	if length > to-start {
		length = to - start
	}
	return workload.Request{Clip: id, Ranged: true, Start: start, Length: length}
}
