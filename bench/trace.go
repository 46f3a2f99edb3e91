package main

// trace.go is the traced pass's span recorder. Spans are opened and closed
// by the benchmark's own files around calls into each layer — the decorated
// core.Policy, the http.RoundTripper wrapper, the fetch callback — and kept
// in memory; a layer's self time is its span minus what its children cover.
// The recorder serves one caller: the traced pass is single-threaded by
// construction, so the open span is a stack, not a lookup.

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"time"
)

type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the tracer was made
	End     int64  `json:"end"`
	Parent  int32  `json:"parent"`  // index of the span that caused this one, -1 for a root
	Request int32  `json:"request"` // spans of one request share it
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	spans   []span
	open    int32 // innermost open span, -1 when none
	request int32
	epoch   time.Time
}

// newTracer preallocates room for n spans so recording allocates nothing
// in the timed region.
func newTracer(n int) *tracer {
	return &tracer{spans: make([]span, 0, n), open: -1, epoch: time.Now()}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Request: t.request, Start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.spans[id].Parent
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover (their union, clipped to the parent). Spans must
// be in start order with parents before children, as a tracer records them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans)) // end of the child cover so far
	for i, s := range spans {
		self[i] = s.dur()
		coveredTo[i] = s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		from := max(s.Start, coveredTo[s.Parent])
		to := min(s.End, p.End)
		if to > from {
			self[s.Parent] -= to - from
			coveredTo[s.Parent] = to
		}
	}
	return self
}

// pick returns the values (durations or self times, parallel to the spans)
// of the spans keep selects.
func (t *tracer) pick(values []int64, keep func(span) bool) []int64 {
	var out []int64
	for i, s := range t.spans {
		if keep(s) {
			out = append(out, values[i])
		}
	}
	return out
}

// durations is the values slice for pick over span durations.
func (t *tracer) durations() []int64 {
	d := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d[i] = s.dur()
	}
	return d
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}

// byOutcome selects the spans called name whose request did (or did not)
// hit; hit is indexed by the spans' Request.
func byOutcome(name string, hit []bool, want bool) func(span) bool {
	return func(s span) bool { return s.Name == name && hit[s.Request] == want }
}

// traceFileSpans caps what one rung writes: the numbers come from every
// span in memory, the file is for reading a few thousand requests.
const traceFileSpans = 2000

type traceRung struct {
	Rung       string `json:"rung"`
	SpansTotal int    `json:"spans_total"`
	Spans      []span `json:"spans"`
}

// writeTrace writes the rungs' spans to path when the pass has ended.
func writeTrace(path, workload string, seed uint64, rungs map[string]*tracer) error {
	out := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Rungs    []traceRung `json:"rungs"`
	}{Workload: workload, Seed: seed}
	for _, name := range slices.Sorted(maps.Keys(rungs)) {
		spans := rungs[name].spans
		out.Rungs = append(out.Rungs, traceRung{Rung: name, SpansTotal: len(spans), Spans: spans[:min(len(spans), traceFileSpans)]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
