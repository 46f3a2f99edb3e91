package core

import (
	"errors"
	"fmt"
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// eventRecorder captures the engine event stream for ordering assertions.
type eventRecorder struct {
	events []Event
}

func (r *eventRecorder) Observe(ev Event) { r.events = append(r.events, ev) }

func (r *eventRecorder) count(t EventType) int {
	n := 0
	for _, ev := range r.events {
		if ev.Type == t {
			n++
		}
	}
	return n
}

// checkIdentities asserts the PR 4 counting identities on a stats copy.
func checkIdentities(t *testing.T, s Stats) {
	t.Helper()
	if s.BytesHit+s.BytesFetched+s.BytesFailed != s.BytesReferenced {
		t.Errorf("byte identity broken: hit %v + fetched %v + failed %v != referenced %v",
			s.BytesHit, s.BytesFetched, s.BytesFailed, s.BytesReferenced)
	}
	if s.Requests != s.Hits+s.Bypassed+s.FetchFailed+(s.Requests-s.Hits-s.Bypassed-s.FetchFailed) {
		t.Errorf("outcome identity broken: %+v", s)
	}
}

func TestSegmentedOptionValidation(t *testing.T) {
	repo := smallRepo(t)
	if _, err := New(repo, 50, &fifoPolicy{}, WithSegments(0)); err == nil {
		t.Error("zero segment size should fail")
	}
	if _, err := New(repo, 50, &fifoPolicy{}, WithPrefixAdmission(1)); err == nil {
		t.Error("WithPrefixAdmission without WithSegments should fail")
	}
	if _, err := New(repo, 50, &fifoPolicy{}, WithSegments(10), WithPrefixAdmission(0)); err == nil {
		t.Error("zero prefix count should fail")
	}
	if _, err := New(repo, 50, &fifoPolicy{},
		WithSegmentFetch(func(media.Clip, int32, vtime.Time) error { return nil })); err == nil {
		t.Error("WithSegmentFetch without WithSegments should fail")
	}
	if _, err := New(repo, 50, &fifoPolicy{}, WithSegments(10), WithSegmentFetch(nil)); err == nil {
		t.Error("nil segment fetch hook should fail")
	}
	c, err := New(repo, 50, &fifoPolicy{}, WithSegments(10), WithPrefixAdmission(2))
	if err != nil {
		t.Fatalf("valid segmented construction failed: %v", err)
	}
	if !c.Segmented() || c.SegmentSize() != 10 || c.PrefixSegments() != 2 {
		t.Errorf("accessors: segmented=%v size=%v prefix=%d",
			c.Segmented(), c.SegmentSize(), c.PrefixSegments())
	}
}

func TestRequestRangePartialHit(t *testing.T) {
	repo := smallRepo(t)
	rec := &eventRecorder{}
	c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10), WithObserver(rec))

	// Cold prefix: only segment 0 of clip 3 (30 bytes, 3 segments).
	res, err := c.RequestRange(3, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissCached || res.BytesFetched != 10 || res.BytesHit != 0 {
		t.Fatalf("cold prefix: %+v", res)
	}
	if got := c.ResidentBytes(3); got != 10 {
		t.Fatalf("resident bytes after prefix fetch = %v", got)
	}

	// Full request: prefix from cache, tail fetched.
	res, err = c.RequestRange(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissCached || res.BytesHit != 10 || res.BytesFetched != 20 {
		t.Fatalf("partial hit: %+v", res)
	}
	s := c.Stats()
	if s.PartialHits != 1 || s.SegmentsFetched != 3 {
		t.Fatalf("stats after partial hit: %+v", s)
	}
	if rec.count(EventPartialHit) != 1 {
		t.Errorf("partial-hit events = %d, want 1", rec.count(EventPartialHit))
	}

	// Fully resident now: any subrange is a pure hit.
	res, err = c.RequestRange(3, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes 5..14 touch segments 0 and 1: 20 touched bytes, all resident.
	if res.Outcome != Hit || res.BytesHit != 20 {
		t.Fatalf("resident subrange: %+v", res)
	}
	if !c.FullyResident(3) {
		t.Error("clip 3 should be fully resident")
	}
	checkIdentities(t, c.Stats())
}

func TestRequestRangeBadRange(t *testing.T) {
	repo := smallRepo(t)
	c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10))
	if _, err := c.RequestRange(3, 30, 1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("start at clip size: %v", err)
	}
	if _, err := c.RequestRange(3, -1, 5); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative start: %v", err)
	}
	if _, err := c.RequestRange(99, 0, 1); !errors.Is(err, ErrUnknownClip) {
		t.Fatalf("unknown clip: %v", err)
	}
	if c.Now() != 0 {
		t.Fatal("rejected ranges must not advance the clock")
	}
	// Overlong length clamps to the clip end.
	res, err := c.RequestRange(1, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Start != 5 || res.Length != 5 {
		t.Fatalf("clamp: %+v", res)
	}
}

func TestPrefixAdmissionOverridesDeclinedAdmission(t *testing.T) {
	repo := smallRepo(t)
	deny := func(media.Clip, vtime.Time) bool { return false }
	c, _ := New(repo, 50, &fifoPolicy{},
		WithSegments(10), WithPrefixAdmission(1), WithAdmission(deny))

	res, err := c.RequestRange(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissBypassed {
		t.Fatalf("outcome = %v, want MissBypassed (tail streamed)", res.Outcome)
	}
	// The pinned prefix segment was cached despite the declined admission;
	// the two tail segments streamed.
	if got := c.ResidentBytes(3); got != 10 {
		t.Fatalf("resident bytes = %v, want 10 (prefix segment only)", got)
	}
	if !c.SegmentResident(3, 0) || c.SegmentResident(3, 1) {
		t.Error("expected exactly segment 0 resident")
	}
	s := c.Stats()
	if s.Bypassed != 1 || s.BytesFetched != 30 {
		t.Fatalf("stats: %+v", s)
	}
	checkIdentities(t, s)

	// Second pass: prefix hits, tail streams again (still not admitted).
	res, err = c.RequestRange(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissBypassed || res.BytesHit != 10 || res.BytesFetched != 20 {
		t.Fatalf("second pass: %+v", res)
	}
	if c.Stats().PartialHits != 1 {
		t.Fatalf("partial hits = %d, want 1", c.Stats().PartialHits)
	}
	checkIdentities(t, c.Stats())
}

func TestTrimEvictsTailBeforePrefix(t *testing.T) {
	repo := smallRepo(t)
	rec := &eventRecorder{}
	c, _ := New(repo, 50, &fifoPolicy{},
		WithSegments(10), WithPrefixAdmission(1), WithObserver(rec))

	if out, err := c.Request(4); err != nil || out != MissCached {
		t.Fatalf("warm clip 4: %v/%v", out, err)
	}
	// Clip 3 (30 bytes) needs 30; free is 10, so two of clip 4's segments
	// must go — the unpinned tail (segments 3 and 2), never the prefix.
	if out, err := c.Request(3); err != nil || out != MissCached {
		t.Fatalf("insert clip 3: %v/%v", out, err)
	}
	if got := c.ResidentBytes(4); got != 20 {
		t.Fatalf("clip 4 resident bytes = %v, want 20 after tail trim", got)
	}
	if !c.SegmentResident(4, 0) || !c.SegmentResident(4, 1) ||
		c.SegmentResident(4, 2) || c.SegmentResident(4, 3) {
		t.Error("expected clip 4 segments {0,1} resident after trim")
	}
	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (clip 4 only trimmed)", s.Evictions)
	}
	if s.SegmentsEvicted != 2 || s.BytesEvicted != 20 {
		t.Errorf("segments evicted = %d (%v bytes), want 2 (20B)", s.SegmentsEvicted, s.BytesEvicted)
	}
	if rec.count(EventTrim) == 0 {
		t.Error("expected at least one trim event")
	}
	if rec.count(EventEviction) != 0 {
		t.Error("no full eviction expected")
	}
	exts := c.ResidentExtentsOf(4)
	if len(exts) != 1 || exts[0] != (Extent{Start: 0, Length: 20}) {
		t.Errorf("extents of trimmed clip = %+v", exts)
	}
	checkIdentities(t, c.Stats())
}

func TestSegmentFetchFailureFailsOnlyThatSegment(t *testing.T) {
	repo := smallRepo(t)
	failSeg := int32(1)
	fetch := func(_ media.Clip, seg int32, _ vtime.Time) error {
		if seg == failSeg {
			return errors.New("link dropped")
		}
		return nil
	}
	c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10), WithSegmentFetch(fetch))
	res, err := c.RequestRange(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissDegraded {
		t.Fatalf("outcome = %v, want MissDegraded", res.Outcome)
	}
	if res.BytesFetched != 20 || res.BytesFailed != 10 {
		t.Fatalf("result: %+v", res)
	}
	if c.SegmentResident(3, 0) != true || c.SegmentResident(3, 1) != false || !c.SegmentResident(3, 2) {
		t.Error("segments 0 and 2 should be resident, 1 failed")
	}
	s := c.Stats()
	if s.FetchFailed != 1 || s.BytesFailed != 10 || s.SegmentsFetched != 2 {
		t.Fatalf("stats: %+v", s)
	}
	checkIdentities(t, s)

	// The failed segment heals on the next request: only segment 1 is
	// missing now.
	failSeg = -1
	res, err = c.RequestRange(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MissCached || res.BytesHit != 20 || res.BytesFetched != 10 {
		t.Fatalf("healing pass: %+v", res)
	}
	if !c.FullyResident(3) {
		t.Error("clip 3 should be fully resident after healing")
	}
	checkIdentities(t, c.Stats())
}

func TestSegmentedResidentExtentsWithGap(t *testing.T) {
	repo := smallRepo(t)
	c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10))
	// Clip 4: 40 bytes, 4 segments. Fetch segments 0 and 2 via subranges.
	if _, err := c.RequestRange(4, 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RequestRange(4, 20, 10); err != nil {
		t.Fatal(err)
	}
	exts := c.ResidentExtentsOf(4)
	want := []Extent{{Start: 0, Length: 10}, {Start: 20, Length: 10}}
	if len(exts) != 2 || exts[0] != want[0] || exts[1] != want[1] {
		t.Fatalf("extents = %+v, want %+v", exts, want)
	}
	if c.ResidentSegmentsOf(4) != 2 || c.ResidentSegments() != 2 {
		t.Errorf("segment counts: clip=%d total=%d", c.ResidentSegmentsOf(4), c.ResidentSegments())
	}
}

func TestSegmentedShortLastSegmentAccounting(t *testing.T) {
	r, err := media.NewRepository([]media.Clip{
		{ID: 1, Size: 25}, // segments 10, 10, 5
		{ID: 2, Size: 35},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(r, 30, &fifoPolicy{}, WithSegments(10))
	if _, err := c.Request(1); err != nil {
		t.Fatal(err)
	}
	if got := c.UsedBytes(); got != 25 {
		t.Fatalf("used = %v, want 25 (short last segment not padded)", got)
	}
	// The short last segment alone:
	res, err := c.RequestRange(1, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Hit || res.BytesHit != 5 {
		t.Fatalf("short segment hit: %+v", res)
	}
	checkIdentities(t, c.Stats())
}

func TestSegmentedSnapshotRoundTrip(t *testing.T) {
	repo := smallRepo(t)
	build := func() *Cache {
		c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10))
		return c
	}
	c := build()
	c.Request(3)              // fully resident
	c.RequestRange(4, 20, 10) // partial: segment 2 only
	snap := c.Snapshot()
	if snap.SegmentSize != 10 {
		t.Fatalf("snapshot segment size = %v", snap.SegmentSize)
	}
	if len(snap.ResidentIDs) != 1 || snap.ResidentIDs[0] != 3 {
		t.Fatalf("full residents = %v", snap.ResidentIDs)
	}
	if len(snap.Partial) != 1 || snap.Partial[0].ID != 4 ||
		len(snap.Partial[0].Segments) != 1 || snap.Partial[0].Segments[0] != 2 {
		t.Fatalf("partial residents = %+v", snap.Partial)
	}

	fresh := build()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !fresh.FullyResident(3) || fresh.ResidentBytes(4) != 10 || !fresh.SegmentResident(4, 2) {
		t.Error("restored residency mismatch")
	}
	if fresh.UsedBytes() != c.UsedBytes() || fresh.ResidentSegments() != c.ResidentSegments() {
		t.Errorf("restored usage %v/%d, want %v/%d",
			fresh.UsedBytes(), fresh.ResidentSegments(), c.UsedBytes(), c.ResidentSegments())
	}

	// A whole-clip cache cannot represent the partial clip.
	wholeClip, _ := New(repo, 50, &fifoPolicy{})
	if err := wholeClip.Restore(snap); err == nil {
		t.Error("whole-clip restore of a segmented snapshot should fail")
	}
	// A segmented cache at a different granularity cannot either.
	other, _ := New(repo, 50, &fifoPolicy{}, WithSegments(20))
	if err := other.Restore(snap); err == nil {
		t.Error("granularity-mismatched restore should fail")
	}
	// But a segmented cache adopts a pre-segment whole-clip snapshot.
	legacy, _ := New(repo, 50, &fifoPolicy{})
	legacy.Request(2)
	adopted := build()
	if err := adopted.Restore(legacy.Snapshot()); err != nil {
		t.Fatalf("adopting whole-clip snapshot: %v", err)
	}
	if !adopted.FullyResident(2) || adopted.ResidentSegmentsOf(2) != 2 {
		t.Error("adopted clip should be fully resident with all segments")
	}
}

// TestSegmentedWarm checks Warm grants full segment residency.
func TestSegmentedWarm(t *testing.T) {
	repo := smallRepo(t)
	c, _ := New(repo, 50, &fifoPolicy{}, WithSegments(10))
	c.Warm([]media.ClipID{1, 3})
	if !c.FullyResident(1) || !c.FullyResident(3) {
		t.Fatal("warmed clips should be fully resident")
	}
	if c.ResidentSegments() != 4 {
		t.Fatalf("resident segments = %d, want 4 (1 + 3)", c.ResidentSegments())
	}
	if out, _ := c.Request(3); out != Hit {
		t.Fatalf("warmed clip request = %v, want Hit", out)
	}
}

// TestSegmentedTooLargeClipStreams pins the Section 2 rule at segment
// granularity: a clip larger than the whole cache streams uncached.
func TestSegmentedTooLargeClipStreams(t *testing.T) {
	repo := smallRepo(t)
	c, _ := New(repo, 35, &fifoPolicy{}, WithSegments(10))
	out, err := c.Request(4) // 40 bytes > 35 capacity
	if err != nil || out != MissTooLarge {
		t.Fatalf("outcome = %v/%v", out, err)
	}
	if c.ResidentBytes(4) != 0 || c.NumResident() != 0 {
		t.Error("too-large clip must not be cached")
	}
	checkIdentities(t, c.Stats())
}

// TestSegmentAwareNotifications checks the engine tells a SegmentAware
// policy about occupancy changes.
type segAwarePolicy struct {
	fifoPolicy
	notified []string
}

func (p *segAwarePolicy) OnResidentBytes(clip media.Clip, resident media.Bytes, _ vtime.Time) {
	p.notified = append(p.notified, fmt.Sprintf("%d:%d", clip.ID, resident))
}

func TestSegmentAwareNotifications(t *testing.T) {
	repo := smallRepo(t)
	p := &segAwarePolicy{}
	c, _ := New(repo, 50, p, WithSegments(10))
	c.RequestRange(3, 0, 10)
	if len(p.notified) == 0 || p.notified[len(p.notified)-1] != "3:10" {
		t.Fatalf("notifications = %v, want trailing 3:10", p.notified)
	}
	c.Request(3)
	if p.notified[len(p.notified)-1] != "3:30" {
		t.Fatalf("notifications = %v, want trailing 3:30", p.notified)
	}
	// Whole-clip caches never notify.
	p2 := &segAwarePolicy{}
	c2, _ := New(repo, 50, p2)
	c2.Request(3)
	if len(p2.notified) != 0 {
		t.Fatalf("whole-clip cache notified: %v", p2.notified)
	}
}
