// Segment-granular residency is the engine's one residency model. Every clip
// divides into fixed-size segments (the last one short), residency is
// tracked per segment in a bitmap, and requests are byte ranges: resident
// segments are served from cache, missing ones are fetched individually,
// and victims can lose tail segments without dropping their prefix — the
// behaviour prefix caches use to hide startup latency for streaming media.
//
// Whole-clip caching, the paper's model, is the degenerate point: a cache
// built without WithSegments runs with one segment spanning each clip, so
// Request(id) is RequestRange(id, 0, -1), a trim is an eviction and no
// partial state can arise. The few places where an unsegmented cache
// reports differently (segment counters stay zero, RangeResult carries the
// requested length, snapshots carry no granularity) are bookkeeping on this
// one path, not a second path.
package core

import (
	"errors"
	"fmt"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// ErrBadRange reports a requested byte range lying outside the clip.
var ErrBadRange = errors.New("core: requested range is outside the clip")

// WithSegments divides clips into fixed-size segments of segSize bytes:
// ceil(size/segSize) per clip, the last one possibly short. A request is a
// hit only when every segment it touches is resident, and misses fetch and
// materialize only the missing segments. Without this option each clip is
// one segment.
func WithSegments(segSize media.Bytes) Option {
	return func(c *Cache) error {
		if segSize <= 0 {
			return fmt.Errorf("core: segment size must be positive, got %d", segSize)
		}
		c.segSize = segSize
		return nil
	}
}

// WithPrefixAdmission pins the first n segments of every clip: they are
// admitted even when admission hooks decline the clip, and victim trimming
// evicts them only after every unpinned segment of the victim is gone.
// Requires WithSegments.
func WithPrefixAdmission(n int) Option {
	return func(c *Cache) error {
		if n <= 0 {
			return fmt.Errorf("core: prefix admission segment count must be positive, got %d", n)
		}
		c.prefixSegs = n
		return nil
	}
}

// SegmentFetchFunc models retrieving one missing segment of a clip from the
// remote repository. seg is the zero-based segment index. Returning an
// error fails just that segment: the rest of the request is still serviced
// and the failure accrues to Stats.BytesFailed for exactly the segment's
// bytes.
type SegmentFetchFunc func(clip media.Clip, seg int32, now vtime.Time) error

// WithSegmentFetch installs a per-segment fetch hook — the segmented
// counterpart of WithFetch, and the seam per-segment coalescing and fault
// injection plug into. Requires WithSegments. A segmented cache built with
// WithFetch instead fetches once per request; one with neither hook always
// succeeds.
func WithSegmentFetch(fetch SegmentFetchFunc) Option {
	return func(c *Cache) error {
		if fetch == nil {
			return errors.New("core: WithSegmentFetch hook must not be nil")
		}
		c.segFetch = fetch
		return nil
	}
}

// SegmentAware is implemented by policies that rank partial residents by
// resident-byte cost (the GD family). The engine calls OnResidentBytes
// whenever a resident clip's cached byte total changes — segment inserts,
// tail trims, partial restores — so the policy can re-rank the clip.
// Unsegmented caches never call it: a clip's resident bytes are its size
// from OnInsert to OnEvict.
type SegmentAware interface {
	OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time)
}

// entry is one clip's residency record. The segment count and the bitmap's
// extent are fixed when the cache is built, so the request path allocates
// nothing; a clip with nothing resident has every other field zero.
type entry struct {
	deadline vtime.Time  // TTL expiry tick; zero when expiry is off
	resBytes media.Bytes // byte total of resident segments
	nSegs    int32
	resident int32    // number of set bits
	word     uint64   // residency bits of segments 0..63
	more     []uint64 // segments 64 and up; nil for clips of at most 64 segments
}

// reset drops everything resident from the record.
func (e *entry) reset() {
	e.deadline, e.resBytes, e.resident, e.word = 0, 0, 0, 0
	clear(e.more)
}

// absent is the record read for a clip outside the repository: one segment,
// not resident. It is never written.
var absent = entry{nSegs: 1}

// at returns clip id's record for reading, whatever the id.
func (c *Cache) at(id media.ClipID) *entry {
	if i := int(id) - 1; i >= 0 && i < len(c.entries) {
		return &c.entries[i]
	}
	return &absent
}

// bit locates segment i's residency bit.
func (e *entry) bit(i int32) (*uint64, uint64) {
	if i < 64 {
		return &e.word, 1 << uint(i)
	}
	i -= 64
	return &e.more[i>>6], 1 << uint(i&63)
}

func (e *entry) has(i int32) bool { w, m := e.bit(i); return *w&m != 0 }

// set marks a missing segment resident; clear the reverse.
func (e *entry) set(i int32)   { w, m := e.bit(i); *w |= m; e.resident++ }
func (e *entry) clear(i int32) { w, m := e.bit(i); *w &^= m; e.resident-- }

func (e *entry) full() bool { return e.resident == e.nSegs }

// appendMissing appends the segments of [s0, s1] not resident in e, in
// ascending order; resident false disregards e and lists them all.
func appendMissing(dst []int32, e *entry, resident bool, s0, s1 int32) []int32 {
	if resident && e.full() {
		return dst
	}
	for i := s0; i <= s1; i++ {
		if !resident || !e.has(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// spanFor returns the segment size the engine computes with: segSize, or
// for an unsegmented cache the largest clip, which makes every clip exactly
// one segment.
func spanFor(repo *media.Repository, segSize media.Bytes) media.Bytes {
	if segSize > 0 {
		return segSize
	}
	return repo.MaxClipSize()
}

// segmentsOf returns how many span-sized segments size bytes divide into.
func segmentsOf(size, span media.Bytes) int32 {
	return int32(max((size+span-1)/span, 1))
}

// segmentBytes returns the byte length of segment i of a clip of size
// bytes — span except for a short last segment.
func segmentBytes(size media.Bytes, i int32, span media.Bytes) media.Bytes {
	return min(size-media.Bytes(i)*span, span)
}

// Segmented reports whether the cache was built with WithSegments.
func (c *Cache) Segmented() bool { return c.segSize > 0 }

// SegmentSize returns the WithSegments granularity, zero for unsegmented
// caches.
func (c *Cache) SegmentSize() media.Bytes { return c.segSize }

// PrefixSegments returns the WithPrefixAdmission pin count (zero if unset).
func (c *Cache) PrefixSegments() int { return c.prefixSegs }

// ResidentSegments returns the total number of resident segments across all
// clips; zero for unsegmented caches, which report clips, not segments.
func (c *Cache) ResidentSegments() int {
	if c.segSize == 0 {
		return 0
	}
	return c.residentSegs
}

// SegmentsOf returns the number of segments clip divides into (always 1 for
// unsegmented caches).
func (c *Cache) SegmentsOf(clip media.Clip) int { return int(segmentsOf(clip.Size, c.span)) }

// segOf returns the index of the segment holding byte offset off. The
// first-segment test spares unsegmented caches the division.
func (c *Cache) segOf(off media.Bytes) int32 {
	if off < c.span {
		return 0
	}
	return int32(off / c.span)
}

func (c *Cache) segmentBytes(clip media.Clip, i int32) media.Bytes {
	return segmentBytes(clip.Size, i, c.span)
}

// segRangeBytes returns the byte total of clip's segments s0..s1 inclusive.
func (c *Cache) segRangeBytes(clip media.Clip, s0, s1 int32) media.Bytes {
	return min(media.Bytes(s1+1)*c.span, clip.Size) - media.Bytes(s0)*c.span
}

// FullyResident reports whether every byte of clip id is cached.
func (c *Cache) FullyResident(id media.ClipID) bool { return c.at(id).full() }

// SegmentResident reports whether segment seg of clip id is cached.
func (c *Cache) SegmentResident(id media.ClipID, seg int32) bool {
	e := c.at(id)
	return seg >= 0 && seg < e.nSegs && e.has(seg)
}

// ResidentSegmentsOf returns how many of clip id's segments are cached.
func (c *Cache) ResidentSegmentsOf(id media.ClipID) int {
	return int(c.at(id).resident)
}

// resolveRange looks clip id up and clamps [start, start+length) to it: a
// negative or overlong length runs to the clip's end. An unknown clip or a
// start outside the clip is an error.
func (c *Cache) resolveRange(id media.ClipID, start, length media.Bytes) (media.Clip, media.Bytes, error) {
	clip, ok := c.repo.Lookup(id)
	if !ok {
		return clip, 0, fmt.Errorf("%w: id %d", ErrUnknownClip, id)
	}
	if start < 0 || start >= clip.Size {
		return clip, 0, fmt.Errorf("%w: start %d of clip %d (size %v)", ErrBadRange, start, id, clip.Size)
	}
	if length < 0 || start+length > clip.Size {
		length = clip.Size - start
	}
	return clip, length, nil
}

// AppendFetchPlan appends to dst, in ascending order, the segments the
// fetch hook would be asked for if RequestRange(id, start, length) were
// serviced at tick at, and returns the extended slice. It is the probe a
// concurrent front-end runs under its lock before fetching outside it: no
// clock tick, no accounting, no allocation. Nothing is appended for a
// request that cannot reach the fetch path — an unknown clip, a start
// outside the clip, a clip larger than the cache, a resident range — while
// a clip whose TTL deadline will have passed at tick at is planned as
// wholly missing, since the request expires it first. Admission is not
// consulted (hooks may be stateful), so a plan can include segments the
// request then streams uncached.
func (c *Cache) AppendFetchPlan(dst []int32, id media.ClipID, start, length media.Bytes, at vtime.Time) []int32 {
	clip, length, err := c.resolveRange(id, start, length)
	if err != nil || clip.Size > c.capacity {
		return dst
	}
	e := &c.entries[id-1]
	return appendMissing(dst, e, e.resident > 0 && !c.due(e, at), c.segOf(start), c.segOf(start+length-1))
}

// Extent is a contiguous resident byte range of one clip.
type Extent struct {
	Start  media.Bytes
	Length media.Bytes
}

// ResidentExtentsOf returns clip id's resident bytes as maximal contiguous
// extents in ascending offset order (nil when nothing is resident). A fully
// resident clip yields one extent covering the whole clip.
func (c *Cache) ResidentExtentsOf(id media.ClipID) []Extent {
	e := c.at(id)
	if e.resident == 0 {
		return nil
	}
	clip := c.repo.Clip(id)
	var exts []Extent
	var runStart int32 = -1
	for i := int32(0); i < e.nSegs; i++ {
		switch {
		case e.has(i) && runStart < 0:
			runStart = i
		case !e.has(i) && runStart >= 0:
			exts = append(exts, c.extentOf(clip, runStart, i-1))
			runStart = -1
		}
	}
	if runStart >= 0 {
		exts = append(exts, c.extentOf(clip, runStart, e.nSegs-1))
	}
	return exts
}

func (c *Cache) extentOf(clip media.Clip, s0, s1 int32) Extent {
	return Extent{Start: media.Bytes(s0) * c.span, Length: c.segRangeBytes(clip, s0, s1)}
}

// RangeResult is the per-request delivery accounting RequestRange returns:
// how the served range split across cache, network and failure. On a
// segmented cache the fields satisfy BytesHit + BytesFetched + BytesFailed
// == bytes of the touched segments (the range rounded out to segment
// boundaries); on an unsegmented one they sum to Length.
type RangeResult struct {
	// Outcome classifies the request exactly as Request would.
	Outcome Outcome
	// Start and Length are the clamped byte range actually served.
	Start  media.Bytes
	Length media.Bytes
	// BytesHit is the portion served from resident segments.
	BytesHit media.Bytes
	// BytesFetched is the portion delivered over the network (fetched and
	// materialized, or streamed without caching).
	BytesFetched media.Bytes
	// BytesFailed is the portion whose segment fetches failed.
	BytesFailed media.Bytes
}

// RequestRange services a reference to bytes [start, start+length) of clip
// id, advancing the virtual clock by one tick. A negative or overlong
// length is clamped to the clip's end, so RequestRange(id, 0, -1) references
// the whole clip. A start outside the clip fails with ErrBadRange before
// any accounting (the HTTP layer's 416 case).
//
// The touched segments are serviced individually: resident ones count as
// hit bytes, missing cacheable ones are fetched (per segment via
// WithSegmentFetch, else once per request via WithFetch) and materialized,
// and non-admitted ones are streamed without caching — except the
// WithPrefixAdmission prefix, which is always cacheable. Stats accounting
// is at segment granularity: BytesReferenced grows by the touched
// segments' bytes and every touched segment lands in exactly one of
// BytesHit, BytesFetched or BytesFailed, so the byte identity holds per
// segment.
func (c *Cache) RequestRange(id media.ClipID, start, length media.Bytes) (RangeResult, error) {
	clip, length, err := c.resolveRange(id, start, length)
	if err != nil {
		return RangeResult{Outcome: MissBypassed}, err
	}
	res, err := c.serve(clip, start, length)
	if c.segSize == 0 {
		// One segment spans the clip, so exactly one of the three counters
		// holds the clip size; the caller of an unsegmented cache is told
		// about the bytes it asked for.
		switch {
		case res.BytesHit > 0:
			res.BytesHit = length
		case res.BytesFailed > 0:
			res.BytesFailed = length
		default:
			res.BytesFetched = length
		}
	}
	return res, err
}

// serve is the request path behind RequestRange; the range is already
// clamped to clip.
func (c *Cache) serve(clip media.Clip, start, length media.Bytes) (RangeResult, error) {
	c.clock++
	now := c.clock
	c.mirror.setClock(now)
	if c.ttl > 0 {
		// Amortized sweep first, then the lazy check on the requested clip:
		// the sweep may already have expired it, and the order must be fixed
		// so the event stream is deterministic. An expired requested clip
		// falls through as an ordinary miss.
		c.maybeSweep(now)
	}
	e := &c.entries[clip.ID-1]
	if c.due(e, now) {
		c.invalidate(clip.ID, now, true)
	}
	resident := e.resident > 0

	s0, s1 := c.segOf(start), c.segOf(start+length-1)
	touched := c.segRangeBytes(clip, s0, s1)
	c.segScratch = appendMissing(c.segScratch[:0], e, resident, s0, s1)
	missing := c.segScratch
	rangeHit := len(missing) == 0

	c.policy.Record(clip, now, rangeHit)
	c.stats.Requests++
	c.stats.BytesReferenced += touched

	res := RangeResult{Start: start, Length: length}
	if rangeHit {
		c.stats.Hits++
		c.stats.BytesHit += touched
		c.emit(EventHit, clip, touched, now)
		res.Outcome = Hit
		res.BytesHit = touched
		return res, nil
	}

	var missingBytes media.Bytes
	for _, i := range missing {
		missingBytes += c.segmentBytes(clip, i)
	}
	resInRange := touched - missingBytes
	c.stats.BytesHit += resInRange
	res.BytesHit = resInRange
	if resInRange > 0 {
		c.stats.PartialHits++
		c.emit(EventPartialHit, clip, resInRange, now)
	}

	// Fetched bytes are network traffic for segments actually delivered: a
	// bypassed or too-large miss still streams them to the client, but a
	// failed fetch delivers nothing and accrues to BytesFailed instead. The
	// invariant is BytesHit + BytesFetched + BytesFailed == BytesReferenced.
	//
	// A clip larger than the whole cache is never cached (Section 2): its
	// missing segments are streamed without consulting the fetch hook.
	if clip.Size > c.capacity {
		c.stats.BytesFetched += missingBytes
		c.stats.Bypassed++
		c.emit(EventBypass, clip, missingBytes, now)
		res.Outcome = MissTooLarge
		res.BytesFetched = missingBytes
		return res, nil
	}

	admitted := (c.admit == nil || c.admit(clip, now)) && c.policy.Admit(clip, now)

	var (
		streamed  media.Bytes // delivered but intentionally not cached
		failed    media.Bytes // fetch hook failed; nothing delivered
		delivered media.Bytes // streamed + fetched-ok bytes
		matErr    error       // first victim-selection failure, if any

		// WithFetch: fetch once per request, failing every cacheable
		// missing segment together.
		wholeFetched  bool
		wholeFetchErr error
	)
	for _, i := range missing {
		b := c.segmentBytes(clip, i)
		cacheable := admitted || int(i) < c.prefixSegs
		if !cacheable || matErr != nil {
			// Streamed without caching; a bypass does not consult the
			// fetch hook.
			streamed += b
			delivered += b
			continue
		}
		var err error
		switch {
		case c.segFetch != nil:
			err = c.segFetch(clip, i, now)
		case c.fetch != nil:
			if !wholeFetched {
				wholeFetched = true
				wholeFetchErr = c.fetch(clip, now)
			}
			err = wholeFetchErr
		}
		if err != nil {
			failed += b
			continue
		}
		delivered += b
		if err := c.insertSegment(clip, i, now); err != nil {
			// insertSegment validates each victim batch before touching
			// residency, so a misbehaving policy leaves the resident set as
			// it was (minus any earlier, fully valid batches). The segment
			// was delivered but cannot be materialized; the remaining
			// missing segments are streamed uncached, and the request counts
			// as bypassed so Requests == Hits + MissCached + Bypassed +
			// FetchFailed still holds.
			matErr = err
			continue
		}
		if c.segSize > 0 {
			c.stats.SegmentsFetched++
		}
	}
	c.stats.BytesFetched += delivered
	c.stats.BytesFailed += failed
	res.BytesFetched = delivered
	res.BytesFailed = failed

	switch {
	case matErr != nil:
		c.stats.Bypassed++
		c.emit(EventBypass, clip, delivered, now)
		res.Outcome = MissError
		return res, matErr
	case failed > 0:
		c.stats.FetchFailed++
		c.emit(EventFetchFail, clip, failed, now)
		res.Outcome = MissDegraded
	case streamed > 0:
		c.stats.Bypassed++
		c.emit(EventBypass, clip, streamed, now)
		res.Outcome = MissBypassed
	default:
		c.emit(EventMiss, clip, delivered, now)
		res.Outcome = MissCached
	}
	return res, nil
}

// insertSegment materializes one missing segment, evicting via
// makeRoomSegment first. The first segment of a clip makes the clip resident
// (policy OnInsert); every insert notifies SegmentAware policies of the new
// resident byte total.
func (c *Cache) insertSegment(clip media.Clip, seg int32, now vtime.Time) error {
	b := c.segmentBytes(clip, seg)
	if err := c.makeRoomSegment(clip, b, now); err != nil {
		return err
	}
	// Read after making room: trimming may have evicted this clip's own
	// segments (a partially resident clip is a legal victim).
	e := &c.entries[clip.ID-1]
	fresh := e.resident == 0
	if fresh {
		e.deadline = c.deadlineFrom(now)
	}
	e.set(seg)
	e.resBytes += b
	c.used += b
	c.residentSegs++
	if fresh {
		c.markResident(clip.ID)
		c.mirror.add(clip.ID, e.deadline)
		c.policy.OnInsert(clip, now)
	}
	c.notifyResidentBytes(clip, e.resBytes, now)
	return nil
}

// makeRoomSegment frees at least need bytes — room for one segment — by
// trimming policy-selected victims tail-first. Each victim batch is
// validated in full — every id resident, no duplicates — before any trim is
// applied, so a misbehaving policy can never leave a partially evicted cache
// behind. A victim that satisfies the remaining need mid-batch stops the
// batch: partial trims make overshoot pointless.
func (c *Cache) makeRoomSegment(incoming media.Clip, need media.Bytes, now vtime.Time) error {
	for c.capacity-c.used < need {
		shortfall := need - (c.capacity - c.used)
		c.stats.VictimCalls++
		victims := c.policy.Victims(incoming, c, shortfall, now)
		if len(victims) == 0 {
			return fmt.Errorf("%w: need %v, free %v", ErrPolicyNoVictim, shortfall, c.FreeBytes())
		}
		if c.victimScratch == nil {
			c.victimScratch = make(map[media.ClipID]struct{}, len(victims))
		} else {
			clear(c.victimScratch)
		}
		for _, vid := range victims {
			if _, dup := c.victimScratch[vid]; dup {
				return fmt.Errorf("%w: duplicate id %d", ErrBadVictim, vid)
			}
			c.victimScratch[vid] = struct{}{}
			if !c.Resident(vid) {
				return fmt.Errorf("%w: id %d", ErrBadVictim, vid)
			}
		}
		for _, vid := range victims {
			if c.capacity-c.used >= need {
				break
			}
			c.trimVictim(vid, need, now)
		}
	}
	return nil
}

// trimVictim evicts segments of victim vid, tail-first, until need bytes
// are free or the victim is empty. Unpinned segments (index >= the
// WithPrefixAdmission count) go first, highest index down; the pinned
// prefix is consumed only after every unpinned segment is gone. Dropping
// the last segment evicts the clip outright (policy OnEvict, EventEviction);
// a partial trim keeps the clip resident and emits EventTrim.
func (c *Cache) trimVictim(vid media.ClipID, need media.Bytes, now vtime.Time) {
	e := &c.entries[vid-1]
	clip := c.repo.Clip(vid)
	var trimmed media.Bytes
	var ntrim int
	drop := func(hi, lo int32) {
		for i := hi; i >= lo && c.capacity-c.used < need; i-- {
			if !e.has(i) {
				continue
			}
			b := c.segmentBytes(clip, i)
			e.clear(i)
			e.resBytes -= b
			c.used -= b
			trimmed += b
			ntrim++
		}
	}
	pinned := min(int32(c.prefixSegs), e.nSegs)
	drop(e.nSegs-1, pinned)
	drop(pinned-1, 0)
	c.residentSegs -= ntrim
	if c.segSize > 0 {
		c.stats.SegmentsEvicted += uint64(ntrim)
	}
	c.stats.BytesEvicted += trimmed
	if e.resident == 0 {
		e.deadline = 0
		c.unmarkResident(vid)
		c.mirror.remove(vid)
		c.stats.Evictions++
		c.policy.OnEvict(vid, now)
		c.emit(EventEviction, clip, trimmed, now)
		return
	}
	c.emit(EventTrim, clip, trimmed, now)
	c.notifyResidentBytes(clip, e.resBytes, now)
}

// adopt makes a non-resident clip resident with the listed segments (nil
// means all of them) outside any request: no eviction, no clock tick, no
// request accounting. It is the insert step of Warm and Restore, and
// returns the adopted byte count.
func (c *Cache) adopt(clip media.Clip, segs []int32, deadline vtime.Time) media.Bytes {
	e := &c.entries[clip.ID-1]
	e.deadline = deadline
	if segs == nil {
		for i := int32(0); i < e.nSegs; i++ {
			e.set(i)
		}
		e.resBytes = clip.Size
	}
	for _, seg := range segs {
		e.set(seg)
		e.resBytes += c.segmentBytes(clip, seg)
	}
	c.markResident(clip.ID)
	c.mirror.add(clip.ID, deadline)
	c.used += e.resBytes
	c.residentSegs += int(e.resident)
	c.policy.OnInsert(clip, c.clock)
	c.notifyResidentBytes(clip, e.resBytes, c.clock)
	return e.resBytes
}

// notifyResidentBytes forwards a resident-byte change to a SegmentAware
// policy, if the policy is one.
func (c *Cache) notifyResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	if c.segAware != nil {
		c.segAware.OnResidentBytes(clip, resident, now)
	}
}
