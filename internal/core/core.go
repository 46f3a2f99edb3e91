// Package core implements the client-side cache engine of the paper's
// simulation model (Section 2): a fixed-size cache of continuous-media clips
// driven by a replacement Policy.
//
// The engine owns residency and byte accounting and enforces the paper's
// problem-statement rules:
//
//   - the cache has a fixed size S_T smaller than the repository S_DB;
//   - every referenced clip is materialized in the cache (Section 2's default
//     assumption), unless the policy's admission hook declines — the hook
//     models the paper's "variant of Simple that does not cache those
//     referenced clips whose byte hit ratio is smaller" (Section 3.3) and the
//     future-work scenario where unpopular clips are streamed without caching;
//   - when free space is insufficient, the policy selects victims until the
//     incoming clip fits;
//   - a clip larger than the whole cache is streamed without caching.
//
// Policies are notified of every reference (hit or miss) so on-line
// techniques can maintain reference histories for non-resident clips.
//
// There is one engine and one request path. Residency is tracked per
// fixed-size segment and every request is a byte range (segment.go);
// without WithSegments each clip is a single segment, which is exactly the
// paper's whole-clip model, and Request(id) is RequestRange(id, 0, -1).
package core

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// Outcome classifies the servicing of one request.
type Outcome uint8

// Request outcomes.
const (
	// Hit means the referenced clip was cache resident.
	Hit Outcome = iota
	// MissCached means the clip was streamed from the server and
	// materialized in the cache.
	MissCached
	// MissBypassed means the clip was streamed from the server without
	// being cached (admission declined).
	MissBypassed
	// MissTooLarge means the clip exceeds the cache capacity and was
	// streamed without caching.
	MissTooLarge
	// MissDegraded means the fetch hook (WithFetch) failed: the remote
	// repository could not deliver the clip, so nothing was materialized.
	MissDegraded
	// MissError means the engine could not service the miss because the
	// policy misbehaved during victim selection (ErrBadVictim or
	// ErrPolicyNoVictim). The clip was fetched but not materialized and the
	// resident set is untouched; the accompanying error describes the fault.
	MissError
)

// IsHit reports whether the outcome was a cache hit.
func (o Outcome) IsHit() bool { return o == Hit }

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissCached:
		return "miss-cached"
	case MissBypassed:
		return "miss-bypassed"
	case MissTooLarge:
		return "miss-too-large"
	case MissDegraded:
		return "miss-degraded"
	case MissError:
		return "miss-error"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// ResidentView is the read-only view of cache contents a Policy receives
// when selecting victims.
type ResidentView interface {
	// Resident reports whether clip id is cached.
	Resident(id media.ClipID) bool
	// Residents returns a range-over-func iterator over the cached clips
	// in ascending ID order. Iteration is an allocation-free walk of the
	// resident bitmap (see ForEachResident); breaking out early stops the
	// walk.
	Residents() iter.Seq[media.Clip]
	// ForEachResident visits the cached clips in ascending ID order until
	// fn returns false. Unlike CollectResidents it allocates nothing: the
	// engine keeps the resident set as a bitmap over clip IDs, so iteration
	// is a word-by-word scan, not a per-call sort.
	ForEachResident(fn func(media.Clip) bool)
	// NumResident returns the number of cached clips.
	NumResident() int
	// ResidentBytes returns how many of clip id's bytes are cached. With
	// whole-clip residency this is the clip size (resident) or zero; with
	// segment-granular residency (WithSegments) it is the byte total of the
	// clip's resident segments, so policies can rank partial residents by
	// resident-byte cost.
	ResidentBytes(id media.ClipID) media.Bytes
	// FreeBytes returns the unused cache capacity.
	FreeBytes() media.Bytes
	// Capacity returns the total cache capacity S_T.
	Capacity() media.Bytes
}

// Policy is a cache replacement technique. Implementations live in
// internal/policy/...; the engine drives them through this interface.
//
// Call sequence per request: Record is always called first (hit or miss).
// On a miss that will be cached, Victims is called (possibly repeatedly)
// until enough space is free, then OnEvict for each victim and OnInsert for
// the incoming clip.
type Policy interface {
	// Name returns the technique's display name, e.g. "DYNSimple(K=2)".
	Name() string

	// Record observes a reference to clip at time now. hit reports whether
	// the clip was resident. Policies use this to maintain reference
	// histories (which, per Section 4.1, may cover non-resident clips).
	Record(clip media.Clip, now vtime.Time, hit bool)

	// Admit reports whether the incoming (missed) clip should be cached.
	// The default paper assumption is to always admit.
	Admit(clip media.Clip, now vtime.Time) bool

	// Victims selects resident clips to evict so that at least need bytes
	// become free. view exposes the resident set; incoming is the clip
	// being cached. The returned ids must be resident and distinct; the
	// engine validates and evicts them in order. If the returned set frees
	// fewer than need bytes the engine calls Victims again with the
	// remaining need. The engine is done with the slice before it calls the
	// policy again, so a policy may return a buffer it reuses.
	Victims(incoming media.Clip, view ResidentView, need media.Bytes, now vtime.Time) []media.ClipID

	// OnInsert notifies that clip became resident.
	OnInsert(clip media.Clip, now vtime.Time)

	// OnEvict notifies that clip id was evicted.
	OnEvict(id media.ClipID, now vtime.Time)

	// Reset returns the policy to its initial state.
	Reset()
}

// Stats accumulates the evaluation metrics of Section 1, plus the engine
// counters the sweep pool surfaces for performance tracking.
type Stats struct {
	Requests        uint64      // total references
	Hits            uint64      // references serviced from cache
	BytesReferenced media.Bytes // Σ size of referenced clips
	BytesHit        media.Bytes // Σ size of clips serviced from cache
	BytesFetched    media.Bytes // network traffic: Σ size of clips actually delivered on misses
	BytesFailed     media.Bytes // Σ size of clips whose remote fetch failed (nothing was delivered)
	Evictions       uint64      // number of clips swapped out
	BytesEvicted    media.Bytes // Σ size of evicted clips
	Bypassed        uint64      // misses not cached (admission declined, too large, or engine error)
	FetchFailed     uint64      // misses whose fetch hook failed (degraded service)
	VictimCalls     uint64      // Policy.Victims invocations, incl. re-invocations for short selections

	// Segment-granular counters, accumulated only by caches built with
	// WithSegments; always zero under whole-clip residency.
	PartialHits     uint64 // requests serviced partly from resident segments, partly fetched
	SegmentsFetched uint64 // segments materialized on misses
	SegmentsEvicted uint64 // segments evicted, incl. tail trims of partial victims

	// Catalog-dynamics counters (ISSUE 8). Invalidations are not requests:
	// they tick no clock and touch none of the counting or byte identities
	// above, so Requests == Hits+MissCached+Bypassed+FetchFailed and the
	// byte identity hold by construction under any purge/expiry schedule.
	Invalidated      uint64      // clips dropped by Invalidate or TTL expiry
	Expired          uint64      // the TTL-expiry subset of Invalidated
	BytesInvalidated media.Bytes // Σ resident bytes credited by invalidations
}

// HitRate returns the cache hit rate in [0, 1].
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// ByteHitRate returns the cache byte hit rate in [0, 1].
func (s Stats) ByteHitRate() float64 {
	if s.BytesReferenced == 0 {
		return 0
	}
	return float64(s.BytesHit) / float64(s.BytesReferenced)
}

// Add returns the field-wise sum of two counter sets — the aggregate view
// of several caches (e.g. the shards of a partitioned pool) as if one
// engine had serviced every request.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Requests:        s.Requests + o.Requests,
		Hits:            s.Hits + o.Hits,
		BytesReferenced: s.BytesReferenced + o.BytesReferenced,
		BytesHit:        s.BytesHit + o.BytesHit,
		BytesFetched:    s.BytesFetched + o.BytesFetched,
		BytesFailed:     s.BytesFailed + o.BytesFailed,
		Evictions:       s.Evictions + o.Evictions,
		BytesEvicted:    s.BytesEvicted + o.BytesEvicted,
		Bypassed:        s.Bypassed + o.Bypassed,
		FetchFailed:     s.FetchFailed + o.FetchFailed,
		VictimCalls:     s.VictimCalls + o.VictimCalls,
		PartialHits:     s.PartialHits + o.PartialHits,
		SegmentsFetched: s.SegmentsFetched + o.SegmentsFetched,
		SegmentsEvicted: s.SegmentsEvicted + o.SegmentsEvicted,

		Invalidated:      s.Invalidated + o.Invalidated,
		Expired:          s.Expired + o.Expired,
		BytesInvalidated: s.BytesInvalidated + o.BytesInvalidated,
	}
}

// Cache is a fixed-capacity clip cache managed by a Policy.
type Cache struct {
	repo     *media.Repository
	capacity media.Bytes
	policy   Policy

	// admit, when set via WithAdmission, is consulted on every cacheable
	// miss before the policy's own Admit.
	admit func(media.Clip, vtime.Time) bool
	// fetch, when set via WithFetch, models retrieving a missed clip from
	// the remote repository; an error degrades the miss (nothing cached).
	fetch FetchFunc
	// observer, when set via WithObserver, receives typed engine events
	// (hit, miss, eviction, bypass, restore). Nil-checked at every
	// emission so the disabled path stays allocation-free.
	observer Observer
	// mirror, when set via WithResidencyMirror, receives every residency
	// transition so lock-free readers can consult a published view of the
	// resident set. Publishing to a nil mirror is a no-op.
	mirror *ResidencyMirror
	// initClock is the virtual time the cache starts (and Resets) at.
	initClock vtime.Time

	// entries holds one record per repository clip, indexed by id-1 (clip
	// IDs are dense): its segment bitmap, resident byte total and expiry
	// deadline. A clip is resident while it has at least one resident
	// segment; the request path reaches a record without hashing.
	entries []entry
	// residentBits is the resident set as a bitmap over clip IDs (bit
	// id-1), sized beside entries; numResident counts its set bits. Insert
	// and evict are single bit operations, and every resident walk
	// (ForEachResident) scans it word by word in ascending ID order.
	residentBits []uint64
	numResident  int
	// victimScratch is the reusable duplicate-detection set makeRoomSegment
	// uses to validate a victim batch before mutating residency.
	victimScratch map[media.ClipID]struct{}
	used          media.Bytes
	clock         vtime.Time
	stats         Stats

	// Segment geometry. segSize is the WithSegments granularity and what the
	// cache reports; zero means unsegmented, which the engine runs as one
	// segment spanning each clip: span, the size every segment computation
	// uses, is then the repository's largest clip.
	segSize      media.Bytes
	span         media.Bytes
	prefixSegs   int              // WithPrefixAdmission: first N segments always admitted, evicted last
	segFetch     SegmentFetchFunc // WithSegmentFetch: per-segment fetch seam
	segAware     SegmentAware     // policy's optional resident-byte hook; nil on unsegmented caches
	residentSegs int              // total resident segments across all clips
	segScratch   []int32          // reusable missing-segment buffer for the request path

	// TTL expiry (WithTTL). ttl == 0 means no expiry and every entry's
	// deadline stays zero. Deadlines are absolute virtual times; expiry is
	// lazy (checked on the requested clip) plus an amortized sweep every
	// sweepEvery ticks.
	ttl           vtime.Duration
	lastSweep     vtime.Time
	sweepEvery    vtime.Time
	expireScratch []media.ClipID // reusable expired-id buffer for the sweep
}

// Option configures optional engine behaviour at construction; see
// WithAdmission and WithClock.
type Option func(*Cache) error

// WithAdmission installs an engine-level admission hook consulted on every
// cacheable miss before the policy's own Admit. Returning false streams
// the clip without materializing it (the Section 2 future-work scenario),
// regardless of what the policy would decide.
func WithAdmission(hook func(clip media.Clip, now vtime.Time) bool) Option {
	return func(c *Cache) error {
		if hook == nil {
			return errors.New("core: WithAdmission hook must not be nil")
		}
		c.admit = hook
		return nil
	}
}

// FetchFunc models retrieving a missed clip from the remote repository over
// the (possibly faulty) network. It runs after every admission decision has
// approved caching the clip and before any victim is evicted, so a failed
// fetch never disturbs the resident set. Returning an error degrades the
// request to MissDegraded: the clip is not materialized and the failure is
// counted in Stats.FetchFailed.
type FetchFunc func(clip media.Clip, now vtime.Time) error

// WithFetch installs a fetch hook consulted on every miss that would be
// cached — the seam where a fault injector (internal/fault) or a real
// network client models the paper's flaky wireless link. A cache built
// without this option behaves exactly as before: every fetch succeeds.
func WithFetch(fetch FetchFunc) Option {
	return func(c *Cache) error {
		if fetch == nil {
			return errors.New("core: WithFetch hook must not be nil")
		}
		c.fetch = fetch
		return nil
	}
}

// WithClock starts the virtual clock at now instead of zero, e.g. when a
// cache resumes from an external event log. Reset returns the clock to
// this value.
func WithClock(now vtime.Time) Option {
	return func(c *Cache) error {
		if now < 0 {
			return fmt.Errorf("core: initial clock must be non-negative, got %d", now)
		}
		c.initClock = now
		return nil
	}
}

// Binder is implemented by policies that need a read-only view of the
// cache they manage before the first request (e.g. the Simple admission
// variant, whose Admit consults the resident set). New binds such
// policies automatically, replacing ad-hoc post-construction wiring.
type Binder interface {
	Bind(view ResidentView)
}

// Engine errors.
var (
	ErrUnknownClip    = errors.New("core: request references a clip not in the repository")
	ErrPolicyNoVictim = errors.New("core: policy returned no usable victim while space is needed")
	ErrBadVictim      = errors.New("core: policy selected a non-resident or duplicate victim")
)

// New returns a Cache over repo with capacity S_T managed by policy.
// Capacity must be positive and smaller than the repository size (otherwise
// the caching problem is trivial — Section 2). Policies implementing
// Binder are bound to the cache's resident view before New returns.
func New(repo *media.Repository, capacity media.Bytes, policy Policy, opts ...Option) (*Cache, error) {
	if repo == nil {
		return nil, errors.New("core: repository must not be nil")
	}
	if policy == nil {
		return nil, errors.New("core: policy must not be nil")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive, got %d", capacity)
	}
	if capacity >= repo.TotalSize() {
		return nil, fmt.Errorf("core: capacity %v is not smaller than the repository %v; the problem is trivial (Section 2)",
			capacity, repo.TotalSize())
	}
	c := &Cache{
		repo:     repo,
		capacity: capacity,
		policy:   policy,
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.segSize == 0 {
		if c.prefixSegs > 0 {
			return nil, errors.New("core: WithPrefixAdmission requires WithSegments")
		}
		if c.segFetch != nil {
			return nil, errors.New("core: WithSegmentFetch requires WithSegments")
		}
	} else {
		// Only segmented caches re-rank on resident-byte changes; a clip of
		// one segment is either wholly resident or absent.
		c.segAware, _ = policy.(SegmentAware)
	}
	c.span = spanFor(repo, c.segSize)
	c.entries = make([]entry, repo.N())
	c.residentBits = make([]uint64, (repo.N()+63)/64)
	for i := range c.entries {
		e := &c.entries[i]
		e.nSegs = segmentsOf(repo.Clip(media.ClipID(i+1)).Size, c.span)
		if e.nSegs > 64 {
			e.more = make([]uint64, (e.nSegs-64+63)/64)
		}
	}
	if c.ttl > 0 {
		// Sweep cadence is a pure function of the TTL so the event stream is
		// deterministic: often enough that expired clips do not linger past
		// a quarter TTL, capped so huge TTLs still sweep regularly.
		c.sweepEvery = min(max(vtime.Time(c.ttl)/4, 1), 1024)
		c.lastSweep = c.initClock
	}
	c.clock = c.initClock
	c.mirror.setClock(c.clock)
	if b, ok := policy.(Binder); ok {
		b.Bind(c)
	}
	return c, nil
}

// Repository returns the backing repository.
func (c *Cache) Repository() *media.Repository { return c.repo }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Now returns the current virtual time (the number of requests processed).
func (c *Cache) Now() vtime.Time { return c.clock }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Capacity returns S_T.
func (c *Cache) Capacity() media.Bytes { return c.capacity }

// UsedBytes returns the bytes currently occupied by resident clips.
func (c *Cache) UsedBytes() media.Bytes { return c.used }

// FreeBytes returns the unused capacity.
func (c *Cache) FreeBytes() media.Bytes { return c.capacity - c.used }

// NumResident returns the number of cached clips.
func (c *Cache) NumResident() int { return c.numResident }

// Resident reports whether clip id is cached. Under segment-granular
// residency a clip with any resident segment counts as resident; use
// FullyResident or ResidentBytes for finer answers.
func (c *Cache) Resident(id media.ClipID) bool { return c.at(id).resident > 0 }

// ResidentBytes implements ResidentView: the byte total of clip id's
// resident segments — the whole clip size or zero on unsegmented caches.
func (c *Cache) ResidentBytes(id media.ClipID) media.Bytes {
	return c.at(id).resBytes
}

// CollectResidents copies view's resident set into a fresh slice in
// ascending ID order — for scan-mode victim selection that must sort or
// repeatedly index the whole set. Callers that only iterate should range
// over view.Residents(), which allocates nothing.
func CollectResidents(view ResidentView) []media.Clip {
	clips := make([]media.Clip, 0, view.NumResident())
	for clip := range view.Residents() {
		clips = append(clips, clip)
	}
	return clips
}

// CollectResidentIDs copies view's resident clip ids into a fresh slice in
// ascending order — the slice-returning counterpart of ranging over
// Residents, for callers (mostly tests) that need a materialized set.
func CollectResidentIDs(view ResidentView) []media.ClipID {
	ids := make([]media.ClipID, 0, view.NumResident())
	for clip := range view.Residents() {
		ids = append(ids, clip.ID)
	}
	return ids
}

// Residents returns a range-over-func iterator over the cached clips in
// ascending ID order. The sequence is ForEachResident and may be ranged
// over multiple times; each range sees the resident set as of that
// iteration.
func (c *Cache) Residents() iter.Seq[media.Clip] { return c.ForEachResident }

// ForEachResident visits the cached clips in ascending ID order until fn
// returns false, without allocating. It is the engine's one resident walk:
// N/64 word reads plus one step per resident. fn must not change residency.
func (c *Cache) ForEachResident(fn func(media.Clip) bool) {
	for w, word := range c.residentBits {
		for ; word != 0; word &= word - 1 {
			if !fn(c.repo.Clip(media.ClipID(w*64 + bits.TrailingZeros64(word) + 1))) {
				return
			}
		}
	}
}

// markResident and unmarkResident add clip id to and remove it from the
// resident bitmap; callers change residency only across that transition.
func (c *Cache) markResident(id media.ClipID) {
	c.residentBits[(id-1)/64] |= 1 << ((id - 1) % 64)
	c.numResident++
}

func (c *Cache) unmarkResident(id media.ClipID) {
	c.residentBits[(id-1)/64] &^= 1 << ((id - 1) % 64)
	c.numResident--
}

var _ ResidentView = (*Cache)(nil)

// Request services a reference to clip id, advancing the virtual clock by
// one tick, and returns the outcome. Request is the paper's unit of work: the
// client references a clip, the cache manager services it. It is the
// whole-clip form of RequestRange.
func (c *Cache) Request(id media.ClipID) (Outcome, error) {
	res, err := c.RequestRange(id, 0, -1)
	return res.Outcome, err
}

// ApplyHit services a reference to clip id that a concurrent reader already
// classified as a hit against the cache's published residency view
// (WithResidencyMirror): clock tick, policy Record, hit statistics and the
// EventHit emission — the hit branch of Request. It exists so a
// lock-reduced front-end can serve the bytes without the engine lock and
// later drain a batch of such touches under one lock acquisition.
//
// The request is accounted as a hit unconditionally, because the bytes were
// served from the view at the reader's linearization point even if the clip
// has been evicted since. The policy, however, is told the truth about the
// engine's current state: Record(hit) reflects residency at drain time, so
// reference histories never diverge from the resident set. Driven serially
// (drain before any intervening mutation) this is byte-identical to Request
// on a hit. Only unsegmented caches support it: "resident" and "every byte
// cached" coincide there, while segmented caches account partial residency
// per byte range and must use RequestRange.
func (c *Cache) ApplyHit(id media.ClipID) error {
	if c.segSize > 0 {
		return errors.New("core: ApplyHit requires whole-clip residency")
	}
	clip, ok := c.repo.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownClip, id)
	}
	c.clock++
	now := c.clock
	c.mirror.setClock(now)
	// Sweep only; no lazy check of id itself. The lock-free fast path that
	// feeds ApplyHit verified the deadline against its tick estimate before
	// classifying the hit, and ApplyHit's contract counts the hit
	// unconditionally anyway — residency truth is told to the policy below.
	if c.ttl > 0 {
		c.maybeSweep(now)
	}

	c.policy.Record(clip, now, c.Resident(id))

	c.stats.Requests++
	c.stats.BytesReferenced += clip.Size
	c.stats.Hits++
	c.stats.BytesHit += clip.Size
	c.emit(EventHit, clip, clip.Size, now)
	return nil
}

// Warm pre-loads the given clips into the cache without counting requests,
// evicting nothing: clips that do not fit are skipped. Used to place an
// off-line technique's chosen working set, and by tests.
func (c *Cache) Warm(ids []media.ClipID) {
	for _, id := range ids {
		clip, ok := c.repo.Lookup(id)
		if !ok || c.Resident(id) || clip.Size > c.FreeBytes() {
			continue
		}
		c.adopt(clip, nil, c.deadlineFrom(c.clock))
	}
}

// clearResidency empties the resident set and its published mirror: the
// common first step of Reset and Restore.
func (c *Cache) clearResidency() {
	for i := range c.entries {
		c.entries[i].reset()
	}
	clear(c.residentBits)
	c.numResident = 0
	c.mirror.clear()
	c.used = 0
	c.residentSegs = 0
}

// Reset clears residency, statistics and the policy state, and rewinds the
// clock to its initial value (zero unless WithClock set one).
func (c *Cache) Reset() {
	c.clearResidency()
	c.clock = c.initClock
	c.mirror.setClock(c.clock)
	c.lastSweep = c.initClock
	c.stats = Stats{}
	c.policy.Reset()
}

// TheoreticalHitRate returns Σ f_id over fully resident clips for the
// supplied per-identity probability vector (indexed by id-1). This is the
// metric of Section 4.4.1: the probability the next (whole-clip) request
// hits, given the true request distribution.
func (c *Cache) TheoreticalHitRate(pmf []float64) float64 {
	// Sum in ascending clip-ID order: float addition is not associative, so
	// the order is part of the result.
	var sum float64
	c.ForEachResident(func(clip media.Clip) bool {
		if i := int(clip.ID) - 1; i < len(pmf) && c.FullyResident(clip.ID) {
			sum += pmf[i]
		}
		return true
	})
	return sum
}
