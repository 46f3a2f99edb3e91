// Package shard provides a hash-partitioned pool of core.Cache shards for
// concurrent front-ends. The single-threaded engine in internal/core models
// one device and stays lock-free by design; a server that fronts many
// concurrent clients wraps N independent engines — each with its own
// replacement-policy instance, its own mutex and its own slice of the total
// capacity — and routes every request to the shard that owns its clip ID.
//
// Requests for clips on different shards proceed in parallel. Every request
// form — Request, RequestRange, RequestBatch — takes the same staged path
// (staged.go): probe under the shard lock for the segments the engine would
// fetch, fetch them outside the lock, apply under the lock with the results
// handed to the engine's fetch hook. Concurrent misses for the same
// (clip, segment) are coalesced: one goroutine consults the configured
// link (so a fault injector is consulted once per logical fetch) while the
// rest wait and share its result. A failed shared fetch degrades every
// coalesced request — each counts one Stats.FetchFailed, mirroring what N
// independent failed fetches would have reported, while the flaky link was
// exercised only once. An unsegmented pool is the case of one segment per
// clip.
//
// A pool with exactly one shard is byte-for-byte equivalent to a single
// core.Cache built from the same seed and policy spec: the shard uses the
// master seed directly, the whole capacity, and — when no fetch hook is
// configured — services requests entirely under its lock. With more than
// one shard the partitioning is still deterministic (per-shard seeds derive
// from randutil.Source.Split), but decisions diverge from the single-cache
// run: each shard sees only its own slice of the reference stream and of
// the capacity, so victim choices and per-shard MissTooLarge thresholds
// differ. See DESIGN.md §13 for the full caveat list.
package shard

import (
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// Config describes a pool. Policy, Repo and Capacity are required; the
// policy spec is resolved through the policy registry, so the caller must
// link the implementations it needs (cmd binaries and the sim package link
// every built-in via mediacache/internal/policy/all).
type Config struct {
	// Policy is the registry spec every shard runs, e.g. "greedydual" or
	// "dynsimple:2". Each shard gets its own policy instance.
	Policy string
	// Repo is the clip repository all shards front.
	Repo *media.Repository
	// PMF is the true access-probability vector for off-line policies; nil
	// for on-line ones.
	PMF []float64
	// Capacity is the total cache size S_T, divided across shards (the
	// remainder of Capacity/Shards goes to the lowest-index shards).
	Capacity media.Bytes
	// Seed is the master determinism seed. One shard uses it directly;
	// several shards derive per-shard seeds via Split.
	Seed uint64
	// Shards is the number of partitions; 0 or negative means 1.
	Shards int
	// Fetch, when non-nil, models retrieving missed clips from the remote
	// repository. It is invoked outside any shard lock and concurrent
	// misses for the same clip share one invocation, so it must be safe
	// for concurrent use. Nil means every fetch succeeds instantly and
	// requests run entirely under their shard's lock.
	Fetch core.FetchFunc
	// SegmentSize, when positive, builds every shard with segment-granular
	// residency (core.WithSegments): clips divide into fixed-size segments,
	// RequestRange serves byte ranges, and misses fetch only the missing
	// segments with per-segment coalescing keyed on (clip, segment).
	SegmentSize media.Bytes
	// PrefixSegments, when positive, pins the first N segments of every
	// clip (core.WithPrefixAdmission). Requires SegmentSize.
	PrefixSegments int
	// SegmentFetch, when non-nil, models retrieving one missing segment.
	// Requires SegmentSize. When nil on a segmented pool, Fetch (if set) is
	// consulted once per missing segment — each segment is an independent
	// network transfer, so a flaky link degrades segments independently.
	SegmentFetch core.SegmentFetchFunc
	// TTL, when positive, builds every shard with per-clip expiry
	// (core.WithTTL): a clip materialized at shard-tick t expires at t+TTL.
	// Deadlines are per-shard virtual times, so with several shards a clip's
	// wall lifetime depends on its shard's request rate — the same caveat
	// family as per-shard victim divergence (DESIGN.md §13).
	TTL vtime.Duration
	// ShardOptions, when non-nil, supplies extra engine options per shard
	// (observers, admission hooks). The pool appends its own fetch wiring.
	ShardOptions func(shard int) []core.Option
}

// poolShard is one partition: an engine, its lock, and the slot where
// fetch results are handed to the engine's fetch hook.
type poolShard struct {
	mu    sync.Mutex
	cache *core.Cache
	// staged is the staging slot of the request path (staged.go): the probe
	// collects the keys to fetch in it, and the apply step parks the
	// settled results in it, sorted by key, for the engine's fetch hook.
	// Guarded by mu and emptied before the lock is released.
	staged []fetched
	// plan is the reusable buffer for the engine's per-item fetch plan.
	plan []int32

	// mirror is the engine's published residency view. On unsegmented
	// pools the read-mostly hit path consults it without taking mu; the
	// engine keeps it in sync under mu via core.WithResidencyMirror.
	mirror core.ResidencyMirror
	// touchMu guards the pending-touch buffers. It is never held while
	// acquiring mu (drains swap the buffer out first), so the hot append
	// path contends only on this short critical section.
	touchMu sync.Mutex
	// touches holds fast-path hits whose policy bookkeeping has not yet
	// been replayed into the engine; drained under one mu acquisition.
	touches []media.ClipID
	// touchSpare is the standby buffer swapped in during a drain so the
	// steady state recycles two allocations.
	touchSpare []media.ClipID
	// pending counts touches recorded but not yet replayed into the engine.
	// Incremented inside the touchMu critical section (ordered before the
	// swap-out that leads to the matching decrement, so it never goes
	// negative) and decremented after a batch replays. The TTL fast path
	// reads it to bound how far the engine clock can be ahead of the
	// mirror's published tick.
	pending atomic.Int64
}

// Pool routes requests across hash-partitioned cache shards. All methods
// are safe for concurrent use.
type Pool struct {
	repo *media.Repository
	// link retrieves one segment of a clip from the remote repository —
	// Config.SegmentFetch, or Config.Fetch consulted once per segment. Nil
	// means every fetch succeeds instantly.
	link    core.SegmentFetchFunc
	segSize media.Bytes
	shards  []*poolShard
	flight  flightGroup

	// fastPath enables the lock-reduced hit path: pure hits are served off
	// each shard's published residency mirror and only enqueue a policy
	// touch. Set for unsegmented pools; segment-granular pools account
	// residency per byte range and always take the engine path.
	fastPath bool

	// ttl is the per-clip expiry configured via Config.TTL; zero when
	// expiry is off, in which case the fast path skips deadline checks.
	ttl vtime.Duration

	// fetches counts logical fetch executions (flight leaders); coalesced
	// counts requests that joined an already in-flight fetch.
	fetches atomic.Uint64
	// fastHits counts hits served off the published residency view without
	// the shard lock; touchFlushes counts the batched drains that replayed
	// them into the engines.
	fastHits     atomic.Uint64
	touchFlushes atomic.Uint64
	// batches counts RequestBatch calls.
	batches atomic.Uint64
}

// New builds a pool per cfg.
func New(cfg Config) (*Pool, error) {
	if cfg.Repo == nil {
		return nil, fmt.Errorf("shard: repository must not be nil")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if cfg.Capacity < media.Bytes(n) {
		return nil, fmt.Errorf("shard: capacity %v cannot be split across %d shards", cfg.Capacity, n)
	}
	if cfg.SegmentFetch != nil && cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("shard: SegmentFetch requires SegmentSize")
	}
	if cfg.PrefixSegments > 0 && cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("shard: PrefixSegments requires SegmentSize")
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("shard: TTL must be non-negative, got %d", cfg.TTL)
	}
	p := &Pool{
		repo:     cfg.Repo,
		segSize:  cfg.SegmentSize,
		link:     cfg.SegmentFetch,
		shards:   make([]*poolShard, n),
		fastPath: cfg.SegmentSize == 0,
		ttl:      cfg.TTL,
	}
	if p.link == nil && cfg.Fetch != nil {
		// Each segment is its own network transfer through the same
		// (possibly faulty) link; an unsegmented clip is one segment.
		p.link = func(clip media.Clip, _ int32, now vtime.Time) error {
			return cfg.Fetch(clip, now)
		}
	}
	p.flight.init()
	var src *randutil.Source
	if n > 1 {
		src = randutil.NewSource(cfg.Seed)
	}
	base := cfg.Capacity / media.Bytes(n)
	rem := cfg.Capacity % media.Bytes(n)
	for i := range p.shards {
		seed := cfg.Seed
		if src != nil {
			// Independent per-shard streams; the 1-shard pool keeps the
			// master seed so it reproduces the unsharded cache exactly.
			seed = src.Split(fmt.Sprintf("shard-%d", i)).Uint64()
		}
		capacity := base
		if media.Bytes(i) < rem {
			capacity++
		}
		pol, err := registry.Build(cfg.Policy, cfg.Repo, cfg.PMF, seed)
		if err != nil {
			return nil, err
		}
		s := &poolShard{}
		opts := []core.Option{}
		if cfg.ShardOptions != nil {
			opts = append(opts, cfg.ShardOptions(i)...)
		}
		if p.fastPath {
			opts = append(opts, core.WithResidencyMirror(&s.mirror))
			s.touches = make([]media.ClipID, 0, touchBatchSize+16)
			s.touchSpare = make([]media.ClipID, 0, touchBatchSize+16)
		}
		if cfg.SegmentSize > 0 {
			opts = append(opts, core.WithSegments(cfg.SegmentSize))
			if cfg.PrefixSegments > 0 {
				opts = append(opts, core.WithPrefixAdmission(cfg.PrefixSegments))
			}
		}
		if cfg.TTL > 0 {
			opts = append(opts, core.WithTTL(cfg.TTL))
		}
		if p.link != nil {
			// One hook either way; the engine's whole-clip fetch seam is
			// its segment seam asked for segment 0.
			hook := p.stagedHook(s)
			if cfg.SegmentSize > 0 {
				opts = append(opts, core.WithSegmentFetch(hook))
			} else {
				opts = append(opts, core.WithFetch(func(clip media.Clip, now vtime.Time) error {
					return hook(clip, 0, now)
				}))
			}
		}
		cache, err := core.New(cfg.Repo, capacity, pol, opts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.cache = cache
		p.shards[i] = s
	}
	return p, nil
}

// fastHitOK reports whether the lock-free hit path may serve clip id from
// shard s's published residency view. Without TTL, published residency is
// enough. With TTL the touch this hit enqueues will replay at some future
// engine tick, which must not exceed the clip's deadline; the replay tick
// is estimated as the mirror's published clock plus every touch already
// pending plus the `ahead` touches this caller enqueues first plus one.
// Under serial driving the estimate is exact, so a 1-shard pool with TTL
// stays byte-identical to the bare engine. Under concurrent driving it can
// be off in either direction by in-flight touches — an overestimate falls
// through to the engine path (correct, just slower), an underestimate
// serves a hit the replay then counts under ApplyHit's
// hit-unconditionally contract — the same staleness class as the mirror's
// residency answers (DESIGN.md §15).
func (p *Pool) fastHitOK(s *poolShard, id media.ClipID, ahead int64) bool {
	if p.ttl == 0 {
		return s.mirror.Resident(id)
	}
	dl, ok := s.mirror.Deadline(id)
	if !ok {
		return false
	}
	return dl == 0 || s.mirror.Clock()+vtime.Time(s.pending.Load()+ahead+1) <= dl
}

// Invalidate drops clip id from the owning shard — the pool face of
// core.Cache.Invalidate: residency is dropped, bytes are credited, the
// policy and the published mirror are notified, and no request is counted.
// Returns the freed byte count (zero when the clip was not resident).
func (p *Pool) Invalidate(id media.ClipID) media.Bytes {
	s := p.shards[p.ShardFor(id)]
	p.lockDrained(s)
	defer s.mu.Unlock()
	return s.cache.Invalidate(id)
}

// SweepExpired immediately expires every overdue clip on every shard and
// returns the total dropped. A no-op returning zero when TTL is off.
func (p *Pool) SweepExpired() int {
	var sum int
	if p.ttl > 0 {
		p.eachDrained(func(_ int, c *core.Cache) { sum += c.SweepExpired() })
	}
	return sum
}

// TTL returns the per-clip expiry configured at construction, zero when
// expiry is off.
func (p *Pool) TTL() vtime.Duration { return p.ttl }

// DeadlineOf returns the virtual time (on the owning shard's clock) at
// which resident clip id expires, or zero when TTL is off or the clip is
// not resident.
func (p *Pool) DeadlineOf(id media.ClipID) vtime.Time {
	if p.ttl == 0 {
		return 0
	}
	s := p.shards[p.ShardFor(id)]
	p.lockDrained(s)
	defer s.mu.Unlock()
	return s.cache.DeadlineOf(id)
}

// splitmix64 is the finalizer of the SplitMix64 generator, used as the
// routing hash: clip IDs are dense small integers, and a plain modulo would
// stripe neighbouring IDs across shards in lockstep with any sequential
// access pattern.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardFor returns the index of the shard owning clip id. The mapping is a
// pure function of id and the shard count, so it is stable across runs and
// restarts.
func (p *Pool) ShardFor(id media.ClipID) int {
	return int(splitmix64(uint64(id)) % uint64(len(p.shards)))
}

// NumShards returns the number of partitions.
func (p *Pool) NumShards() int { return len(p.shards) }

// Repository returns the backing repository shared by every shard.
func (p *Pool) Repository() *media.Repository { return p.repo }

// PolicyName returns the display name of the replacement policy (every
// shard runs its own instance of the same technique).
func (p *Pool) PolicyName() string {
	s := p.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Policy().Name()
}

// Fetches returns how many logical fetches the pool has executed (each
// coalesced group counts once).
func (p *Pool) Fetches() uint64 { return p.fetches.Load() }

// Coalesced returns how many requests joined an already in-flight fetch
// instead of starting their own.
func (p *Pool) Coalesced() uint64 { return p.flight.coalesced.Load() }

// Request services a reference to clip id on the owning shard and returns
// the outcome, exactly as core.Cache.Request does on an unsharded cache.
//
// A clip in the shard's published residency view is a hit served without
// the engine lock (readpath.go). Anything else takes the staged path: with
// a fetch hook configured, a miss releases the lock for the duration of the
// (possibly shared) fetch so slow fetches never serialize the shard, then
// re-locks and hands the result to the engine. A clip that became resident
// while the fetch was in flight is simply a hit — the fetched bytes are the
// same bytes a waiter would have received.
func (p *Pool) Request(id media.ClipID) (core.Outcome, error) {
	s := p.shards[p.ShardFor(id)]
	if p.fastPath && p.fastHitOK(s, id, 0) {
		p.recordTouch(s, id)
		return core.Hit, nil
	}
	item := [1]BatchItem{{ID: id}}
	var out [1]BatchResult
	p.serve(s, item[:], nil, out[:])
	return out[0].Outcome, out[0].Err
}

// RequestRange services a reference to bytes [start, start+length) of clip
// id on the owning shard, exactly as core.Cache.RequestRange does on an
// unsharded cache. A negative length means "to the end of the clip".
//
// The range's missing segments are fetched one flight per (clip, segment),
// so concurrent requests for overlapping ranges share the transfer of every
// segment they both miss while disjoint ranges proceed in parallel.
func (p *Pool) RequestRange(id media.ClipID, start, length media.Bytes) (core.RangeResult, error) {
	item := [1]BatchItem{{ID: id, Ranged: true, Start: start, Length: length}}
	var out [1]BatchResult
	p.serve(p.shards[p.ShardFor(id)], item[:], nil, out[:])
	return out[0].Range, out[0].Err
}

// Stats returns the pool-wide statistics: every shard's counters summed
// under one consistent snapshot.
func (p *Pool) Stats() core.Stats {
	var sum core.Stats
	p.eachDrained(func(_ int, c *core.Cache) { sum = sum.Add(c.Stats()) })
	return sum
}

// ShardStat is one shard's view in a consistent pool snapshot.
type ShardStat struct {
	// Index is the shard's position in the pool.
	Index int
	// Stats are the shard engine's accumulated counters.
	Stats core.Stats
	// NumResident is the number of clips cached on this shard.
	NumResident int
	// ResidentSegments is the number of resident segments on this shard;
	// zero on unsegmented pools.
	ResidentSegments int
	// UsedBytes and Capacity describe the shard's slice of the cache.
	UsedBytes media.Bytes
	Capacity  media.Bytes
}

// statOf reads shard i's ShardStat off its engine; the caller holds the
// shard lock.
func statOf(i int, c *core.Cache) ShardStat {
	return ShardStat{
		Index:            i,
		Stats:            c.Stats(),
		NumResident:      c.NumResident(),
		ResidentSegments: c.ResidentSegments(),
		UsedBytes:        c.UsedBytes(),
		Capacity:         c.Capacity(),
	}
}

// ShardStat returns shard i's statistics and occupancy, locking only that
// shard — the cheap path for per-shard metric scrapes.
func (p *Pool) ShardStat(i int) ShardStat {
	s := p.shards[i]
	p.lockDrained(s)
	defer s.mu.Unlock()
	return statOf(i, s.cache)
}

// ShardStats returns every shard's statistics and occupancy under one
// consistent snapshot, in shard-index order.
func (p *Pool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	p.eachDrained(func(i int, c *core.Cache) { out[i] = statOf(i, c) })
	return out
}

// SegmentSize returns the pool's segment granularity, zero when unsegmented.
func (p *Pool) SegmentSize() media.Bytes { return p.segSize }

// PrefixSegments returns the pinned-prefix segment count (zero if unset).
func (p *Pool) PrefixSegments() int {
	return p.shards[0].cache.PrefixSegments() // immutable after New; no lock needed
}

// ResidentSegments returns the number of resident segments across all
// shards; zero on unsegmented pools.
func (p *Pool) ResidentSegments() int {
	var sum int
	p.eachDrained(func(_ int, c *core.Cache) { sum += c.ResidentSegments() })
	return sum
}

// ResidentBytes returns the cached byte total of clip id (the full clip size
// when fully resident, 0 when absent), locking only the owning shard.
func (p *Pool) ResidentBytes(id media.ClipID) media.Bytes {
	s := p.shards[p.ShardFor(id)]
	p.lockDrained(s)
	defer s.mu.Unlock()
	return s.cache.ResidentBytes(id)
}

// ResidentExtentsOf returns clip id's resident bytes as maximal contiguous
// extents in ascending offset order, locking only the owning shard.
func (p *Pool) ResidentExtentsOf(id media.ClipID) []core.Extent {
	s := p.shards[p.ShardFor(id)]
	p.lockDrained(s)
	defer s.mu.Unlock()
	return s.cache.ResidentExtentsOf(id)
}

// Capacity returns the total capacity S_T across all shards.
func (p *Pool) Capacity() media.Bytes {
	var sum media.Bytes
	for _, s := range p.shards {
		sum += s.cache.Capacity() // immutable after New; no lock needed
	}
	return sum
}

// UsedBytes returns the bytes occupied across all shards.
func (p *Pool) UsedBytes() media.Bytes {
	var sum media.Bytes
	p.eachDrained(func(_ int, c *core.Cache) { sum += c.UsedBytes() })
	return sum
}

// FreeBytes returns the unused capacity across all shards.
func (p *Pool) FreeBytes() media.Bytes {
	var sum media.Bytes
	p.eachDrained(func(_ int, c *core.Cache) { sum += c.FreeBytes() })
	return sum
}

// NumResident returns the number of clips cached across all shards.
func (p *Pool) NumResident() int {
	var sum int
	p.eachDrained(func(_ int, c *core.Cache) { sum += c.NumResident() })
	return sum
}

// residentsSnapshot copies every shard's resident clips (each ascending by
// ID) under a consistent all-shards lock.
func (p *Pool) residentsSnapshot() [][]media.Clip {
	per := make([][]media.Clip, len(p.shards))
	p.eachDrained(func(i int, c *core.Cache) { per[i] = core.CollectResidents(c) })
	return per
}

// mergeAscending merges per-shard ascending-ID clip slices into one
// ascending sequence.
func mergeAscending(per [][]media.Clip, yield func(media.Clip) bool) {
	heads := make([]int, len(per))
	for {
		best := -1
		for i, clips := range per {
			if heads[i] >= len(clips) {
				continue
			}
			if best < 0 || clips[heads[i]].ID < per[best][heads[best]].ID {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !yield(per[best][heads[best]]) {
			return
		}
		heads[best]++
	}
}

// Residents returns an iterator over all cached clips in ascending ID
// order. The iteration walks a consistent snapshot taken when the sequence
// is ranged over; concurrent mutations during iteration are not reflected.
func (p *Pool) Residents() iter.Seq[media.Clip] {
	return func(yield func(media.Clip) bool) {
		mergeAscending(p.residentsSnapshot(), yield)
	}
}

// ClipResidency is one resident clip's cached-byte summary in a consistent
// pool listing. On unsegmented pools Bytes is the full clip size and Extents
// is one whole-clip run.
type ClipResidency struct {
	Clip    media.Clip
	Bytes   media.Bytes
	Extents []core.Extent
}

// Residency returns every resident clip's cached-byte summary in ascending
// ID order plus the total used bytes, all under one consistent all-shards
// snapshot. Partially resident clips (segmented pools) are included with
// their actual resident byte totals.
func (p *Pool) Residency() ([]ClipResidency, media.Bytes) {
	var (
		all  []ClipResidency
		used media.Bytes
	)
	p.eachDrained(func(_ int, c *core.Cache) {
		used += c.UsedBytes()
		for clip := range c.Residents() {
			all = append(all, ClipResidency{
				Clip:    clip,
				Bytes:   c.ResidentBytes(clip.ID),
				Extents: c.ResidentExtentsOf(clip.ID),
			})
		}
	})
	sort.Slice(all, func(i, j int) bool { return all[i].Clip.ID < all[j].Clip.ID })
	return all, used
}

// ResidentIDs returns all cached clip ids in ascending order, from one
// consistent snapshot.
func (p *Pool) ResidentIDs() []media.ClipID {
	per := p.residentsSnapshot()
	n := 0
	for _, clips := range per {
		n += len(clips)
	}
	ids := make([]media.ClipID, 0, n)
	mergeAscending(per, func(c media.Clip) bool {
		ids = append(ids, c.ID)
		return true
	})
	return ids
}

// Reset clears every shard's residency, statistics and policy state under
// one consistent lock.
func (p *Pool) Reset() {
	// Pending touches belong to the pre-reset epoch: replay them into the
	// old state first so they cannot leak into the fresh counters.
	p.eachDrained(func(_ int, c *core.Cache) { c.Reset() })
}

// Snapshot captures the pool's persistent state as one core.Snapshot: the
// merged resident set (fully resident clips in ResidentIDs, partially
// resident ones in Partial), the summed statistics, and the summed
// per-shard clocks (the total number of requests processed). A 1-shard pool
// produces exactly the snapshot its underlying cache would.
func (p *Pool) Snapshot() core.Snapshot {
	subs := make([]core.Snapshot, len(p.shards))
	p.eachDrained(func(i int, c *core.Cache) { subs[i] = c.Snapshot() })
	var (
		stats   core.Stats
		clock   vtime.Time
		ids     []media.ClipID
		partial []core.ClipSegments
		ttls    []core.ClipTTL
	)
	for _, sub := range subs {
		stats = stats.Add(sub.Stats)
		clock += sub.Clock
		ids = append(ids, sub.ResidentIDs...)
		partial = append(partial, sub.Partial...)
		ttls = append(ttls, sub.TTLRemaining...)
	}
	// Each shard's lists are ascending but interleave across shards; restore
	// the global ascending order (clip ids are unique across shards). The
	// TTL spans are clock-relative per shard, so merging them needs no
	// rebasing even though the merged clock is the per-shard sum.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(partial, func(i, j int) bool { return partial[i].ID < partial[j].ID })
	sort.Slice(ttls, func(i, j int) bool { return ttls[i].ID < ttls[j].ID })
	return core.Snapshot{
		ResidentIDs:  ids,
		Partial:      partial,
		SegmentSize:  p.segSize,
		Clock:        clock,
		Stats:        stats,
		TTLRemaining: ttls,
	}
}

// Restore replaces the pool's state with the snapshot's, partitioning the
// resident set by the routing hash. The snapshot may come from a pool with
// a different shard count (or from an unsharded cache); the whole snapshot
// is validated against the pool's partitioning before any shard is
// touched, so a failed restore leaves the pool unchanged. The aggregated
// statistics are assigned to shard 0 and every shard's clock starts at the
// snapshot clock.
func (p *Pool) Restore(snap core.Snapshot) error {
	// core validates everything about the snapshot except capacity, which
	// here is per shard: sum each clip's resident bytes onto its owner.
	sizes := make([]media.Bytes, len(p.shards))
	if err := snap.Validate(p.repo, p.segSize, func(id media.ClipID, resident media.Bytes) {
		sizes[p.ShardFor(id)] += resident
	}); err != nil {
		return err
	}
	for i, s := range p.shards {
		if sizes[i] > s.cache.Capacity() {
			return fmt.Errorf("shard: snapshot places %v on shard %d, exceeding its capacity %v (taken with a different shard count?)",
				sizes[i], i, s.cache.Capacity())
		}
	}
	subs := make([]core.Snapshot, len(p.shards))
	for i := range subs {
		subs[i].SegmentSize, subs[i].Clock = snap.SegmentSize, snap.Clock
	}
	subs[0].Stats = snap.Stats
	for _, id := range snap.ResidentIDs {
		sub := &subs[p.ShardFor(id)]
		sub.ResidentIDs = append(sub.ResidentIDs, id)
	}
	for _, cs := range snap.Partial {
		sub := &subs[p.ShardFor(cs.ID)]
		sub.Partial = append(sub.Partial, cs)
	}
	for _, ct := range snap.TTLRemaining {
		sub := &subs[p.ShardFor(ct.ID)]
		sub.TTLRemaining = append(sub.TTLRemaining, ct)
	}
	var err error
	p.eachDrained(func(i int, c *core.Cache) {
		if rerr := c.Restore(subs[i]); rerr != nil && err == nil {
			// Unreachable after the validation above; surface it anyway.
			err = fmt.Errorf("shard %d: %w", i, rerr)
		}
	})
	return err
}
