package core

// ttl.go implements catalog dynamics (ISSUE 8): explicit invalidation and
// per-clip TTL expiry. Both drop residency and credit bytes back without
// ticking the virtual clock or touching the request counters, so the
// counting identity Requests == Hits + MissCached + Bypassed + FetchFailed
// and the byte identity BytesHit + BytesFetched + BytesFailed ==
// BytesReferenced hold by construction under any purge/expiry schedule.
//
// Expiry is lazy-plus-amortized: each request checks only the clip it
// references, and a sweep over the resident index runs every sweepEvery
// ticks. The sweep rides the ordinary request path (RequestRange and
// ApplyHit both tick the clock), so the PR 7 lock-reduced front-end
// needs no extra engine interaction: batched-touch drains replay through
// ApplyHit and thereby advance the sweep too, keeping pure hits zero-lock.

import (
	"fmt"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// WithTTL gives every clip materialized in the cache a time-to-live of ttl
// virtual ticks: a clip inserted at time t expires at t+ttl and is dropped
// by the next request-path check or amortized sweep that observes the
// deadline passed. ttl must be positive; a cache built without this option
// never expires anything.
func WithTTL(ttl vtime.Duration) Option {
	return func(c *Cache) error {
		if ttl <= 0 {
			return fmt.Errorf("core: TTL must be positive, got %d", ttl)
		}
		c.ttl = ttl
		return nil
	}
}

// TTL returns the per-clip time-to-live in virtual ticks, or zero when
// expiry is disabled.
func (c *Cache) TTL() vtime.Duration { return c.ttl }

// DeadlineOf returns the virtual time at which resident clip id expires,
// or zero when expiry is disabled or the clip is not resident.
func (c *Cache) DeadlineOf(id media.ClipID) vtime.Time {
	return c.at(id).deadline
}

// deadlineFrom returns the expiry deadline of a clip becoming resident at
// time now: zero when expiry is off.
func (c *Cache) deadlineFrom(now vtime.Time) vtime.Time {
	if c.ttl == 0 {
		return 0
	}
	return now + vtime.Time(c.ttl)
}

// due reports whether e has resident segments whose deadline has passed at
// time now.
func (c *Cache) due(e *entry, now vtime.Time) bool {
	return c.ttl > 0 && e.resident > 0 && now > e.deadline
}

// Invalidate drops clip id from the cache — a catalog event (the clip
// perished upstream), not a capacity eviction. Every resident segment is
// dropped, the bytes are credited back, the policy and any attached
// ResidencyMirror are notified, and Stats.Invalidated/BytesInvalidated
// accrue. Invalidation ticks no clock and counts no request. The freed byte
// count is returned; invalidating a non-resident clip is a no-op returning
// zero.
func (c *Cache) Invalidate(id media.ClipID) media.Bytes {
	return c.invalidate(id, c.clock, false)
}

// invalidate is the shared implementation behind Invalidate and TTL expiry.
// Unlike a capacity trim this is not an eviction, so SegmentsEvicted and
// the eviction counters stay untouched.
func (c *Cache) invalidate(id media.ClipID, now vtime.Time, expired bool) media.Bytes {
	if !c.Resident(id) {
		return 0
	}
	e := &c.entries[id-1]
	freed := e.resBytes
	c.residentSegs -= int(e.resident)
	e.reset()
	c.unmarkResident(id)
	c.mirror.remove(id)
	c.used -= freed
	c.stats.Invalidated++
	if expired {
		c.stats.Expired++
	}
	c.stats.BytesInvalidated += freed
	c.policy.OnEvict(id, now)
	c.emit(EventInvalidate, c.repo.Clip(id), freed, now)
	return freed
}

// SweepExpired immediately drops every resident clip whose TTL deadline has
// passed, regardless of the amortized sweep cadence, and returns how many
// clips were dropped. A no-op (returning zero) when expiry is disabled.
func (c *Cache) SweepExpired() int {
	return c.sweepExpired(c.clock)
}

// sweepExpired walks the resident set in ascending ID order collecting
// expired clips, then invalidates them in that order, which keeps the
// OnEvict/event stream deterministic for a given request history.
func (c *Cache) sweepExpired(now vtime.Time) int {
	if c.ttl == 0 {
		return 0
	}
	c.expireScratch = c.expireScratch[:0]
	c.ForEachResident(func(clip media.Clip) bool {
		if now > c.entries[clip.ID-1].deadline {
			c.expireScratch = append(c.expireScratch, clip.ID)
		}
		return true
	})
	for _, id := range c.expireScratch {
		c.invalidate(id, now, true)
	}
	return len(c.expireScratch)
}

// maybeSweep runs the amortized expiry sweep when sweepEvery ticks have
// elapsed since the last one. Called from every clock-advancing path.
func (c *Cache) maybeSweep(now vtime.Time) {
	if now-c.lastSweep >= c.sweepEvery {
		c.lastSweep = now
		c.sweepExpired(now)
	}
}
