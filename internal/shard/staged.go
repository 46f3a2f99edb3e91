package shard

// staged.go is the pool's one request path. Every reference — a whole
// clip, a byte range, or a shard's slice of a batch — is serviced by the
// same three stages:
//
//  1. probe: under the shard lock, ask the engine which (clip, segment)
//     fetches the items would trigger (core.Cache.AppendFetchPlan — it
//     clamps the range and applies the too-large and TTL-due checks);
//  2. fetch: outside the lock, run one flight per distinct key, sharing
//     flights with every concurrent request that misses the same segment;
//  3. apply: under the lock again, service the items in submission order
//     with the results staged where the engine's fetch hook finds them.
//
// When nothing needs fetching the items are applied under the probe's lock
// acquisition, and a pool without a fetch hook skips the probe altogether.

import (
	"cmp"
	"slices"
	"sync"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// fetched is the settled result of one flight.
type fetched struct {
	key flightKey
	err error
}

func compareKeys(a, b flightKey) int {
	return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.seg, b.seg))
}

// fetch retrieves one segment over the configured link, counting it as a
// logical fetch.
func (p *Pool) fetch(clip media.Clip, seg int32, now vtime.Time) error {
	p.fetches.Add(1)
	return p.link(clip, seg, now)
}

// fly fetches key's segment through the flight group: the leader consults
// the link, everyone else shares its result.
func (p *Pool) fly(key flightKey, now vtime.Time) error {
	return p.flight.do(key, func() error {
		return p.fetch(p.repo.Clip(key.id), key.seg, now)
	})
}

// stagedHook builds shard s's engine fetch hook: it hands the engine the
// result staged for the segment, and falls through to a direct fetch under
// the lock for a segment the probe did not plan — one evicted, expired or
// first referenced between probe and apply.
func (p *Pool) stagedHook(s *poolShard) core.SegmentFetchFunc {
	return func(clip media.Clip, seg int32, now vtime.Time) error {
		key := flightKey{id: clip.ID, seg: seg}
		if i, ok := slices.BinarySearchFunc(s.staged, key, func(f fetched, k flightKey) int {
			return compareKeys(f.key, k)
		}); ok {
			return s.staged[i].err
		}
		return p.fetch(clip, seg, now)
	}
}

// serve services the items of one shard in submission order, writing each
// result to its position in out. idxs lists the positions in items owned by
// shard s; nil means all of them.
func (p *Pool) serve(s *poolShard, items []BatchItem, idxs []int, out []BatchResult) {
	n := groupLen(items, idxs)
	apply := func() {
		for k := 0; k < n; k++ {
			i := itemAt(idxs, k)
			it := &items[i]
			if it.Ranged {
				res, err := s.cache.RequestRange(it.ID, it.Start, it.Length)
				out[i] = BatchResult{Outcome: res.Outcome, Range: res, Err: err}
			} else {
				o, err := s.cache.Request(it.ID)
				out[i] = BatchResult{Outcome: o, Err: err}
			}
		}
	}

	p.lockDrained(s)
	defer s.mu.Unlock()
	if p.link == nil {
		apply()
		return
	}

	// Probe. Item k is serviced k ticks after the first, which is when its
	// TTL deadline is judged. Keys collect in the shard's staging slot,
	// which the lock makes ours.
	now := s.cache.Now() + 1
	s.staged = s.staged[:0]
	for k := 0; k < n; k++ {
		it := &items[itemAt(idxs, k)]
		start, length := media.Bytes(0), media.Bytes(-1)
		if it.Ranged {
			start, length = it.Start, it.Length
		}
		s.plan = s.cache.AppendFetchPlan(s.plan[:0], it.ID, start, length, now+vtime.Time(k))
		for _, seg := range s.plan {
			s.staged = append(s.staged, fetched{key: flightKey{id: it.ID, seg: seg}})
		}
	}
	if n > 1 {
		slices.SortFunc(s.staged, func(a, b fetched) int { return compareKeys(a.key, b.key) })
		s.staged = slices.CompactFunc(s.staged, func(a, b fetched) bool { return a.key == b.key })
	}
	if len(s.staged) == 0 {
		apply()
		return
	}

	// Fetch outside the lock; the slot is not ours while it is released, so
	// the keys leave it — the first onto the stack, which is all of them for
	// a single-segment miss. This goroutine flies the first key itself. The
	// engine stamps fetches with the servicing request's tick; the best
	// estimate before re-locking is the next tick of this shard's clock.
	first, rest := s.staged[0], slices.Clone(s.staged[1:])
	s.staged = s.staged[:0]
	s.mu.Unlock()
	if len(rest) == 0 {
		first.err = p.fly(first.key, now)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(rest))
		for i := range rest {
			go func(f *fetched) {
				defer wg.Done()
				f.err = p.fly(f.key, now)
			}(&rest[i])
		}
		first.err = p.fly(first.key, now)
		wg.Wait()
	}
	p.lockDrained(s)

	s.staged = append(append(s.staged[:0], first), rest...)
	apply()
	s.staged = s.staged[:0]
}
