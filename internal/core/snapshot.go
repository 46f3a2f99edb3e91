package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// Snapshot captures a cache's persistent state: the resident clip set, the
// virtual clock and the accumulated statistics. It models an FMC device
// powering down with a disk-backed cache (Section 1: "configured with an
// inexpensive magnetic disk drive") — the cached bytes survive, so on
// restart the device restores residency instead of refetching everything.
//
// Policy bookkeeping (reference histories, priorities) is deliberately not
// part of the snapshot: it is advisory state that policies rebuild as
// requests flow, and serializing every policy's internals would couple the
// format to implementation details. Restore notifies the policy of each
// resident clip through OnInsert, the same adoption path used by Warm.
type Snapshot struct {
	// ResidentIDs is the fully resident clip set in ascending id order.
	// (For unsegmented caches that is every resident clip.)
	ResidentIDs []media.ClipID
	// Clock is the virtual time at capture.
	Clock vtime.Time
	// Stats are the accumulated statistics at capture.
	Stats Stats
	// SegmentSize is the capturing cache's segment granularity, zero for
	// unsegmented caches. Snapshots decode with gob, so pre-segment archives
	// read back with a zero here and restore unchanged.
	SegmentSize media.Bytes
	// Partial lists partially resident clips with their resident segment
	// indices in ascending order — present only for segmented captures,
	// sorted by clip id so encoding is deterministic.
	Partial []ClipSegments
	// TTLRemaining carries each resident clip's remaining time-to-live at
	// capture (deadline − clock), ascending by clip id. It is nil when the
	// capturing cache has expiry disabled, so TTL-off and pre-churn archives
	// encode byte-identically (gob omits zero-value fields). Remaining spans
	// are clock-relative rather than absolute deadlines, which makes them
	// portable across restores whose clock bases differ — a sharded pool
	// snapshot sums shard clocks but restores every shard at the snapshot
	// clock, and the cluster rebalance path moves snapshots between nodes
	// with unrelated histories.
	TTLRemaining []ClipTTL
}

// ClipSegments is one partially resident clip in a segmented Snapshot.
type ClipSegments struct {
	ID       media.ClipID
	Segments []int32
}

// ClipTTL is one resident clip's remaining time-to-live in a Snapshot
// taken from a cache with expiry enabled.
type ClipTTL struct {
	ID media.ClipID
	// Remaining is deadline − capture clock; it can be zero or negative for
	// a clip that is overdue but not yet lazily expired, in which case the
	// restoring cache expires it on first touch.
	Remaining vtime.Duration
}

// Snapshot captures the cache's current persistent state.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		Clock:       c.clock,
		Stats:       c.stats,
		SegmentSize: c.segSize,
		ResidentIDs: make([]media.ClipID, 0, c.numResident),
	}
	if c.ttl > 0 {
		s.TTLRemaining = make([]ClipTTL, 0, c.numResident)
	}
	c.ForEachResident(func(clip media.Clip) bool {
		id := clip.ID
		e := &c.entries[id-1]
		if c.ttl > 0 {
			s.TTLRemaining = append(s.TTLRemaining, ClipTTL{ID: id, Remaining: e.deadline - c.clock})
		}
		if e.full() {
			s.ResidentIDs = append(s.ResidentIDs, id)
			return true
		}
		segs := make([]int32, 0, e.resident)
		for i := int32(0); i < e.nSegs; i++ {
			if e.has(i) {
				segs = append(segs, i)
			}
		}
		s.Partial = append(s.Partial, ClipSegments{ID: id, Segments: segs})
		return true
	})
	return s
}

// Validate checks the snapshot against a repository and a cache's
// WithSegments granularity (zero for unsegmented) — everything short of
// capacity, which depends on how the resident set is partitioned. Snapshots
// arrive over the wire, so nothing is trusted: clip ids must exist and be
// listed once, segment lists must be non-empty, in range and strictly
// ascending, TTL spans must name resident clips once each, and the clock
// must be non-negative. visit receives every resident clip with its
// resident byte count (short last segments counted exactly) so the caller
// can sum them against whatever capacity applies.
//
// Granularity compatibility: segment lists restore only at the exact
// segment size they were captured at, while a snapshot of whole clips
// (SegmentSize zero, no Partial — every pre-segment archive) restores into
// any cache by marking every segment of each clip resident.
func (s Snapshot) Validate(repo *media.Repository, segSize media.Bytes, visit func(id media.ClipID, resident media.Bytes)) error {
	if s.SegmentSize != segSize && (s.SegmentSize != 0 || len(s.Partial) > 0) {
		return fmt.Errorf("core: snapshot segment size %v does not match cache segment size %v",
			s.SegmentSize, segSize)
	}
	if s.Clock < 0 {
		return fmt.Errorf("core: snapshot clock %d is negative", s.Clock)
	}
	span := spanFor(repo, segSize)
	seen := make(map[media.ClipID]struct{}, len(s.ResidentIDs)+len(s.Partial))
	lookup := func(id media.ClipID) (media.Clip, error) {
		clip, ok := repo.Lookup(id)
		if !ok {
			return clip, fmt.Errorf("core: snapshot references unknown clip %d", id)
		}
		if _, dup := seen[id]; dup {
			return clip, fmt.Errorf("core: snapshot lists clip %d twice", id)
		}
		seen[id] = struct{}{}
		return clip, nil
	}
	for _, id := range s.ResidentIDs {
		clip, err := lookup(id)
		if err != nil {
			return err
		}
		visit(id, clip.Size)
	}
	for _, ps := range s.Partial {
		clip, err := lookup(ps.ID)
		if err != nil {
			return err
		}
		if len(ps.Segments) == 0 {
			return fmt.Errorf("core: snapshot lists clip %d as partial with no segments", ps.ID)
		}
		n := segmentsOf(clip.Size, span)
		prev := int32(-1)
		var resident media.Bytes
		for _, seg := range ps.Segments {
			if seg < 0 || seg >= n {
				return fmt.Errorf("core: snapshot segment %d of clip %d out of range [0,%d)", seg, ps.ID, n)
			}
			if seg <= prev {
				return fmt.Errorf("core: snapshot segments of clip %d not strictly ascending", ps.ID)
			}
			prev = seg
			resident += segmentBytes(clip.Size, seg, span)
		}
		visit(ps.ID, resident)
	}
	ttlSeen := make(map[media.ClipID]struct{}, len(s.TTLRemaining))
	for _, ct := range s.TTLRemaining {
		if _, resident := seen[ct.ID]; !resident {
			return fmt.Errorf("core: snapshot carries a TTL for non-resident clip %d", ct.ID)
		}
		if _, dup := ttlSeen[ct.ID]; dup {
			return fmt.Errorf("core: snapshot lists clip %d's TTL twice", ct.ID)
		}
		ttlSeen[ct.ID] = struct{}{}
	}
	return nil
}

// Restore replaces the cache's state with the snapshot's. The snapshot must
// pass Validate and fit the capacity; otherwise it is rejected, leaving the
// cache untouched. The policy is reset and re-warmed via OnInsert.
func (c *Cache) Restore(s Snapshot) error {
	var total media.Bytes
	if err := s.Validate(c.repo, c.segSize, func(_ media.ClipID, b media.Bytes) { total += b }); err != nil {
		return err
	}
	if total > c.capacity {
		return fmt.Errorf("core: snapshot holds %v, exceeding capacity %v", total, c.capacity)
	}
	c.clearResidency()
	c.clock = s.Clock
	c.mirror.setClock(c.clock)
	c.lastSweep = s.Clock
	c.stats = s.Stats
	c.policy.Reset()
	// Clips whose snapshot carries a remaining TTL resume it relative to
	// the restore clock (the cluster rebalance path depends on deadlines
	// surviving the move); clips without one — pre-churn archives, or
	// captures from a TTL-off cache — get a fresh TTL from the restore
	// point, since their remaining life is unknowable.
	rem := make(map[media.ClipID]vtime.Duration, len(s.TTLRemaining))
	for _, ct := range s.TTLRemaining {
		rem[ct.ID] = ct.Remaining
	}
	restore := func(id media.ClipID, segs []int32) {
		deadline := c.deadlineFrom(c.clock)
		if r, ok := rem[id]; ok && c.ttl > 0 {
			deadline = c.clock + r
		}
		clip := c.repo.Clip(id)
		c.emit(EventRestore, clip, c.adopt(clip, segs, deadline), c.clock)
	}
	for _, id := range s.ResidentIDs {
		restore(id, nil)
	}
	for _, ps := range s.Partial {
		restore(ps.ID, ps.Segments)
	}
	return nil
}

// WriteSnapshot serializes the snapshot with encoding/gob.
func (s Snapshot) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return s, nil
}
