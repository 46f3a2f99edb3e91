package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// ResidencyMirror is a concurrently readable mirror of a cache's resident
// clip set. The engine itself is single-threaded and its residency table must
// never be read while another goroutine mutates it; a mirror gives callers
// that hold no lock (the sharded pool's read-mostly hit path) a published
// view they can consult without serializing on the engine.
//
// The engine publishes every residency transition — insert, eviction,
// invalidation, warm, reset, restore, segment adoption and trim-to-empty —
// while it holds whatever lock its owner wraps it in, so a reader observes
// each clip's residency at some point in the recent past: the view is
// always a state the cache actually passed through, never a torn or
// invented one. Readers must still treat an answer as a hint — the clip can
// be evicted between the lookup and whatever the reader does with it — and
// re-validate under the engine lock when exactness matters.
//
// Under TTL expiry (WithTTL) each entry carries the clip's expiry deadline,
// published together with residency, and the engine additionally publishes
// its virtual clock after every tick, so a lock-free reader can bound "is
// this clip still live at my tick?" without touching the engine (see the
// sharded pool's fast path).
//
// The zero value is ready to use. All methods are safe for concurrent use.
type ResidencyMirror struct {
	set   sync.Map // media.ClipID -> vtime.Time (expiry deadline; 0 = none)
	n     atomic.Int64
	clock atomic.Int64 // engine virtual clock at the last published tick
}

// Resident reports whether clip id was resident at the last published
// transition affecting it.
func (m *ResidencyMirror) Resident(id media.ClipID) bool {
	_, ok := m.set.Load(id)
	return ok
}

// Deadline returns clip id's published expiry deadline and whether the clip
// was resident at the last published transition. A zero deadline on a
// resident clip means it never expires (TTL disabled).
func (m *ResidencyMirror) Deadline(id media.ClipID) (vtime.Time, bool) {
	v, ok := m.set.Load(id)
	if !ok {
		return 0, false
	}
	return v.(vtime.Time), true
}

// Clock returns the engine virtual time at the last published tick. It lags
// the true clock by at most the owner's undrained touches; see the sharded
// pool for how readers bound that lag.
func (m *ResidencyMirror) Clock() vtime.Time {
	return vtime.Time(m.clock.Load())
}

// setClock publishes the engine's virtual clock; called after every clock
// change so lock-free readers can bound staleness. Like the other
// publishing methods it is a no-op on a nil mirror, which is what a cache
// built without WithResidencyMirror holds.
func (m *ResidencyMirror) setClock(now vtime.Time) {
	if m != nil {
		m.clock.Store(int64(now))
	}
}

// Len returns the number of clips in the published view.
func (m *ResidencyMirror) Len() int { return int(m.n.Load()) }

// add publishes clip id as resident together with its expiry deadline
// (zero = never expires), so lock-free readers see residency and expiry
// atomically.
func (m *ResidencyMirror) add(id media.ClipID, deadline vtime.Time) {
	if m == nil {
		return
	}
	if _, loaded := m.set.Swap(id, deadline); !loaded {
		m.n.Add(1)
	}
}

// remove publishes clip id as no longer resident.
func (m *ResidencyMirror) remove(id media.ClipID) {
	if m == nil {
		return
	}
	if _, loaded := m.set.LoadAndDelete(id); loaded {
		m.n.Add(-1)
	}
}

// clear empties the published view.
func (m *ResidencyMirror) clear() {
	if m == nil {
		return
	}
	m.set.Range(func(k, _ any) bool {
		m.set.Delete(k)
		return true
	})
	m.n.Store(0)
}

// WithResidencyMirror attaches a mirror the engine keeps in sync with its
// resident set. The mirror may be read concurrently with engine operation;
// see ResidencyMirror for the exact guarantees.
func WithResidencyMirror(m *ResidencyMirror) Option {
	return func(c *Cache) error {
		if m == nil {
			return errors.New("core: WithResidencyMirror mirror must not be nil")
		}
		c.mirror = m
		return nil
	}
}
