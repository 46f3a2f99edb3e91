package core

import (
	"errors"
	"fmt"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// EventType classifies an engine event.
type EventType uint8

// Engine event types. For one cacheable miss the engine emits the eviction
// events first (one per victim, in eviction order) and then the concluding
// EventMiss once the incoming clip is resident, so an observer can attribute
// an eviction batch to the miss that caused it without buffering.
const (
	// EventHit: the referenced clip was resident.
	EventHit EventType = iota
	// EventMiss: the referenced clip was fetched and materialized.
	EventMiss
	// EventEviction: a resident clip was swapped out to make room.
	EventEviction
	// EventBypass: a miss was streamed without caching (admission declined
	// or the clip exceeds the cache capacity).
	EventBypass
	// EventRestore: a clip became resident by snapshot restore.
	EventRestore
	// EventFetchFail: a cacheable miss could not be fetched from the remote
	// repository (the WithFetch hook failed); the request was degraded.
	EventFetchFail
	// EventTrim: tail segments of a partially resident clip were evicted
	// without dropping the whole clip. Emitted only by caches built with
	// WithSegments; Bytes carries the trimmed byte count.
	EventTrim
	// EventPartialHit: a request was serviced partly from resident segments
	// while the rest was fetched. Bytes carries the bytes served from cache.
	EventPartialHit
	// EventInvalidate: a resident clip was dropped by explicit invalidation
	// (Cache.Invalidate) or TTL expiry — a catalog event, not a capacity
	// eviction. Bytes carries the resident bytes credited back.
	EventInvalidate
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventHit:
		return "hit"
	case EventMiss:
		return "miss"
	case EventEviction:
		return "eviction"
	case EventBypass:
		return "bypass"
	case EventRestore:
		return "restore"
	case EventFetchFail:
		return "fetch-fail"
	case EventTrim:
		return "trim"
	case EventPartialHit:
		return "partial-hit"
	case EventInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is one engine occurrence: what happened, to which clip, how many
// bytes were involved, at which virtual time. Events are delivered
// synchronously from the request path, so observers must be fast and must
// not call back into the cache.
//
// Bytes is the byte count the event accounts for: the clip size for
// whole-clip hits/misses/evictions, the affected byte subrange for
// segment-granular events (partial hits, trims, per-segment fetch
// failures). Observers should aggregate Bytes, not Clip.Size, so the same
// code is exact under both residency models.
type Event struct {
	Type  EventType
	Clip  media.Clip
	Bytes media.Bytes
	Now   vtime.Time
}

// Observer consumes engine events. Implementations live outside core (the
// metrics and tracing observers in internal/obs); the engine only knows the
// interface.
type Observer interface {
	Observe(Event)
}

// MultiObserver fans one event stream out to several observers in order.
type MultiObserver []Observer

// Observe implements Observer.
func (m MultiObserver) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// CombineObservers returns an observer delivering to every non-nil
// observer in os: nil when none remain, the sole survivor unwrapped (no
// fan-out indirection on the hot path), a MultiObserver otherwise.
func CombineObservers(os ...Observer) Observer {
	kept := make([]Observer, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return MultiObserver(kept)
}

// WithObserver installs an event observer. The engine nil-checks the
// observer on every emission, so a cache built without this option pays
// nothing on the request path (core's alloc and ordering tests pin that).
func WithObserver(o Observer) Option {
	return func(c *Cache) error {
		if o == nil {
			return errors.New("core: WithObserver observer must not be nil")
		}
		c.observer = o
		return nil
	}
}

// emit delivers an event covering bytes bytes of clip if an observer is
// installed. Kept tiny so it inlines into the request path; the nil branch
// is the hot path.
func (c *Cache) emit(t EventType, clip media.Clip, bytes media.Bytes, now vtime.Time) {
	if c.observer != nil {
		c.observer.Observe(Event{Type: t, Clip: clip, Bytes: bytes, Now: now})
	}
}
