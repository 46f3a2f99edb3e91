package shard

import (
	"sync"
	"sync/atomic"

	"mediacache/internal/media"
)

// flightKey identifies one coalescable fetch: one segment of a clip (an
// unsegmented pool's clips are their segment 0). Keying per segment lets
// two requests for disjoint ranges of the same clip fetch in parallel while
// still sharing any segment they both miss.
type flightKey struct {
	id  media.ClipID
	seg int32
}

// flightGroup coalesces concurrent fetches for the same key: the first
// requester becomes the leader and executes the fetch; requesters arriving
// while it is in flight wait for the leader's result instead of fetching
// again. It is a minimal single-purpose variant of the well-known
// singleflight pattern, keyed by (clip ID, segment index).
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall

	// coalesced counts joins of an already in-flight fetch; it is
	// incremented at join time (before waiting) so tests can observe that
	// waiters have piled up while the leader is still fetching.
	coalesced atomic.Uint64
}

// flightCall is one in-flight fetch.
type flightCall struct {
	done sync.WaitGroup // holds one count until the leader settles
	err  error          // written by the leader before done is released
}

// init prepares the group's map; must be called before the first do.
func (g *flightGroup) init() {
	g.m = make(map[flightKey]*flightCall)
}

// do executes fn for key, unless a fetch for key is already in flight, in
// which case it waits for that fetch and returns its error. The call is
// removed from the group before its waiters are released, so a request
// arriving after the result is settled starts a fresh fetch — results are
// shared only within one overlapping burst, never cached.
func (g *flightGroup) do(key flightKey, fn func() error) error {
	g.mu.Lock()
	if c, inFlight := g.m[key]; inFlight {
		g.coalesced.Add(1)
		g.mu.Unlock()
		c.done.Wait()
		return c.err
	}
	c := new(flightCall)
	c.done.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.done.Done()
	return c.err
}
