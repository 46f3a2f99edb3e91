// Package history tracks the last K reference times of every clip in the
// repository, the bookkeeping shared by DYNSimple, IGD, LRU-K and LRU-SK
// (Sections 3.2, 4.1–4.3 of the paper).
//
// A Tracker maintains, for each clip, a ring buffer of its K most recent
// reference timestamps — including clips that are not cache resident, exactly
// as DYNSimple requires ("Dynamic Simple maintains K time stamps for those
// clips that are not in its cache", Section 4.1). From this it derives the
// quantities the policies consume:
//
//   - the backward-K distance Δ_K(i, t) = t − (time of the K-th most recent
//     reference to clip i), the victim criterion of LRU-K and LRU-SK;
//   - the arrival-rate estimate λ_i(t) = K / Δ_K(i, t) and the estimated
//     access frequency f̂_i = λ_i / Σ_j λ_j of DYNSimple;
//   - the estimate-quality metric E = sqrt(Σ_i (f̂_i − f_i)²) of Section 4.1.
//
// The Tracker also supports forgetting per-clip history, the hook used by the
// five-minute-rule style metadata pruning the paper proposes as future work
// (implemented in package fiverule).
package history

import (
	"fmt"
	"math"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// Tracker records the last K reference times for clips 1..N.
type Tracker struct {
	k     int
	n     int
	rings []ring
	// onForget, when set, hears of every history Forget discards.
	onForget func(media.ClipID)
}

// ring is a fixed-capacity buffer of the most recent reference times for one
// clip. times[head] is the most recent reference once count > 0.
type ring struct {
	times []vtime.Time
	head  int
	count int // number of valid entries, <= K
	total uint64
}

// NewTracker returns a Tracker for n clips remembering the last k references
// each. It panics if n or k is not positive; tracker parameters are
// experiment constants, not runtime inputs.
func NewTracker(n, k int) *Tracker {
	if n <= 0 {
		panic(fmt.Sprintf("history: clip count must be positive, got %d", n))
	}
	if k <= 0 {
		panic(fmt.Sprintf("history: K must be positive, got %d", k))
	}
	t := &Tracker{k: k, n: n, rings: make([]ring, n)}
	// One backing array for all rings keeps the tracker cache friendly and
	// allocation light.
	backing := make([]vtime.Time, n*k)
	for i := range t.rings {
		t.rings[i].times = backing[i*k : (i+1)*k : (i+1)*k]
	}
	return t
}

// K returns the history depth.
func (t *Tracker) K() int { return t.k }

// N returns the number of tracked clips.
func (t *Tracker) N() int { return t.n }

// valid reports whether id is a tracked clip identity.
func (t *Tracker) valid(id media.ClipID) bool {
	return id >= 1 && int(id) <= t.n
}

// Observe records a reference to clip id at time now. References must arrive
// in non-decreasing time order. Unknown ids are ignored so the tracker can be
// driven directly from arbitrary traces.
func (t *Tracker) Observe(id media.ClipID, now vtime.Time) {
	if !t.valid(id) {
		return
	}
	r := &t.rings[id-1]
	r.head = t.next(r.head)
	r.times[r.head] = now
	if r.count < t.k {
		r.count++
	}
	r.total++
}

// Count returns the total number of references observed for clip id,
// including references that have aged out of the ring.
func (t *Tracker) Count(id media.ClipID) uint64 {
	if !t.valid(id) {
		return 0
	}
	return t.rings[id-1].total
}

// Tracked returns how many reference times are currently retained for clip
// id (at most K).
func (t *Tracker) Tracked(id media.ClipID) int {
	if !t.valid(id) {
		return 0
	}
	return t.rings[id-1].count
}

// LastTime returns the most recent reference time of clip id. ok is false if
// the clip has never been referenced (or history was forgotten).
func (t *Tracker) LastTime(id media.ClipID) (when vtime.Time, ok bool) {
	if !t.valid(id) {
		return vtime.Never, false
	}
	r := &t.rings[id-1]
	if r.count == 0 {
		return vtime.Never, false
	}
	return r.times[r.head], true
}

// KthLastTime returns the time of the K-th most recent reference to clip id.
// ok is false when fewer than K references are retained.
func (t *Tracker) KthLastTime(id media.ClipID) (when vtime.Time, ok bool) {
	if !t.valid(id) {
		return vtime.Never, false
	}
	r := &t.rings[id-1]
	if r.count < t.k {
		return vtime.Never, false
	}
	return r.times[t.next(r.head)], true
}

// next returns the ring slot after i. With a full ring that slot holds the
// oldest retained reference, the one the next Observe overwrites. It is a
// compare, not a modulo: the K-th-reference lookup is in every victim scan.
func (t *Tracker) next(i int) int {
	if i++; i == t.k {
		return 0
	}
	return i
}

// OldestTracked returns the oldest retained reference time, however many
// references are retained. ok is false when the clip has no history.
func (t *Tracker) OldestTracked(id media.ClipID) (when vtime.Time, ok bool) {
	if !t.valid(id) {
		return vtime.Never, false
	}
	r := &t.rings[id-1]
	if r.count == 0 {
		return vtime.Never, false
	}
	oldest := (r.head - r.count + 1 + t.k) % t.k
	return r.times[oldest], true
}

// BackwardKDistance returns Δ_K(id, now): the interval from now back to the
// K-th most recent reference. Clips with fewer than K references have an
// infinite backward distance, matching the LRU-K convention that such pages
// are preferred victims.
func (t *Tracker) BackwardKDistance(id media.ClipID, now vtime.Time) float64 {
	kth, ok := t.KthLastTime(id)
	if !ok {
		return math.Inf(1)
	}
	return float64(now - kth)
}

// Rate estimates the arrival rate λ_id at time now as described in
// Section 4.1: with K retained references, λ = K / Δ_K. Clips with fewer
// than K references are estimated from the references available; clips with
// no history have rate 0.
func (t *Tracker) Rate(id media.ClipID, now vtime.Time) float64 {
	if !t.valid(id) {
		return 0
	}
	r := &t.rings[id-1]
	if r.count == 0 {
		return 0
	}
	oldest, _ := t.OldestTracked(id)
	span := float64(now - oldest)
	if span <= 0 {
		// Only possible when the sole tracked reference happened right now;
		// treat the clip as maximally hot at one reference per tick.
		return float64(r.count)
	}
	return float64(r.count) / span
}

// EstimatedFrequencies returns f̂_i = λ_i / Σ_j λ_j for every clip
// (indexed by id-1). When no clip has any history the result is all zeros.
func (t *Tracker) EstimatedFrequencies(now vtime.Time) []float64 {
	est := make([]float64, t.n)
	var sum float64
	for i := range est {
		est[i] = t.Rate(media.ClipID(i+1), now)
		sum += est[i]
	}
	if sum == 0 {
		return est
	}
	for i := range est {
		est[i] /= sum
	}
	return est
}

// Forget discards the reference history of clip id, as a metadata-pruning
// rule would (Section 4.1's storage-overhead discussion). The total
// reference count is also cleared.
func (t *Tracker) Forget(id media.ClipID) {
	if !t.valid(id) {
		return
	}
	t.rings[id-1] = ring{times: t.rings[id-1].times}
	if t.onForget != nil {
		t.onForget(id)
	}
}

// OnForget registers fn to hear of every clip whose history Forget (and so
// PruneOlderThan) discards. A policy that keeps residents ranked by this
// history registers here, so that whoever prunes the tracker it exposes
// cannot leave a rank computed from references that no longer exist.
func (t *Tracker) OnForget(fn func(media.ClipID)) { t.onForget = fn }

// Reset discards every clip's history without notifying OnForget: the
// owner resetting its tracker resets what it derived from it too.
func (t *Tracker) Reset() {
	for i := range t.rings {
		t.rings[i] = ring{times: t.rings[i].times}
	}
}

// PruneOlderThan forgets the history of every clip whose most recent
// reference is older than age ticks before now, returning how many clip
// histories were dropped. This is the mechanism behind package fiverule.
func (t *Tracker) PruneOlderThan(now vtime.Time, age vtime.Duration) int {
	dropped := 0
	for i := range t.rings {
		r := &t.rings[i]
		if r.count == 0 {
			continue
		}
		if now-r.times[r.head] > age {
			t.Forget(media.ClipID(i + 1))
			dropped++
		}
	}
	return dropped
}

// TrackedClips returns how many clips currently retain at least one
// reference time. Together with K this bounds the tracker's memory overhead
// (the paper's "4 megabytes for K=2 time stamps of one million clips").
func (t *Tracker) TrackedClips() int {
	n := 0
	for i := range t.rings {
		if t.rings[i].count > 0 {
			n++
		}
	}
	return n
}

// MemoryOverheadBytes estimates the bytes of timestamp metadata currently
// retained, at 8 bytes per stamp (the paper assumes 4-byte stamps; we store
// 64-bit times).
func (t *Tracker) MemoryOverheadBytes() int64 {
	var stamps int64
	for i := range t.rings {
		stamps += int64(t.rings[i].count)
	}
	return stamps * 8
}

// Quality computes the estimate-quality metric of Section 4.1,
// E = sqrt(Σ_i (f̂_i − f_i)²), between an estimated and a true frequency
// vector. It panics if the vectors have different lengths.
func Quality(estimated, truth []float64) float64 {
	if len(estimated) != len(truth) {
		panic(fmt.Sprintf("history: vector lengths differ (%d vs %d)", len(estimated), len(truth)))
	}
	var sum float64
	for i := range estimated {
		d := estimated[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
