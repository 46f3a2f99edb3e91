package conformance

// oracle_test.go is the brute-force reference every replacement technique is
// checked against. It shares no code with the policies: each victim comes
// from the technique's formula, evaluated for every resident the engine's
// ResidentView reports, and a plain linear minimum over them — no index, no
// stored order, no history package. Ties are broken in the order each
// technique documents, and by the seeded draw where it draws.

import (
	"math"
	"slices"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// technique names the formula an oracle evaluates.
type technique int

const (
	// techGreedyDual: H = L + cost/size, stamped when a clip is inserted or hit;
	// evict the minimum H (ties drawn at random), and L rises to it.
	techGreedyDual technique = iota
	// techGDFreq: GreedyDual with numerator nref·cost, nref counting references
	// since the clip became resident.
	techGDFreq
	// techGDSP: GreedyDual with numerator f^β·cost, f counting every reference
	// ever made to the clip.
	techGDSP
	// techLFU: evict the fewest in-cache references first, then the least recent
	// reference, then the lower id. With aging (LFU-DA) the count is stamped
	// with L added, and L rises to the largest evicted priority.
	techLFU
	// techSimple: evict the smallest f/size first, then the larger clip, then
	// the lower id.
	techSimple
	// techLRUK: evict the largest backward-K distance first (fewer than K
	// references is infinite), then the least recent reference, then the
	// lower id.
	techLRUK
	// techLRUSK: evict the largest Δ_K·size first; among infinite ones the larger
	// clip, then the least recent reference, then the lower id.
	techLRUSK
	// techDYNSimple: evict the smallest estimated byte-freq (m/span)/size first,
	// then the larger clip, then the lower id; with refinement the gathered
	// victims are then taken largest first until the need is met.
	techDYNSimple
	// techIGD: evict the minimum L(x) + nref/(Δ_K·size) with Δ_K taken now (or
	// frozen at touch time), ties drawn at random; L rises to it.
	techIGD
	// techRandom: a seeded Fisher-Yates shuffle of the residents.
	techRandom
)

// oracle is a core.Policy, core.SegmentAware and core.Binder evaluating one
// technique's formula by brute force. Build it with newOracle and set the
// technique's parameters before the first request.
type oracle struct {
	tech technique
	k    int    // reference-history depth
	seed uint64 // tie-break or shuffle seed

	cost   func(media.Clip) float64 // GreedyDual family's cost
	beta   float64                  // GDSP's popularity exponent
	aging  bool                     // LFU-DA
	freq   []float64                // Simple's true frequencies, by id-1
	colder bool                     // Simple's no-cache-colder admission
	refine bool                     // DYNSimple's second phase
	frozen bool                     // IGD's frozen-aging ablation

	src   *randutil.Source
	l     float64 // inflation
	clips map[media.ClipID]*record
	view  core.ResidentView
}

// record is what the oracle knows of one clip.
type record struct {
	refs     []vtime.Time // last k reference times, oldest first
	count    uint64       // nref, LFU's count or GDSP's f
	h        float64      // stamped priority; stamped reports one exists
	last     vtime.Time   // LFU's stamped reference time
	stamped  bool
	resident media.Bytes // resident bytes of a partially resident clip, else 0
	baseL    float64     // IGD's L(x)
}

func newOracle(tech technique, k int, seed uint64) *oracle {
	o := &oracle{tech: tech, k: k, seed: seed, cost: func(media.Clip) float64 { return 1 }}
	o.Reset()
	return o
}

func (o *oracle) rec(id media.ClipID) *record {
	r := o.clips[id]
	if r == nil {
		r = &record{}
		o.clips[id] = r
	}
	return r
}

func (o *oracle) Name() string { return "oracle" }

func (o *oracle) Bind(view core.ResidentView) { o.view = view }

// Forget drops clip id's reference history, as a pruned tracker does.
func (o *oracle) Forget(id media.ClipID) { o.rec(id).refs = nil }

func (o *oracle) Reset() {
	o.src = randutil.NewSource(o.seed)
	o.l = 0
	o.clips = make(map[media.ClipID]*record)
}

func (o *oracle) Record(clip media.Clip, now vtime.Time, hit bool) {
	r := o.rec(clip.ID)
	if o.k > 0 {
		r.refs = append(r.refs, now)
		if len(r.refs) > o.k {
			r.refs = r.refs[1:]
		}
	}
	switch o.tech {
	case techGDSP:
		r.count++
	case techGDFreq, techLFU, techIGD:
		if hit {
			r.count++
		}
	}
	if hit {
		o.touch(clip, now)
	}
}

func (o *oracle) Admit(clip media.Clip, _ vtime.Time) bool {
	if !o.colder || clip.Size <= o.view.FreeBytes() {
		return true
	}
	coldest := o.prefix(core.CollectResidents(o.view), 1, 0)
	return len(coldest) > 0 && o.byteFreq(coldest[0]) < o.byteFreq(clip)
}

func (o *oracle) OnInsert(clip media.Clip, now vtime.Time) {
	switch o.tech {
	case techGDFreq, techLFU:
		o.rec(clip.ID).count = 1
	case techIGD:
		o.adopt(clip, now)
		return
	}
	o.touch(clip, now)
}

func (o *oracle) OnEvict(id media.ClipID, _ vtime.Time) {
	r := o.rec(id)
	if o.tech != techGDSP {
		r.count = 0
	}
	r.stamped, r.resident, r.baseL = false, 0, 0
}

// OnResidentBytes is the partial-size overlay of the GreedyDual family and
// IGD: a partially resident clip is sized by its resident bytes. The other
// techniques rank whole clips and ignore it.
func (o *oracle) OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	r := o.rec(clip.ID)
	switch o.tech {
	case techGreedyDual, techGDFreq, techGDSP, techIGD:
		r.resident = 0
		if resident > 0 && resident < clip.Size {
			r.resident = resident
		}
	default:
		return
	}
	switch {
	case o.tech == techIGD:
		if o.frozen && r.count > 0 {
			r.h = o.igdLive(clip, now)
		}
	case r.stamped:
		o.touch(clip, now)
	}
}

// size is the bytes a clip occupies: its resident bytes when partial.
func (o *oracle) size(c media.Clip) float64 {
	if b := o.rec(c.ID).resident; b != 0 {
		return float64(b)
	}
	return float64(c.Size)
}

// touch stamps the priority of the techniques that fix it when a clip is
// inserted or referenced.
func (o *oracle) touch(c media.Clip, now vtime.Time) {
	r := o.rec(c.ID)
	switch o.tech {
	case techGreedyDual:
		r.h = o.l + o.cost(c)/o.size(c)
	case techGDFreq:
		if r.count == 0 {
			r.count = 1 // a resident the oracle never saw inserted
		}
		r.h = o.l + float64(r.count)*o.cost(c)/o.size(c)
	case techGDSP:
		r.h = o.l + math.Pow(float64(r.count), o.beta)*o.cost(c)/o.size(c)
	case techLFU:
		r.h = float64(r.count)
		if o.aging {
			r.h = o.l + float64(r.count)
		}
		r.last = now
	case techIGD:
		r.baseL = o.l
		if o.frozen {
			r.h = o.igdLive(c, now)
		}
	default:
		return
	}
	r.stamped = true
}

// adopt registers an IGD resident at the current inflation with nref = 1.
func (o *oracle) adopt(c media.Clip, now vtime.Time) {
	r := o.rec(c.ID)
	fresh := r.count == 0
	r.count, r.baseL = 1, o.l
	if o.frozen && fresh {
		r.h, r.stamped = o.igdLive(c, now), true
	}
}

// kth returns the K-th most recent reference time, if there are K.
func (o *oracle) kth(id media.ClipID) (vtime.Time, bool) {
	refs := o.rec(id).refs
	if len(refs) < o.k {
		return 0, false
	}
	return refs[0], true
}

// lastRef returns the most recent reference time, 0 without one.
func (o *oracle) lastRef(id media.ClipID) vtime.Time {
	if refs := o.rec(id).refs; len(refs) > 0 {
		return refs[len(refs)-1]
	}
	return 0
}

// igdLive is L(x) + nref/(Δ_K·size) with Δ_K at now, at least one tick.
func (o *oracle) igdLive(c media.Clip, now vtime.Time) float64 {
	r := o.rec(c.ID)
	kth, ok := o.kth(c.ID)
	if !ok {
		return r.baseL
	}
	delta := float64(now - kth)
	if delta <= 0 {
		delta = 1
	}
	return r.baseL + float64(r.count)/(delta*o.size(c))
}

// byteFreq is Simple's f/size.
func (o *oracle) byteFreq(c media.Clip) float64 {
	if i := int(c.ID) - 1; i >= 0 && i < len(o.freq) {
		return o.freq[i] / float64(c.Size)
	}
	return 0
}

// score is the priority of the minimum-priority techniques, adopting a
// resident they hold no priority for.
func (o *oracle) score(c media.Clip, now vtime.Time) float64 {
	r := o.rec(c.ID)
	if o.tech == techIGD {
		if r.count == 0 {
			o.adopt(c, now)
		}
		if o.frozen {
			return r.h
		}
		return o.igdLive(c, now)
	}
	if !r.stamped {
		o.touch(c, now)
	}
	return r.h
}

// before reports whether a is the better victim than b at now, for the
// techniques that evict a prefix of the residents in victim order.
func (o *oracle) before(a, b media.Clip, now vtime.Time) bool {
	switch o.tech {
	case techLFU:
		ra, rb := o.rec(a.ID), o.rec(b.ID)
		if ra.h != rb.h {
			return ra.h < rb.h
		}
		if ra.last != rb.last {
			return ra.last < rb.last
		}
	case techSimple:
		if fa, fb := o.byteFreq(a), o.byteFreq(b); fa != fb {
			return fa < fb
		}
		if a.Size != b.Size {
			return a.Size > b.Size
		}
	case techLRUK:
		ka, oka := o.kth(a.ID)
		kb, okb := o.kth(b.ID)
		if oka != okb {
			return !oka
		}
		if ka != kb {
			return ka < kb
		}
		if la, lb := o.lastRef(a.ID), o.lastRef(b.ID); la != lb {
			return la < lb
		}
	case techLRUSK:
		sa, sb := o.distanceBytes(a, now), o.distanceBytes(b, now)
		if sa != sb {
			return sa > sb
		}
		if math.IsInf(sa, 1) && a.Size != b.Size {
			return a.Size > b.Size
		}
		if la, lb := o.lastRef(a.ID), o.lastRef(b.ID); la != lb {
			return la < lb
		}
	case techDYNSimple:
		if fa, fb := o.estimatedByteFreq(a, now), o.estimatedByteFreq(b, now); fa != fb {
			return fa < fb
		}
		if a.Size != b.Size {
			return a.Size > b.Size
		}
	}
	return a.ID < b.ID
}

// distanceBytes is LRU-SK's Δ_K·size, +Inf below K references.
func (o *oracle) distanceBytes(c media.Clip, now vtime.Time) float64 {
	kth, ok := o.kth(c.ID)
	if !ok {
		return math.Inf(1)
	}
	return float64(now-kth) * float64(c.Size)
}

// estimatedByteFreq is DYNSimple's λ/size with λ = m/(now − oldest) over the
// m ≤ K tracked references, m itself when the span is not positive.
func (o *oracle) estimatedByteFreq(c media.Clip, now vtime.Time) float64 {
	refs := o.rec(c.ID).refs
	rate := float64(len(refs))
	if len(refs) > 0 {
		if span := float64(now - refs[0]); span > 0 {
			rate /= span
		}
	}
	return rate / float64(c.Size)
}

// prefix returns residents in victim order, each the linear minimum of those
// left, until they cover need bytes.
func (o *oracle) prefix(residents []media.Clip, need media.Bytes, now vtime.Time) []media.Clip {
	var out []media.Clip
	var freed media.Bytes
	for freed < need && len(residents) > 0 {
		best := 0
		for i := range residents {
			if o.before(residents[i], residents[best], now) {
				best = i
			}
		}
		out = append(out, residents[best])
		freed += residents[best].Size
		residents = slices.Delete(residents, best, best+1)
	}
	return out
}

func (o *oracle) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	residents := core.CollectResidents(view)
	if len(residents) == 0 {
		return nil
	}
	var victims []media.Clip
	switch o.tech {
	case techGreedyDual, techGDFreq, techGDSP, techIGD:
		// The minimum priority; ties ascend by id, and one is drawn.
		var minH float64
		for i, c := range residents {
			switch h := o.score(c, now); {
			case i == 0 || h < minH:
				minH, victims = h, append(victims[:0], c)
			case h == minH:
				victims = append(victims, c)
			}
		}
		if o.tech != techIGD || minH > o.l {
			o.l = minH
		}
		if len(victims) > 1 {
			victims[0] = victims[o.src.Intn(len(victims))]
		}
		victims = victims[:1]
	case techRandom:
		for i := len(residents) - 1; i > 0; i-- {
			j := o.src.Intn(i + 1)
			residents[i], residents[j] = residents[j], residents[i]
		}
		victims = takeUntil(residents, need)
	case techLFU:
		for _, c := range residents {
			if !o.rec(c.ID).stamped {
				o.OnInsert(c, 0) // a resident never seen inserted
			}
		}
		victims = o.prefix(residents, need, now)
		if n := len(victims); n > 0 && o.aging && o.rec(victims[n-1].ID).h > o.l {
			o.l = o.rec(victims[n-1].ID).h
		}
	default:
		victims = o.prefix(residents, need, now)
		if o.tech == techDYNSimple && o.refine {
			slices.SortFunc(victims, func(a, b media.Clip) int {
				if a.Size != b.Size {
					return int(b.Size - a.Size)
				}
				return int(a.ID) - int(b.ID)
			})
			victims = takeUntil(victims, need)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	ids := make([]media.ClipID, len(victims))
	for i, c := range victims {
		ids[i] = c.ID
	}
	return ids
}

// takeUntil returns the leading clips that cover need bytes.
func takeUntil(clips []media.Clip, need media.Bytes) []media.Clip {
	var freed media.Bytes
	for i, c := range clips {
		if freed >= need {
			return clips[:i]
		}
		freed += c.Size
	}
	return clips
}
