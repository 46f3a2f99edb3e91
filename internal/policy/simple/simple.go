// Package simple implements the off-line Simple technique of Section 3.1
// (originally from Ghandeharizadeh et al., DMS 2006 [11]).
//
// Simple is given the true frequency of access f_i to every clip. It ranks
// clips by byte-freq = f_i / s_i, the frequency of access to each byte, and
// keeps the clips with the highest byte-freq cache resident. On a miss the
// incoming clip is materialized (the paper's default), evicting the resident
// clips with the smallest byte-freq.
//
// The package also provides the variant discussed in Section 3.3 that does
// not cache a referenced clip whose byte-freq is smaller than that of every
// clip it would displace; the paper reports it performs the same or slightly
// better.
package simple

import (
	"fmt"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/prioindex"
	"mediacache/internal/vtime"
)

// Policy is the off-line Simple technique. It implements core.Policy.
type Policy struct {
	freq []float64 // true access frequency by clip id-1
	// noCacheColder enables the Section 3.3 variant: a missed clip is only
	// admitted when its byte-freq exceeds the smallest byte-freq it would
	// evict.
	noCacheColder bool

	// set ranks the residents by (byte-freq asc, size desc, id asc).
	// Byte-freqs are static between SetFrequencies calls, so it only changes
	// on insert, evict and refresh.
	set *prioindex.Set
}

var _ core.Policy = (*Policy)(nil)

// Option configures the policy.
type Option func(*Policy)

// NoCacheColder enables the admission variant that streams unpopular clips
// without caching them.
func NoCacheColder() Option {
	return func(p *Policy) { p.noCacheColder = true }
}

// checked returns a copy of the frequency vector after validating it.
func checked(frequencies []float64) ([]float64, error) {
	if len(frequencies) == 0 {
		return nil, fmt.Errorf("simple: frequency vector must not be empty")
	}
	for i, f := range frequencies {
		if f < 0 {
			return nil, fmt.Errorf("simple: negative frequency %v for clip %d", f, i+1)
		}
	}
	return append([]float64(nil), frequencies...), nil
}

// New returns a Simple policy with advance knowledge of the clip access
// frequencies (indexed by clip id-1). Frequencies must be non-negative.
func New(frequencies []float64, opts ...Option) (*Policy, error) {
	freq, err := checked(frequencies)
	if err != nil {
		return nil, err
	}
	p := &Policy{freq: freq}
	p.set = prioindex.New(func(c media.Clip) { p.OnInsert(c, 0) })
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustNew is like New but panics on error; for experiment setup.
func MustNew(frequencies []float64, opts ...Option) *Policy {
	p, err := New(frequencies, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.noCacheColder {
		return "Simple(no-cache-colder)"
	}
	return "Simple"
}

// SetFrequencies replaces the frequency vector, e.g. when the request
// distribution shifts at an experiment phase boundary (Section 4.4.1 gives
// Simple the accurate frequencies of the current distribution). The ranked
// set is emptied; the next selection adopts every resident under the new
// byte-freqs.
func (p *Policy) SetFrequencies(frequencies []float64) error {
	freq, err := checked(frequencies)
	if err != nil {
		return err
	}
	p.freq = freq
	p.set.Reset()
	return nil
}

// ByteFreq returns the byte-freq value f_i/s_i of a clip.
func (p *Policy) ByteFreq(c media.Clip) float64 {
	if i := int(c.ID) - 1; i >= 0 && i < len(p.freq) {
		return p.freq[i] / float64(c.Size)
	}
	return 0
}

// Record implements core.Policy. Simple is off-line: it already knows the
// frequencies and keeps no run-time history.
func (p *Policy) Record(media.Clip, vtime.Time, bool) {}

// Admit implements core.Policy. The default variant admits everything; the
// NoCacheColder variant admits a clip only if it is at least as hot per byte
// as the coldest resident clip (or if it fits in free space).
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: evict resident clips in ascending
// byte-freq order until need bytes are freed. Ties prefer the larger clip
// (freeing more space), then the lower id, keeping runs deterministic.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, _ vtime.Time) []media.ClipID {
	ids, _ := p.set.Prefix(view, need)
	return ids
}

// OnInsert implements core.Policy: the new resident is ranked by byte-freq.
// Size-descending is encoded as Last = -size so the set's ascending key
// order reproduces (byte-freq asc, size desc, id asc) exactly.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) {
	p.set.Put(clip, p.ByteFreq(clip), vtime.Time(-clip.Size))
}

// OnEvict implements core.Policy.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) { p.set.Drop(id) }

// Reset implements core.Policy. Simple's frequency knowledge is static; only
// the ranked set empties.
func (p *Policy) Reset() { p.set.Reset() }

// Variant wraps a Simple policy with the NoCacheColder admission rule. The
// wrapper needs the resident view at admission time, so it intercepts the
// view on victim selection and keeps the latest snapshot of the coldest
// resident byte-freq.
type Variant struct {
	*Policy
	view core.ResidentView
}

var _ core.Policy = (*Variant)(nil)

// NewVariant returns the Section 3.3 admission variant of Simple bound to
// the cache it manages. Bind must be called once the cache exists.
func NewVariant(frequencies []float64) (*Variant, error) {
	p, err := New(frequencies, NoCacheColder())
	if err != nil {
		return nil, err
	}
	return &Variant{Policy: p}, nil
}

// Bind attaches the cache's resident view used by Admit. The core engine
// passes the view only to Victims, but the admission rule needs it earlier.
func (v *Variant) Bind(view core.ResidentView) { v.view = view }

// Admit implements core.Policy for the variant: a missed clip is cached only
// when it fits in free space, or when its byte-freq exceeds the minimum
// byte-freq among resident clips (i.e. it would displace a colder clip).
func (v *Variant) Admit(clip media.Clip, _ vtime.Time) bool {
	if v.view == nil || clip.Size <= v.view.FreeBytes() {
		return true
	}
	coldest, ok := v.set.Min(v.view)
	return ok && coldest.P < v.ByteFreq(clip)
}
