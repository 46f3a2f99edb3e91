package igd_test

// golden_test pins IGD's exact decisions: hits, evictions, Victims calls,
// the final inflation value to the bit, and an FNV-64a hash of the victim
// sequence the engine reports through its observer. IGD re-evaluates every
// resident's priority at selection time, so a change to how that scan reads
// per-clip state or reference history must leave every one of these
// untouched. If a deliberate behavioral change moves them, the failure
// message prints the new table entry; record the change in EXPERIMENTS.md.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/igd"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

const (
	goldenSeed  = 42
	goldenRatio = 0.125 // Figure 6's S_T/S_DB
)

// goldenShifts is Figure 6.a's shift schedule: each shift id in turn, for
// goldenPhase requests, in one continuous run.
var goldenShifts = []int{0, 100, 200, 300, 400, 500}

const goldenPhase = 10000

// igdGolden is the pinned outcome of one drive.
type igdGolden struct {
	Hits, Evictions, VictimCalls uint64
	InflationBits                uint64
	VictimHash                   uint64
}

func (g igdGolden) String() string {
	return fmt.Sprintf("{Hits: %d, Evictions: %d, VictimCalls: %d, InflationBits: %#x, VictimHash: %#x}",
		g.Hits, g.Evictions, g.VictimCalls, g.InflationBits, g.VictimHash)
}

// victimLog hashes the IDs of every eviction and segment trim, in order.
type victimLog struct{ h hash.Hash64 }

func newVictimLog() *victimLog { return &victimLog{h: fnv.New64a()} }

func (l *victimLog) Observe(ev core.Event) {
	if ev.Type != core.EventEviction && ev.Type != core.EventTrim {
		return
	}
	var b [9]byte
	b[0] = byte(ev.Type)
	binary.LittleEndian.PutUint64(b[1:], uint64(ev.Clip.ID))
	l.h.Write(b[:])
}

func outcome(c *core.Cache, p *igd.Policy, log *victimLog) igdGolden {
	s := c.Stats()
	return igdGolden{
		Hits:          s.Hits,
		Evictions:     s.Evictions,
		VictimCalls:   s.VictimCalls,
		InflationBits: math.Float64bits(p.Inflation()),
		VictimHash:    log.h.Sum64(),
	}
}

func newGoldenCache(t *testing.T, p *igd.Policy, log *victimLog, opts ...core.Option) *core.Cache {
	t.Helper()
	repo := media.PaperRepository()
	c, err := core.New(repo, repo.CacheSizeForRatio(goldenRatio), p,
		append([]core.Option{core.WithObserver(log)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newGoldenGen() *workload.Generator {
	repo := media.PaperRepository()
	return workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), goldenSeed)
}

// driveShifts runs the shift schedule from phase `from` on, requesting
// whole clips except that every third request of a segmented cache reads
// only the first third of the clip.
func driveShifts(t *testing.T, c *core.Cache, gen *workload.Generator, from, phaseLen int, ranged bool) {
	t.Helper()
	for _, g := range goldenShifts[from:] {
		if err := gen.SetShift(g); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < phaseLen; i++ {
			id := gen.Next()
			var err error
			if ranged && i%3 == 0 {
				_, err = c.RequestRange(id, 0, c.Repository().Clip(id).Size/3)
			} else {
				_, err = c.Request(id)
			}
			if err != nil {
				t.Fatalf("shift %d request %d (clip %d): %v", g, i, id, err)
			}
		}
	}
}

// igdDrives are the pinned drives, each run for plain IGD(K=2) and for the
// frozen-aging ablation.
var igdDrives = []struct {
	name string
	run  func(t *testing.T, opts ...igd.Option) igdGolden
}{
	{"figure6a", func(t *testing.T, opts ...igd.Option) igdGolden {
		// Figure 6.a's IGD cell: 60,000 requests over six shifts.
		p := igd.MustNew(media.PaperRepositorySize, igd.DefaultK, goldenSeed, opts...)
		log := newVictimLog()
		c := newGoldenCache(t, p, log)
		driveShifts(t, c, newGoldenGen(), 0, goldenPhase, false)
		return outcome(c, p, log)
	}},
	{"segments-prefix", func(t *testing.T, opts ...igd.Option) igdGolden {
		// Segment-granular residency with a pinned two-segment prefix:
		// partial residents are ranked by resident bytes
		// (OnResidentBytes) and victims are trimmed tail-first.
		p := igd.MustNew(media.PaperRepositorySize, igd.DefaultK, goldenSeed, opts...)
		log := newVictimLog()
		c := newGoldenCache(t, p, log,
			core.WithSegments(256*media.MB), core.WithPrefixAdmission(2))
		driveShifts(t, c, newGoldenGen(), 3, goldenPhase/2, true)
		return outcome(c, p, log)
	}},
	{"warm-restore", func(t *testing.T, opts ...igd.Option) igdGolden {
		// Warm and Restore place residents through OnInsert; resetting the
		// policy under a populated cache leaves residents it has never
		// seen, which Victims adopts lazily.
		log := newVictimLog()
		gen := newGoldenGen()
		warm := make([]media.ClipID, 0, 80)
		for id := media.ClipID(media.PaperRepositorySize); id > media.PaperRepositorySize-80; id-- {
			warm = append(warm, id)
		}
		first := newGoldenCache(t, igd.MustNew(media.PaperRepositorySize, igd.DefaultK, goldenSeed, opts...), log)
		first.Warm(warm)
		driveShifts(t, first, gen, 4, goldenPhase/2, false)

		p := igd.MustNew(media.PaperRepositorySize, igd.DefaultK, goldenSeed+1, opts...)
		c := newGoldenCache(t, p, log)
		if err := c.Restore(first.Snapshot()); err != nil {
			t.Fatal(err)
		}
		driveShifts(t, c, gen, 2, goldenPhase/4, false)
		p.Reset()
		driveShifts(t, c, gen, 4, goldenPhase/4, false)
		return outcome(c, p, log)
	}},
}

// goldenIGD holds the outcome of every drive at seed 42. The igd2/figure6a
// entry is the Figure 6.a IGD(K=2) cell of the paper-default sweep.
var goldenIGD = map[string]igdGolden{
	"igd2/figure6a":          {Hits: 42110, Evictions: 17561, VictimCalls: 17561, InflationBits: 0x3e139935129b710e, VictimHash: 0xb3455fc32cbcdbd0},
	"igd2/segments-prefix":   {Hits: 9652, Evictions: 4159, VictimCalls: 30423, InflationBits: 0x3df70979ce315f83, VictimHash: 0xa93196cd82033efe},
	"igd2/warm-restore":      {Hits: 16092, Evictions: 8678, VictimCalls: 8678, InflationBits: 0x3dd4bc5eb81d23ba, VictimHash: 0x7a7ae5a32c98fc9a},
	"frozen/figure6a":        {Hits: 42027, Evictions: 17642, VictimCalls: 17642, InflationBits: 0x3e2d5e64eeec9479, VictimHash: 0xd4e969360d15e54f},
	"frozen/segments-prefix": {Hits: 9829, Evictions: 4721, VictimCalls: 30238, InflationBits: 0x3e0c214cc8c4ef3d, VictimHash: 0xcd97c9b9ddad790e},
	"frozen/warm-restore":    {Hits: 16034, Evictions: 8737, VictimCalls: 8737, InflationBits: 0x3deefa737924b534, VictimHash: 0x8e0f8576b6844006},
}

func TestIGDDecisionGolden(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []igd.Option
	}{
		{"igd2", nil},
		{"frozen", []igd.Option{igd.FrozenAging()}},
	} {
		for _, d := range igdDrives {
			name := variant.name + "/" + d.name
			t.Run(name, func(t *testing.T) {
				got := d.run(t, variant.opts...)
				want, ok := goldenIGD[name]
				if !ok || got != want {
					t.Errorf("%s = %v\nwant %v (IGD decisions changed)", name, got, want)
				}
			})
		}
	}
}
