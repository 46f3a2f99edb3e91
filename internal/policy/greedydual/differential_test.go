package greedydual_test

// differential_test.go checks the O(1)-inflation GreedyDual against an
// independent brute-force reference written straight from Figure 1 of the
// paper: every eviction finds min H and subtracts it from all resident
// clips. Clip sizes are powers of two so 1/size is an exact binary
// fraction and both arithmetics compare ties identically.

import (
	"reflect"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// bruteGD is the textbook subtract-min GreedyDual with cost ≡ 1, written
// independently of the package.
type bruteGD struct {
	seed uint64
	src  *randutil.Source
	h    map[media.ClipID]float64
}

var _ core.Policy = (*bruteGD)(nil)

func newBruteGD(seed uint64) *bruteGD {
	return &bruteGD{seed: seed, src: randutil.NewSource(seed), h: make(map[media.ClipID]float64)}
}

func (p *bruteGD) Name() string { return "brute-GreedyDual" }

func (p *bruteGD) Record(clip media.Clip, _ vtime.Time, hit bool) {
	if hit {
		p.h[clip.ID] = 1 / float64(clip.Size)
	}
}

func (p *bruteGD) Admit(media.Clip, vtime.Time) bool { return true }

func (p *bruteGD) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, _ vtime.Time) []media.ClipID {
	resident := core.CollectResidents(view)
	if len(resident) == 0 {
		return nil
	}
	minH := p.h[resident[0].ID]
	var ties []media.ClipID
	for _, c := range resident {
		switch h := p.h[c.ID]; {
		case len(ties) == 0 || h < minH:
			minH, ties = h, append(ties[:0], c.ID)
		case h == minH:
			ties = append(ties, c.ID)
		}
	}
	for _, c := range resident {
		p.h[c.ID] -= minH
	}
	victim := ties[0]
	if len(ties) > 1 {
		victim = ties[p.src.Intn(len(ties))]
	}
	return []media.ClipID{victim}
}

func (p *bruteGD) OnInsert(clip media.Clip, _ vtime.Time) {
	p.h[clip.ID] = 1 / float64(clip.Size)
}

func (p *bruteGD) OnEvict(id media.ClipID, _ vtime.Time) { delete(p.h, id) }

func (p *bruteGD) Reset() {
	p.h = make(map[media.ClipID]float64)
	p.src = randutil.NewSource(p.seed)
}

// TestDifferentialAgainstBruteForce drives the inflation implementation
// and the subtract-min reference through identical caches and workloads
// (same tie-break seed, so random coin flips agree) and asserts identical
// residency after every request.
func TestDifferentialAgainstBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := randutil.NewSource(seed).Split("gd-diff")
		n := 10 + src.Intn(24)
		clips := make([]media.Clip, n)
		for i := range clips {
			clips[i] = media.Clip{
				ID:          media.ClipID(i + 1),
				Kind:        media.Video,
				Size:        media.Bytes(256<<10) << src.Intn(4), // powers of two: exact 1/size
				DisplayRate: 3_500_000,
			}
		}
		repo, err := media.NewRepository(clips)
		if err != nil {
			t.Fatal(err)
		}
		capacity := repo.TotalSize() / 4

		real, err := core.New(repo, capacity, greedydual.New(nil, seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.New(repo, capacity, newBruteGD(seed))
		if err != nil {
			t.Fatal(err)
		}

		drive := src.Split("drive")
		for i := 0; i < 600; i++ {
			id := media.ClipID(1 + drive.Intn(n))
			if drive.Float64() < 0.5 {
				id = media.ClipID(1 + drive.Intn(1+n/4))
			}
			a, err := real.Request(id)
			if err != nil {
				t.Fatalf("seed=%d req %d: real: %v", seed, i, err)
			}
			b, err := ref.Request(id)
			if err != nil {
				t.Fatalf("seed=%d req %d: reference: %v", seed, i, err)
			}
			if a != b {
				t.Fatalf("seed=%d req %d (clip %d): outcome %v vs reference %v", seed, i, id, a, b)
			}
			if !reflect.DeepEqual(core.CollectResidentIDs(real), core.CollectResidentIDs(ref)) {
				t.Fatalf("seed=%d req %d: resident sets diverged:\nreal %v\nref  %v",
					seed, i, core.CollectResidentIDs(real), core.CollectResidentIDs(ref))
			}
		}
		if real.Stats() != ref.Stats() {
			t.Fatalf("seed=%d: stats diverged:\nreal %+v\nref  %+v", seed, real.Stats(), ref.Stats())
		}
	}
}
