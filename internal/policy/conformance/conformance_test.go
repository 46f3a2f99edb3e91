package conformance

import (
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/policy/admission"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/policy/gdfreq"
	"mediacache/internal/policy/gdsp"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/igd"
	"mediacache/internal/policy/lfu"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/lrusk"
	"mediacache/internal/policy/random"
	"mediacache/internal/policy/simple"
)

// uniformPMF supplies the off-line Simple technique's frequency knowledge
// in conformance runs (the suite exercises mechanics, not accuracy).
func uniformPMF(n int) []float64 {
	pmf := make([]float64, n)
	for i := range pmf {
		pmf[i] = 1 / float64(n)
	}
	return pmf
}

// TestAllPolicies runs the conformance suite over every implementation.
func TestAllPolicies(t *testing.T) {
	factories := map[string]Factory{
		"Simple": func(n int) (core.Policy, error) { return simple.New(uniformPMF(n)) },
		"Random": func(n int) (core.Policy, error) { return random.New(42), nil },
		"LRU-1":  func(n int) (core.Policy, error) { return lruk.New(n, 1) },
		"LRU-2":  func(n int) (core.Policy, error) { return lruk.New(n, 2) },
		"LRU-S2": func(n int) (core.Policy, error) { return lrusk.New(n, 2) },
		"LRU-S2-tree": func(n int) (core.Policy, error) {
			return lrusk.NewFast(n, 2)
		},
		"DYNSimple-2":  func(n int) (core.Policy, error) { return dynsimple.New(n, 2) },
		"DYNSimple-32": func(n int) (core.Policy, error) { return dynsimple.New(n, 32) },
		"DYNSimple-norefine": func(n int) (core.Policy, error) {
			return dynsimple.New(n, 2, dynsimple.WithoutRefinement())
		},
		"GreedyDual":      func(n int) (core.Policy, error) { return greedydual.New(nil, 42), nil },
		"GreedyDual-Freq": func(n int) (core.Policy, error) { return gdfreq.New(nil, 42), nil },
		"GDSP":            func(n int) (core.Policy, error) { return gdsp.New(nil, 1, 42) },
		"IGD":             func(n int) (core.Policy, error) { return igd.New(n, 2, 42) },
		"IGD-frozen": func(n int) (core.Policy, error) {
			return igd.New(n, 2, 42, igd.FrozenAging())
		},
		"LFU":    func(n int) (core.Policy, error) { return lfu.New(), nil },
		"LFU-DA": func(n int) (core.Policy, error) { return lfu.NewDA(), nil },
		"DYNSimple+2touch": func(n int) (core.Policy, error) {
			inner, err := dynsimple.New(n, 2)
			if err != nil {
				return nil, err
			}
			return admission.Wrap(inner, n, 0)
		},
	}
	for name, factory := range factories {
		Run(t, name, factory)
	}
}
