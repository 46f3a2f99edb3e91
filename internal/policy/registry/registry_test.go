package registry_test

import (
	"strings"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"

	_ "mediacache/internal/policy/all"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		name string
		k    int
		hasK bool
		err  bool
	}{
		{"lruk", "lruk", registry.DefaultK, false, false},
		{"lruk:5", "lruk", 5, true, false},
		{"greedydual", "greedydual", registry.DefaultK, false, false},
		{"lruk:0", "", 0, false, true},
		{"lruk:-1", "", 0, false, true},
		{"lruk:x", "", 0, false, true},
		{"lruk:", "", 0, false, true},
	}
	for _, c := range cases {
		got, err := registry.ParseSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got.Name != c.name || got.K != c.k || got.HasK != c.hasK {
			t.Errorf("ParseSpec(%q) = %+v, want {%s %d %v}", c.in, got, c.name, c.k, c.hasK)
		}
		if got.String() != c.in {
			t.Errorf("Spec(%q).String() = %q", c.in, got.String())
		}
	}
}

func TestBuildEveryRegisteredPolicy(t *testing.T) {
	repo := media.PaperRepository()
	pmf := make([]float64, repo.N())
	for i := range pmf {
		pmf[i] = 1 / float64(len(pmf))
	}
	for _, name := range registry.Names() {
		p, err := registry.Build(name, repo, pmf, 1)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		if p == nil || p.Name() == "" {
			t.Errorf("Build(%q): empty policy", name)
		}
	}
	if n := len(registry.Names()); n < 14 {
		t.Errorf("only %d registered policies; the built-in set has 14", n)
	}
}

func TestBuildErrors(t *testing.T) {
	repo := media.PaperRepository()
	if _, err := registry.Build("lru", nil, nil, 1); err == nil {
		t.Error("nil repository should fail")
	}
	_, err := registry.Build("nonesuch", repo, nil, 1)
	if err == nil {
		t.Fatal("unknown policy should fail")
	}
	// The error must list the registered names so CLI users see the menu.
	for _, name := range registry.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-policy error %q does not list %q", err, name)
		}
	}
	// Off-line Simple without frequencies.
	if _, err := registry.Build("simple", repo, nil, 1); err == nil {
		t.Error("simple without pmf should fail")
	}
	// Depth parsing propagates.
	if _, err := registry.Build("lruk:zero", repo, nil, 1); err == nil {
		t.Error("bad depth should fail")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, e registry.Entry) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register should panic", name)
			}
		}()
		registry.Register(e)
	}
	factory := func(registry.Config) (core.Policy, error) { return nil, nil }
	mustPanic("empty name", registry.Entry{New: factory})
	mustPanic("nil factory", registry.Entry{Name: "test-nil-factory"})
	mustPanic("duplicate", registry.Entry{Name: "lruk", New: factory})
}

func TestUsagesSortedAndComplete(t *testing.T) {
	names := registry.Names()
	usages := registry.Usages()
	if len(names) != len(usages) {
		t.Fatalf("%d names vs %d usages", len(names), len(usages))
	}
	for i, u := range usages {
		// Usage is the name itself or "name:K".
		if u != names[i] && !strings.HasPrefix(u, names[i]+":") {
			t.Errorf("usages[%d] = %q does not match name %q", i, u, names[i])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

// TestOutOfTreeRegistration exercises the documented extension path: a
// policy registered outside internal/policy becomes buildable by spec.
func TestOutOfTreeRegistration(t *testing.T) {
	registry.Register(registry.Entry{
		Name:  "test-external",
		Usage: "test-external:K",
		// Delegates to the built-in LRU-K factory, as an out-of-tree
		// wrapper policy would.
		New: func(cfg registry.Config) (core.Policy, error) {
			e, ok := registry.Lookup("lruk")
			if !ok {
				t.Fatal("lruk not registered")
			}
			return e.New(cfg)
		},
	})
	repo := media.PaperRepository()
	p, err := registry.Build("test-external:3", repo, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "LRU-3" {
		t.Fatalf("delegated policy = %q", p.Name())
	}
	found := false
	for _, u := range registry.Usages() {
		if u == "test-external:K" {
			found = true
		}
	}
	if !found {
		t.Error("out-of-tree usage missing from Usages()")
	}
}
