package rbtree

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"mediacache/internal/randutil"
)

func intTree() *Tree[int, string] {
	return New[int, string](func(a, b int) bool { return a < b })
}

func TestNewPanicsOnNilLess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int, int](nil)
}

// entries returns the tree's keys and values in ascending key order.
func entries[K comparable, V any](tr *Tree[K, V]) ([]K, []V) {
	var keys []K
	var values []V
	tr.Ascend(func(k K, v V) bool {
		keys, values = append(keys, k), append(values, v)
		return true
	})
	return keys, values
}

// get looks key up through Ascend.
func get(tr *Tree[int, string], key int) (string, bool) {
	var value string
	var ok bool
	tr.Ascend(func(k int, v string) bool {
		if k == key {
			value, ok = v, true
		}
		return k < key
	})
	return value, ok
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if keys, _ := entries(tr); len(keys) != 0 {
		t.Fatalf("empty tree holds %v", keys)
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, _, ok := tr.Next(0); ok {
		t.Fatal("Next on empty")
	}
	if tr.Delete(5) {
		t.Fatal("Delete on empty")
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := intTree()
	tr.Put(2, "two")
	tr.Put(1, "one")
	tr.Put(3, "three")
	if keys, values := entries(tr); !slices.Equal(keys, []int{1, 2, 3}) || !slices.Equal(values, []string{"one", "two", "three"}) {
		t.Fatalf("entries = %v %v", keys, values)
	}
	// Overwrite.
	tr.Put(2, "TWO")
	if got, ok := get(tr, 2); !ok || got != "TWO" {
		t.Fatal("overwrite failed")
	}
	if keys, _ := entries(tr); len(keys) != 3 {
		t.Fatal("overwrite changed size")
	}
	if !tr.Delete(2) {
		t.Fatal("delete existing")
	}
	if _, ok := get(tr, 2); ok {
		t.Fatal("deleted key still present")
	}
	if tr.Delete(2) {
		t.Fatal("double delete")
	}
	if keys, _ := entries(tr); !slices.Equal(keys, []int{1, 3}) {
		t.Fatalf("keys = %v", keys)
	}
}

// TestMinMax: Min is the smallest key, and Next past the largest reports the
// end of the tree.
func TestMinMax(t *testing.T) {
	tr := intTree()
	for _, k := range []int{5, 3, 9, 1, 7} {
		tr.Put(k, "")
	}
	if k, _, _ := tr.Min(); k != 1 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, ok := tr.Next(7); !ok || k != 9 {
		t.Fatalf("Next(7) = %d,%v", k, ok)
	}
	if _, _, ok := tr.Next(9); ok {
		t.Fatal("Next past the largest key")
	}
}

// TestDeleteMinOrder deletes the minimum until the tree is empty: the minima
// ascend and every deletion leaves a valid red-black tree.
func TestDeleteMinOrder(t *testing.T) {
	tr := intTree()
	keys := []int{5, 3, 9, 1, 7, 4, 8, 2, 6}
	for _, k := range keys {
		tr.Put(k, "")
	}
	for want := 1; want <= 9; want++ {
		k, _, ok := tr.Min()
		if !ok || k != want || !tr.Delete(k) {
			t.Fatalf("Min = %d,%v want %d", k, ok, want)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("tree not empty")
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := intTree()
	for _, k := range []int{4, 2, 5, 1, 3} {
		tr.Put(k, "")
	}
	keys, _ := entries(tr)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys out of order: %v", keys)
		}
	}
	var visited []int
	tr.Ascend(func(k int, _ string) bool {
		visited = append(visited, k)
		return k < 3
	})
	if len(visited) != 3 || visited[2] != 3 {
		t.Fatalf("early stop visited %v", visited)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	src := randutil.NewSource(1234)
	tr := intTree()
	model := make(map[int]string)
	for op := 0; op < 20000; op++ {
		k := src.Intn(500)
		if src.Intn(3) == 0 {
			delete(model, k)
			tr.Delete(k)
		} else {
			model[k] = "v"
			tr.Put(k, "v")
		}
		if op%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := slices.Sorted(maps.Keys(model))
	if got, _ := entries(tr); !slices.Equal(got, want) {
		t.Fatalf("keys diverge from model: %d keys vs %d", len(got), len(want))
	}
	// Next is the successor lookup, for keys present or not: from below the
	// minimum it walks the whole tree in order and then reports the end.
	at := 0
	for k, _, ok := tr.Next(-1); ok; k, _, ok = tr.Next(k) {
		if at == len(want) || k != want[at] {
			t.Fatalf("Next walk diverges from model at %d (key %d)", at, k)
		}
		if _, present := model[k+1]; !present && at+1 < len(want) {
			if nk, _, _ := tr.Next(k + 1); nk != want[at+1] {
				t.Fatalf("Next(%d) for an absent key = %d, want %d", k+1, nk, want[at+1])
			}
		}
		at++
	}
	if at != len(want) {
		t.Fatalf("Next walk visited %d of %d keys", at, len(want))
	}
}

// TestDeletedNodesReused pins the free list: once a tree has held n keys,
// delete/insert churn within that bound allocates nothing, and a reused node
// carries only its new key and value.
func TestDeletedNodesReused(t *testing.T) {
	tr := New[int, int](func(a, b int) bool { return a < b })
	for k := 0; k < 64; k++ {
		tr.Put(k, k)
	}
	src := randutil.NewSource(7)
	next := 64
	if avg := testing.AllocsPerRun(1000, func() {
		// The tree holds the 64 consecutive keys below next throughout.
		if k, _, ok := tr.Min(); !ok || !tr.Delete(k) {
			t.Fatal("empty tree")
		}
		tr.Put(next, -next)
		next++
		k := next - 1 - src.Intn(32)
		if !tr.Delete(k) {
			t.Fatalf("key %d missing", k)
		}
		tr.Put(k, -k)
	}); avg != 0 {
		t.Errorf("delete/insert churn allocs/op = %v, want 0", avg)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.Ascend(func(k, v int) bool {
		if k >= 64 && v != -k {
			t.Fatalf("key %d holds %d, want %d", k, v, -k)
		}
		return true
	})
}

// TestMatchesModelProperty drives a tree and a map through random puts and
// deletes — of present keys and of absent ones: never inserted, already
// deleted, below the minimum, above the maximum — and checks after every
// operation that Delete reported presence as the model has it, that Ascend
// and Min agree with the model, and that the red-black invariants hold.
func TestMatchesModelProperty(t *testing.T) {
	check := func(ops []int16) bool {
		tr := intTree()
		model := make(map[int]bool)
		for _, raw := range ops {
			// Keys span -8..71; puts land in 0..63, so deletes also reach
			// keys below the minimum and above the maximum.
			k := int(raw)%80 - 8
			if raw%3 == 0 || k < 0 || k > 63 {
				if tr.Delete(k) != model[k] {
					return false
				}
				delete(model, k)
			} else {
				model[k] = true
				tr.Put(k, "x")
			}
			if tr.CheckInvariants() != nil {
				return false
			}
			want := slices.Sorted(maps.Keys(model))
			if got, _ := entries(tr); !slices.Equal(got, want) {
				return false
			}
			if min, _, ok := tr.Min(); ok != (len(want) > 0) || ok && min != want[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStructKeys(t *testing.T) {
	type key struct {
		a, b int
	}
	tr := New[key, int](func(x, y key) bool {
		if x.a != y.a {
			return x.a < y.a
		}
		return x.b < y.b
	})
	tr.Put(key{1, 2}, 12)
	tr.Put(key{1, 1}, 11)
	tr.Put(key{0, 9}, 9)
	if k, v, _ := tr.Min(); k != (key{0, 9}) || v != 9 {
		t.Fatalf("Min = %v,%v", k, v)
	}
	if !tr.Delete(key{1, 1}) {
		t.Fatal("delete struct key")
	}
	if keys, _ := entries(tr); !slices.Equal(keys, []key{{0, 9}, {1, 2}}) {
		t.Fatalf("keys = %v", keys)
	}
}

func BenchmarkPut(b *testing.B) {
	src := randutil.NewSource(1)
	tr := intTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(src.Intn(1<<20), "")
	}
}

// BenchmarkDelete deletes and re-inserts random keys of a 100,000-key tree,
// half of the deletes for keys that are absent.
func BenchmarkDelete(b *testing.B) {
	src := randutil.NewSource(1)
	tr := intTree()
	for i := 0; i < 100000; i++ {
		tr.Put(2*src.Intn(1<<20), "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := src.Intn(1 << 21)
		if tr.Delete(k) {
			tr.Put(k, "")
		}
	}
}

func BenchmarkDeleteMin(b *testing.B) {
	src := randutil.NewSource(1)
	tr := intTree()
	for i := 0; i < b.N; i++ {
		tr.Put(src.Intn(1<<30), "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, _, _ := tr.Min()
		tr.Delete(k)
	}
}
