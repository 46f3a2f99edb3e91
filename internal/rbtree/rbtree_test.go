package rbtree

import (
	"sort"
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

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatal("empty length")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty")
	}
	if _, _, ok := tr.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty")
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
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	for k, want := range map[int]string{1: "one", 2: "two", 3: "three"} {
		if got, ok := tr.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %q,%v", k, got, ok)
		}
	}
	// Overwrite.
	tr.Put(2, "TWO")
	if got, _ := tr.Get(2); got != "TWO" {
		t.Fatal("overwrite failed")
	}
	if tr.Len() != 3 {
		t.Fatal("overwrite changed size")
	}
	if !tr.Delete(2) {
		t.Fatal("delete existing")
	}
	if tr.Contains(2) {
		t.Fatal("deleted key still present")
	}
	if tr.Delete(2) {
		t.Fatal("double delete")
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestMinMax(t *testing.T) {
	tr := intTree()
	for _, k := range []int{5, 3, 9, 1, 7} {
		tr.Put(k, "")
	}
	if k, _, _ := tr.Min(); k != 1 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := tr.Max(); k != 9 {
		t.Fatalf("Max = %d", k)
	}
}

func TestDeleteMinOrder(t *testing.T) {
	tr := intTree()
	keys := []int{5, 3, 9, 1, 7, 4, 8, 2, 6}
	for _, k := range keys {
		tr.Put(k, "")
	}
	for want := 1; want <= 9; want++ {
		k, _, ok := tr.DeleteMin()
		if !ok || k != want {
			t.Fatalf("DeleteMin = %d,%v want %d", k, ok, want)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 0 {
		t.Fatal("tree not empty")
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := intTree()
	for _, k := range []int{4, 2, 5, 1, 3} {
		tr.Put(k, "")
	}
	keys := tr.Keys()
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
	if tr.Len() != len(model) {
		t.Fatalf("len %d vs model %d", tr.Len(), len(model))
	}
	want := make([]int, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Ints(want)
	got := tr.Keys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys diverge from model at %d", i)
		}
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
		if _, _, ok := tr.DeleteMin(); !ok {
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

func TestMatchesModelProperty(t *testing.T) {
	check := func(ops []int16) bool {
		tr := intTree()
		model := make(map[int]bool)
		for _, raw := range ops {
			k := int(raw) % 64
			if k < 0 {
				k = -k
				delete(model, k)
				tr.Delete(k)
			} else {
				model[k] = true
				tr.Put(k, "x")
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k := range model {
			if !tr.Contains(k) {
				return false
			}
		}
		return tr.CheckInvariants() == nil
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
	if tr.Len() != 2 {
		t.Fatal("len")
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

func BenchmarkGet(b *testing.B) {
	src := randutil.NewSource(1)
	tr := intTree()
	for i := 0; i < 100000; i++ {
		tr.Put(src.Intn(1<<20), "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(src.Intn(1 << 20))
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
		tr.DeleteMin()
	}
}
