// Package rbtree implements an ordered map as a left-leaning red-black
// tree (Sedgewick's LLRB, 2-3 variant).
//
// The paper's Section 5 names efficient victim selection as future work:
// "This may require tree-based data structures to minimize the complexity
// of identifying a victim clip." This package is that substrate: the
// ranked resident sets of policy/prioindex keep their keys in these trees,
// giving O(log n) insert/delete/successor and an in-order walk instead of
// an O(n) scan.
package rbtree

// Tree is an ordered map from K to V. The zero value is not usable; create
// trees with New.
//
// Deleted nodes are kept on a free list and reused by later inserts, so a
// tree whose size stays bounded (a cache's ranked resident set) stops
// allocating once it has reached that bound.
type Tree[K any, V any] struct {
	less func(a, b K) bool
	root *node[K, V]
	free *node[K, V] // deleted nodes, linked through left
}

type color bool

const (
	red   color = true
	black color = false
)

type node[K any, V any] struct {
	key         K
	value       V
	left, right *node[K, V]
	color       color
}

// New returns an empty tree ordered by less. less must define a strict weak
// ordering; keys comparing equal in both directions are considered the same
// key (inserts overwrite).
func New[K any, V any](less func(a, b K) bool) *Tree[K, V] {
	if less == nil {
		panic("rbtree: less function must not be nil")
	}
	return &Tree[K, V]{less: less}
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.value, true
}

// Next returns the smallest key strictly greater than key, and its value.
// key itself need not be present.
func (t *Tree[K, V]) Next(key K) (K, V, bool) {
	var succ *node[K, V]
	for n := t.root; n != nil; {
		if t.less(key, n.key) {
			succ, n = n, n.left
		} else {
			n = n.right
		}
	}
	if succ == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return succ.key, succ.value, true
}

// Put inserts key with value, replacing any existing value for the key.
func (t *Tree[K, V]) Put(key K, value V) {
	t.root = t.put(t.root, key, value)
	t.root.color = black
}

func (t *Tree[K, V]) put(h *node[K, V], key K, value V) *node[K, V] {
	if h == nil {
		n := t.free
		if n == nil {
			n = new(node[K, V])
		} else {
			t.free = n.left
		}
		*n = node[K, V]{key: key, value: value, color: red}
		return n
	}
	switch {
	case t.less(key, h.key):
		h.left = t.put(h.left, key, value)
	case t.less(h.key, key):
		h.right = t.put(h.right, key, value)
	default:
		h.value = value
	}
	return t.fixUp(h)
}

// Delete removes key, reporting whether it was present. It is one descent: an
// absent key is found missing at the nil link the search reaches.
func (t *Tree[K, V]) Delete(key K) bool {
	var found bool
	t.root, found = t.delete(t.root, key)
	if t.root != nil {
		t.root.color = black
	}
	return found
}

func isRed[K any, V any](n *node[K, V]) bool { return n != nil && n.color == red }

func rotateLeft[K any, V any](h *node[K, V]) *node[K, V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	return x
}

func rotateRight[K any, V any](h *node[K, V]) *node[K, V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	return x
}

func flipColors[K any, V any](h *node[K, V]) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}

func (t *Tree[K, V]) fixUp(h *node[K, V]) *node[K, V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

func moveRedLeft[K any, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[K any, V any](h *node[K, V]) *node[K, V] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

// release puts the unlinked node h on the free list and returns the nil
// subtree that replaces it.
func (t *Tree[K, V]) release(h *node[K, V]) *node[K, V] {
	*h = node[K, V]{left: t.free}
	t.free = h
	return nil
}

func (t *Tree[K, V]) deleteMin(h *node[K, V]) *node[K, V] {
	if h.left == nil {
		return t.release(h)
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = t.deleteMin(h.left)
	return t.fixUp(h)
}

// delete removes key from the subtree h (GoLLRB's form): the nil guards on
// both sides stop the descent where an absent key would be, and the
// rebalancing done on the way down is undone by fixUp on the way back.
func (t *Tree[K, V]) delete(h *node[K, V], key K) (*node[K, V], bool) {
	if h == nil {
		return nil, false
	}
	var found bool
	if t.less(key, h.key) {
		if h.left == nil {
			return h, false
		}
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left, found = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if !t.less(h.key, key) && h.right == nil {
			return t.release(h), true
		}
		if h.right != nil && !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if !t.less(h.key, key) {
			// Replace with the successor and delete it from the right.
			m := h.right
			for m.left != nil {
				m = m.left
			}
			h.key, h.value = m.key, m.value
			h.right, found = t.deleteMin(h.right), true
		} else {
			h.right, found = t.delete(h.right, key)
		}
	}
	return t.fixUp(h), found
}

// Ascend visits keys in ascending order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, value V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	if !t.ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return t.ascend(n.right, fn)
}

// checkInvariants verifies red-black properties; exported to the test
// package through export_test.go.
func (t *Tree[K, V]) checkInvariants() error {
	if isRed(t.root) {
		return errRootRed
	}
	_, err := check(t.root)
	return err
}

type invariantError string

func (e invariantError) Error() string { return string(e) }

const (
	errRootRed      = invariantError("rbtree: root is red")
	errRightRed     = invariantError("rbtree: right-leaning red link")
	errDoubleRed    = invariantError("rbtree: two red links in a row")
	errBlackBalance = invariantError("rbtree: unbalanced black height")
)

func check[K any, V any](n *node[K, V]) (int, error) {
	if n == nil {
		return 1, nil
	}
	if isRed(n.right) {
		return 0, errRightRed
	}
	if isRed(n) && isRed(n.left) {
		return 0, errDoubleRed
	}
	lh, err := check(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackBalance
	}
	if !isRed(n) {
		lh++
	}
	return lh, nil
}
