package lrusk

// NewFast returns the policy New returns labelled "LRU-S<K>(tree)": the
// tree-based LRU-SK the paper names as future work in Section 5 ("develop
// efficient implementations ... may require tree-based data structures to
// minimize the complexity of identifying a victim clip"). That algorithm is
// what Policy runs by default; the label remains so experiments and the
// lrusk-tree registry name can quote the tree variant explicitly.
func NewFast(n, k int) (*Policy, error) {
	p, err := New(n, k)
	if err != nil {
		return nil, err
	}
	p.tree = true
	return p, nil
}

// MustNewFast is like NewFast but panics on error.
func MustNewFast(n, k int) *Policy {
	p, err := NewFast(n, k)
	if err != nil {
		panic(err)
	}
	return p
}
