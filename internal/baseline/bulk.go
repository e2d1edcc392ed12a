package baseline

import (
	"sort"
	"sync"
	"time"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// BulkTree is the bulk-loading B+ tree baseline (paper §VI-A): tuples
// accumulate in an unsorted buffer and become indexed — and visible to
// queries — only when Build sorts the batch and constructs the tree
// bottom-up [15]. The paper excludes it from query-latency experiments
// precisely because of that visibility delay; Range here serves only the
// built portion.
type BulkTree struct {
	mu      sync.Mutex
	pending []model.Tuple
	built   *bnode // immutable after build
	builtN  int
	leafCap int
	fanout  int

	stats *core.Stats
}

// bnode is an immutable node of a built bulk tree.
type bnode struct {
	isLeaf   bool
	keys     []model.Key
	children []*bnode
	entries  []model.Tuple
}

// NewBulkTree creates a bulk-loading tree with the given leaf capacity and
// fanout (defaults apply when <= 0).
func NewBulkTree(leafCap, fanout int) *BulkTree {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	if fanout < 2 {
		fanout = DefaultFanout
	}
	return &BulkTree{leafCap: leafCap, fanout: fanout, stats: &core.Stats{}}
}

// Stats returns the tree's instrumentation counters.
func (t *BulkTree) Stats() *core.Stats { return t.stats }

// Insert buffers one tuple; it is not queryable until Build.
func (t *BulkTree) Insert(tp model.Tuple) {
	t.mu.Lock()
	t.pending = append(t.pending, tp)
	t.mu.Unlock()
	t.stats.Inserts.Add(1)
}

// Build sorts the pending batch together with any previously built data
// and reconstructs the tree bottom-up. Returns the number of tuples now
// indexed.
func (t *BulkTree) Build() int {
	t.mu.Lock()
	defer t.mu.Unlock()

	all := t.pending
	if t.built != nil {
		merged := make([]model.Tuple, 0, t.builtN+len(all))
		collectBuilt(t.built, &merged)
		merged = append(merged, all...)
		all = merged
	}
	t.pending = nil
	if len(all) == 0 {
		return t.builtN
	}

	sortStart := time.Now()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		return all[i].Time < all[j].Time
	})
	t.stats.SortNanos.Add(time.Since(sortStart).Nanoseconds())

	buildStart := time.Now()
	t.built = buildBottomUp(all, t.leafCap, t.fanout)
	t.builtN = len(all)
	t.stats.BuildNanos.Add(time.Since(buildStart).Nanoseconds())
	return t.builtN
}

func collectBuilt(n *bnode, out *[]model.Tuple) {
	if n.isLeaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		collectBuilt(c, out)
	}
}

// buildBottomUp constructs an immutable B+ tree over the sorted entries.
func buildBottomUp(sorted []model.Tuple, leafCap, fanout int) *bnode {
	if len(sorted) == 0 {
		return &bnode{isLeaf: true}
	}
	var level []*bnode
	var seps []model.Key
	for i := 0; i < len(sorted); {
		j := i + leafCap
		if j > len(sorted) {
			j = len(sorted)
		}
		// Never cut inside a run of equal keys; routing assumes a key lives
		// in exactly one leaf.
		for j < len(sorted) && sorted[j].Key == sorted[j-1].Key {
			j++
		}
		level = append(level, &bnode{isLeaf: true, entries: sorted[i:j]})
		if j < len(sorted) {
			seps = append(seps, sorted[j].Key)
		}
		i = j
	}
	for len(level) > 1 {
		var next []*bnode
		var nextSeps []model.Key
		for i := 0; i < len(level); i += fanout {
			j := i + fanout
			if j > len(level) {
				j = len(level)
			}
			n := &bnode{children: level[i:j]}
			if j-1 > i {
				n.keys = seps[i : j-1]
			}
			next = append(next, n)
			if j < len(level) {
				nextSeps = append(nextSeps, seps[j-1])
			}
		}
		level, seps = next, nextSeps
	}
	return level[0]
}

// Range visits matching tuples among the built (visible) portion.
func (t *BulkTree) Range(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool) {
	if !kr.IsValid() || !tr.IsValid() {
		return
	}
	t.mu.Lock()
	root := t.built
	t.mu.Unlock()
	if root == nil {
		return
	}
	rangeBNode(root, kr, tr, filter, fn)
}

func rangeBNode(n *bnode, kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool) bool {
	if n.isLeaf {
		start := sort.Search(len(n.entries), func(j int) bool {
			return n.entries[j].Key >= kr.Lo
		})
		for j := start; j < len(n.entries); j++ {
			e := &n.entries[j]
			if e.Key > kr.Hi {
				break
			}
			if e.Time < tr.Lo || e.Time > tr.Hi || !filter.Matches(e) {
				continue
			}
			if !fn(e) {
				return false
			}
		}
		return true
	}
	lo := sort.Search(len(n.keys), func(i int) bool { return kr.Lo < n.keys[i] })
	for i := lo; i < len(n.children); i++ {
		if i > 0 && n.keys[i-1] > kr.Hi {
			break
		}
		if !rangeBNode(n.children[i], kr, tr, filter, fn) {
			return false
		}
	}
	return true
}

// Len returns the number of built (visible) tuples.
func (t *BulkTree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.builtN
}
