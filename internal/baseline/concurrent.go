package baseline

import (
	"sort"
	"sync"
	"time"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// ConcurrentTree is the traditional concurrent B+ tree baseline (paper
// §VI-A): identical data layout to the template tree, but leaves split on
// overflow and concurrency follows the classic Bayer-Schkolnick latch
// coupling protocol [4] — descend taking child latches and release safe
// ancestors; unsafe (full) nodes keep their ancestors latched so splits
// can propagate.
type ConcurrentTree struct {
	// rootMu guards the root pointer and acts as the virtual parent of the
	// root in the crabbing protocol.
	rootMu sync.RWMutex
	root   *cnode

	leafCap int
	fanout  int

	countMu sync.Mutex
	count   int

	stats *core.Stats
}

// cnode is a node of the concurrent tree. Leaves hold sorted entries;
// inner nodes hold separators and children (child i covers keys <
// keys[i]).
type cnode struct {
	mu       sync.RWMutex
	isLeaf   bool
	keys     []model.Key   // inner: separators
	children []*cnode      // inner only
	entries  []model.Tuple // leaf only, sorted by (key, time)
}

// NewConcurrentTree creates a concurrent B+ tree with the given leaf
// capacity and inner fanout (defaults apply when <= 0).
func NewConcurrentTree(leafCap, fanout int) *ConcurrentTree {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	if fanout < 3 {
		fanout = DefaultFanout
	}
	return &ConcurrentTree{
		root:    &cnode{isLeaf: true},
		leafCap: leafCap,
		fanout:  fanout,
		stats:   &core.Stats{},
	}
}

// Stats returns the tree's instrumentation counters.
func (t *ConcurrentTree) Stats() *core.Stats { return t.stats }

func (n *cnode) childIndex(k model.Key) int {
	return sort.Search(len(n.keys), func(i int) bool { return k < n.keys[i] })
}

// full reports whether an insert into this node may require a split.
func (n *cnode) full(leafCap, fanout int) bool {
	if n.isLeaf {
		return len(n.entries) >= leafCap
	}
	return len(n.children) >= fanout
}

// Insert adds one tuple using write-latch crabbing.
func (t *ConcurrentTree) Insert(tp model.Tuple) {
	// held is the stack of latched ancestors that may need to absorb a
	// split; rootHeld tracks whether rootMu is part of that stack.
	var held []*cnode
	rootHeld := true

	t.rootMu.Lock()
	n := t.root
	n.mu.Lock()
	if !n.full(t.leafCap, t.fanout) {
		t.rootMu.Unlock()
		rootHeld = false
	}
	for !n.isLeaf {
		child := n.children[n.childIndex(tp.Key)]
		child.mu.Lock()
		if child.full(t.leafCap, t.fanout) {
			held = append(held, n)
		} else {
			// Child is safe: release every latched ancestor.
			for _, a := range held {
				a.mu.Unlock()
			}
			held = held[:0]
			n.mu.Unlock()
			if rootHeld {
				t.rootMu.Unlock()
				rootHeld = false
			}
		}
		n = child
	}

	leaf := n
	// Insert at the end of the equal-key run (sorted by key, ties in
	// arrival order): hot keys append instead of shifting their whole run.
	i := sort.Search(len(leaf.entries), func(i int) bool {
		return leaf.entries[i].Key > tp.Key
	})
	leaf.entries = append(leaf.entries, model.Tuple{})
	copy(leaf.entries[i+1:], leaf.entries[i:])
	leaf.entries[i] = tp

	if len(leaf.entries) > t.leafCap {
		t.splitUp(leaf, held, rootHeld)
	} else {
		leaf.mu.Unlock()
		for _, a := range held {
			a.mu.Unlock()
		}
		if rootHeld {
			t.rootMu.Unlock()
		}
	}

	t.countMu.Lock()
	t.count++
	t.countMu.Unlock()
	t.stats.Inserts.Add(1)
}

// splitUp splits the overflowed node and propagates separator inserts into
// the latched ancestors, releasing latches bottom-up. held is ordered
// root-most first; n and every node in held are write-latched; rootHeld
// indicates rootMu is held (so the root may be replaced).
func (t *ConcurrentTree) splitUp(n *cnode, held []*cnode, rootHeld bool) {
	start := time.Now()
	for {
		sep, right, ok := t.splitNode(n)
		if !ok {
			// Leaf holds a single key run and cannot split without breaking
			// routing invariants; let it overflow.
			n.mu.Unlock()
			for _, a := range held {
				a.mu.Unlock()
			}
			if rootHeld {
				t.rootMu.Unlock()
			}
			break
		}
		t.stats.Splits.Add(1)
		if len(held) == 0 {
			// n was the root: grow the tree. rootHeld must be true here —
			// the descent only releases rootMu when the root is safe.
			newRoot := &cnode{
				keys:     []model.Key{sep},
				children: []*cnode{n, right},
			}
			t.root = newRoot
			n.mu.Unlock()
			if rootHeld {
				t.rootMu.Unlock()
			}
			break
		}
		parent := held[len(held)-1]
		held = held[:len(held)-1]
		idx := parent.childIndex(sep)
		parent.keys = append(parent.keys, 0)
		copy(parent.keys[idx+1:], parent.keys[idx:])
		parent.keys[idx] = sep
		parent.children = append(parent.children, nil)
		copy(parent.children[idx+2:], parent.children[idx+1:])
		parent.children[idx+1] = right
		n.mu.Unlock()
		if len(parent.children) <= t.fanout {
			parent.mu.Unlock()
			for _, a := range held {
				a.mu.Unlock()
			}
			if rootHeld {
				t.rootMu.Unlock()
			}
			break
		}
		n = parent
	}
	t.stats.SplitNanos.Add(time.Since(start).Nanoseconds())
}

// splitNode divides n in half, returning the separator key and the new
// right sibling. A run of equal keys is never divided across leaves so
// key-range routing stays exact.
func (t *ConcurrentTree) splitNode(n *cnode) (model.Key, *cnode, bool) {
	if n.isLeaf {
		if n.entries[0].Key == n.entries[len(n.entries)-1].Key {
			return 0, nil, false
		}
		mid := len(n.entries) / 2
		// Move mid forward past duplicates of the key at the cut.
		for mid < len(n.entries) && n.entries[mid].Key == n.entries[mid-1].Key {
			mid++
		}
		if mid == len(n.entries) {
			// Entire right half was one key run; cut before it instead.
			mid = len(n.entries) / 2
			for mid > 1 && n.entries[mid].Key == n.entries[mid-1].Key {
				mid--
			}
		}
		right := &cnode{isLeaf: true, entries: append([]model.Tuple(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid:mid]
		return right.entries[0].Key, right, true
	}
	mid := len(n.children) / 2
	sep := n.keys[mid-1]
	right := &cnode{
		keys:     append([]model.Key(nil), n.keys[mid:]...),
		children: append([]*cnode(nil), n.children[mid:]...),
	}
	n.keys = n.keys[: mid-1 : mid-1]
	n.children = n.children[:mid:mid]
	return sep, right, true
}

// Range visits matching tuples in key order using read-latch crabbing.
func (t *ConcurrentTree) Range(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool) {
	if !kr.IsValid() || !tr.IsValid() {
		return
	}
	t.rootMu.RLock()
	n := t.root
	n.mu.RLock()
	t.rootMu.RUnlock()
	t.rangeNode(n, kr, tr, filter, fn)
}

// rangeNode recursively scans the subtree rooted at n, which is
// read-latched on entry and released before return. It returns false when
// the visitor stopped the scan.
func (t *ConcurrentTree) rangeNode(n *cnode, kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool) bool {
	defer n.mu.RUnlock()
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
	lo := n.childIndex(kr.Lo)
	for i := lo; i < len(n.children); i++ {
		if i > 0 && n.keys[i-1] > kr.Hi {
			break
		}
		c := n.children[i]
		c.mu.RLock()
		if !t.rangeNode(c, kr, tr, filter, fn) {
			return false
		}
	}
	return true
}

// Len returns the number of tuples in the tree.
func (t *ConcurrentTree) Len() int {
	t.countMu.Lock()
	defer t.countMu.Unlock()
	return t.count
}
