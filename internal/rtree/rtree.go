// Package rtree implements an R-tree [5] over key×time regions. The query
// coordinator keeps one over the data-region metadata so it can efficiently
// retrieve the query-region candidates — data regions overlapping a query
// region — during query decomposition (paper §IV-A). Overlapping regions
// (from repartitions and late arrivals) are handled naturally.
package rtree

import (
	"sync"

	"waterwheel/internal/model"
)

// Tree is a concurrency-safe R-tree mapping regions to opaque values.
type Tree struct {
	mu         sync.RWMutex
	root       *node
	maxEntries int
	minEntries int
	size       int
}

type node struct {
	leaf    bool
	entries []entry
}

type entry struct {
	mbr   model.Region
	child *node // internal entries
	value any   // leaf entries
}

// New creates an R-tree with the given node capacity (minimum 4; values
// below are raised to the default of 16).
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = 16
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5, // R*-tree's recommended 40%
	}
}

// Insert stores value under the given region. Duplicate regions are
// allowed.
func (t *Tree) Insert(r model.Region, value any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insert(entry{mbr: r, value: value})
	t.size++
}

func (t *Tree) insert(e entry) {
	leaf, path := t.chooseLeaf(e.mbr)
	leaf.entries = append(leaf.entries, e)
	t.adjustUp(leaf, path)
}

// chooseLeaf descends to the leaf requiring least area enlargement,
// returning the leaf and the root-to-parent path.
func (t *Tree) chooseLeaf(r model.Region) (*node, []*node) {
	n := t.root
	var path []*node
	for !n.leaf {
		path = append(path, n)
		best, bestEnl, bestArea := 0, -1.0, 0.0
		for i := range n.entries {
			enl := enlargement(n.entries[i].mbr, r)
			ar := area(n.entries[i].mbr)
			if bestEnl < 0 || enl < bestEnl || (enl == bestEnl && ar < bestArea) {
				best, bestEnl, bestArea = i, enl, ar
			}
		}
		n = n.entries[best].child
	}
	return n, path
}

// adjustUp recomputes MBRs along the path and splits overflowing nodes.
func (t *Tree) adjustUp(n *node, path []*node) {
	for {
		var split *node
		if len(n.entries) > t.maxEntries {
			split = t.splitNode(n)
		}
		if len(path) == 0 {
			if split != nil {
				// Grow a new root.
				newRoot := &node{entries: []entry{
					{mbr: mbrOf(n), child: n},
					{mbr: mbrOf(split), child: split},
				}}
				t.root = newRoot
			}
			return
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries[i].mbr = mbrOf(n)
				break
			}
		}
		if split != nil {
			parent.entries = append(parent.entries, entry{mbr: mbrOf(split), child: split})
		}
		n = parent
	}
}

// splitNode performs a quadratic split, moving roughly half the entries to
// a returned new node.
func (t *Tree) splitNode(n *node) *node {
	seedA, seedB := quadraticSeeds(n.entries)
	groupA := []entry{n.entries[seedA]}
	groupB := []entry{n.entries[seedB]}
	mbrA, mbrB := n.entries[seedA].mbr, n.entries[seedB].mbr
	var rest []entry
	for i, e := range n.entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for ri, e := range rest {
		// Force-assign when a group must take every remaining entry to
		// reach the minimum fill.
		remaining := len(rest) - ri
		switch {
		case len(groupA)+remaining <= t.minEntries:
			groupA = append(groupA, e)
			mbrA = union(mbrA, e.mbr)
			continue
		case len(groupB)+remaining <= t.minEntries:
			groupB = append(groupB, e)
			mbrB = union(mbrB, e.mbr)
			continue
		}
		dA := enlargement(mbrA, e.mbr)
		dB := enlargement(mbrB, e.mbr)
		if dA < dB || (dA == dB && area(mbrA) <= area(mbrB)) {
			groupA = append(groupA, e)
			mbrA = union(mbrA, e.mbr)
		} else {
			groupB = append(groupB, e)
			mbrB = union(mbrB, e.mbr)
		}
	}
	n.entries = groupA
	return &node{leaf: n.leaf, entries: groupB}
}

// quadraticSeeds picks the pair of entries wasting the most area together.
func quadraticSeeds(es []entry) (int, int) {
	bestI, bestJ, worst := 0, 1, -1.0
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			d := area(union(es[i].mbr, es[j].mbr)) - area(es[i].mbr) - area(es[j].mbr)
			if d > worst {
				worst, bestI, bestJ = d, i, j
			}
		}
	}
	return bestI, bestJ
}

// Search returns the values of all entries whose region overlaps r.
func (t *Tree) Search(r model.Region) []any {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []any
	searchNode(t.root, r, &out)
	return out
}

func searchNode(n *node, r model.Region, out *[]any) {
	for i := range n.entries {
		if !n.entries[i].mbr.Overlaps(r) {
			continue
		}
		if n.leaf {
			*out = append(*out, n.entries[i].value)
		} else {
			searchNode(n.entries[i].child, r, out)
		}
	}
}

// Delete removes one entry with an exactly matching region for which match
// returns true, reporting whether anything was removed.
func (t *Tree) Delete(r model.Region, match func(any) bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, path, idx := findExact(t.root, nil, r, match)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(leaf, path)
	return true
}

func findExact(n *node, path []*node, r model.Region, match func(any) bool) (*node, []*node, int) {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].mbr == r && match(n.entries[i].value) {
				return n, path, i
			}
		}
		return nil, nil, -1
	}
	for i := range n.entries {
		if !n.entries[i].mbr.Overlaps(r) {
			continue
		}
		if leaf, p, idx := findExact(n.entries[i].child, append(path, n), r, match); leaf != nil {
			return leaf, p, idx
		}
	}
	return nil, nil, -1
}

// condense removes underfull nodes along the path and reinserts their
// orphaned entries, then shrinks the root if needed.
func (t *Tree) condense(n *node, path []*node) {
	var orphans []entry
	for len(path) > 0 {
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		if len(n.entries) < t.minEntries {
			for i := range parent.entries {
				if parent.entries[i].child == n {
					parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
					break
				}
			}
			orphans = append(orphans, collectLeafEntries(n)...)
		} else {
			for i := range parent.entries {
				if parent.entries[i].child == n {
					parent.entries[i].mbr = mbrOf(n)
					break
				}
			}
		}
		n = parent
	}
	// Shrink root.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
	}
	for _, e := range orphans {
		t.insert(e)
	}
}

func collectLeafEntries(n *node) []entry {
	if n.leaf {
		return n.entries
	}
	var out []entry
	for i := range n.entries {
		out = append(out, collectLeafEntries(n.entries[i].child)...)
	}
	return out
}

// Geometry helpers. Heuristics (areas) use float64; correctness predicates
// use exact integer comparisons from package model.

func area(r model.Region) float64 {
	return float64(r.Keys.Width()) * float64(r.Times.Duration()+1)
}

func union(a, b model.Region) model.Region {
	u := a
	if b.Keys.Lo < u.Keys.Lo {
		u.Keys.Lo = b.Keys.Lo
	}
	if b.Keys.Hi > u.Keys.Hi {
		u.Keys.Hi = b.Keys.Hi
	}
	if b.Times.Lo < u.Times.Lo {
		u.Times.Lo = b.Times.Lo
	}
	if b.Times.Hi > u.Times.Hi {
		u.Times.Hi = b.Times.Hi
	}
	return u
}

func enlargement(mbr, add model.Region) float64 {
	return area(union(mbr, add)) - area(mbr)
}

func mbrOf(n *node) model.Region {
	m := n.entries[0].mbr
	for i := 1; i < len(n.entries); i++ {
		m = union(m, n.entries[i].mbr)
	}
	return m
}
