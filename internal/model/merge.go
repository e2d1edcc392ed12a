package model

// CompareTuples is the canonical result order: (key, time, payload),
// matching Result.SortTuples. Negative, zero or positive as a <, ==, > b.
func CompareTuples(a, b *Tuple) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	if a.Time != b.Time {
		if a.Time < b.Time {
			return -1
		}
		return 1
	}
	switch {
	case string(a.Payload) < string(b.Payload):
		return -1
	case string(a.Payload) > string(b.Payload):
		return 1
	}
	return 0
}

// MergeSortedTuples k-way merges parts, each already sorted in canonical
// tuple order, into one sorted slice. With limit > 0 the merge stops after
// limit tuples. Ties break by part index, keeping the result deterministic
// for identical inputs. The query path merges runs instead (MergeRuns);
// this is the tuple-slice merge the ledger's model.merge_ns_per_tuple leg
// times.
func MergeSortedTuples(parts [][]Tuple, limit int) []Tuple {
	// Drop empty parts up front; the heap then never holds exhausted cursors.
	heads := make([]mergeCursor, 0, len(parts))
	total := 0
	for i, p := range parts {
		if len(p) > 0 {
			heads = append(heads, mergeCursor{part: i, tuples: p})
			total += len(p)
		}
	}
	switch len(heads) {
	case 0:
		return nil
	case 1:
		out := heads[0].tuples
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Tuple, 0, n)
	h := cursorHeap(heads)
	h.init()
	for len(h) > 0 && len(out) < n {
		c := &h[0]
		out = append(out, c.tuples[c.pos])
		c.pos++
		if c.pos == len(c.tuples) {
			h.pop()
		} else {
			h.siftDown(0)
		}
	}
	return out
}

// mergeCursor walks one sorted part.
type mergeCursor struct {
	tuples []Tuple
	pos    int
	part   int
}

// cursorHeap is a minimal binary min-heap of cursors ordered by their
// current tuple (part index as tiebreak). Hand-rolled rather than
// container/heap to avoid the interface boxing on every sift.
type cursorHeap []mergeCursor

func (h cursorHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if c := CompareTuples(&a.tuples[a.pos], &b.tuples[b.pos]); c != 0 {
		return c < 0
	}
	return a.part < b.part
}

func (h cursorHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h cursorHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *cursorHeap) pop() {
	old := *h
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
}
