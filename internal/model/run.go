package model

import (
	"bytes"
	"slices"
	"sync"
)

// A Run is tuples in wire encoding: AppendTuple's records back to back, in
// canonical order (key, time, payload) — the bytes AppendTuples writes for
// a sorted slice, which is what a result carries on the wire behind its
// count. Subqueries answer in runs, encoded from the columns they scanned,
// and the coordinator k-way merges the runs straight into the reply
// (MergeRuns), so on the server a matched tuple never exists as a Tuple. A
// run owns its bytes and is a value nobody else holds.
type Run struct {
	// Buf holds the records.
	Buf []byte
	// N counts them.
	N int
}

// recordHead reads the key, the time and the encoded length of the record
// at the front of buf, which a run guarantees is whole.
func recordHead(buf []byte) (Key, Timestamp, int) {
	return Key(be.Uint64(buf)), Timestamp(be.Uint64(buf[8:])), tupleHeaderSize + int(be.Uint32(buf[16:]))
}

// compareRecords is CompareTuples for the records at the front of a and b.
func compareRecords(a, b []byte) int {
	ka, ta, na := recordHead(a)
	kb, tb, nb := recordHead(b)
	switch {
	case ka != kb:
		if ka < kb {
			return -1
		}
		return 1
	case ta != tb:
		if ta < tb {
			return -1
		}
		return 1
	}
	return bytes.Compare(a[tupleHeaderSize:na], b[tupleHeaderSize:nb])
}

// cutRecords returns the length of buf's first n records.
func cutRecords(buf []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		_, _, size := recordHead(buf[off:])
		off += size
	}
	return off
}

// runOrder is what a RunAppender has seen of its records' order.
type runOrder uint8

const (
	// inOrder: every record sorts at or after the one before it.
	inOrder runOrder = iota
	// groupsOutOfOrder: keys never went down, but inside some equal-key
	// group a (time, payload) did.
	groupsOutOfOrder
	// keysOutOfOrder: some key is below the key before it.
	keysOutOfOrder
)

// RunAppender builds runs as a scan visits its matches. Append encodes one
// record from its columns — no Tuple is built — and notes whether it sorts
// after the record before it. Scans visit keys in ascending order and equal
// keys in arrival order, so a run whose equal keys arrived in time order is
// canonical as appended and Take copies it once; a late tuple that broke the
// order inside an equal-key group has Take sort just those groups.
type RunAppender struct {
	buf []byte
	n   int
	// last is the offset of the last record in buf; lastKey and lastTime
	// are its key and time.
	last     int
	lastKey  Key
	lastTime Timestamp
	order    runOrder
}

// Append adds the record (k, ts, p) to the run being built.
func (a *RunAppender) Append(k Key, ts Timestamp, p []byte) {
	off := len(a.buf)
	a.buf = appendRecord(a.buf, k, ts, p)
	if a.n > 0 && a.order != keysOutOfOrder {
		switch {
		case k < a.lastKey:
			a.order = keysOutOfOrder
		case k == a.lastKey && (ts < a.lastTime ||
			ts == a.lastTime && bytes.Compare(p, a.buf[a.last+tupleHeaderSize:off]) < 0):
			a.order = groupsOutOfOrder
		}
	}
	a.last, a.lastKey, a.lastTime = off, k, ts
	a.n++
}

// AppendLimited appends (k, ts, p) unless the run already holds limit
// records (limit > 0) and k is past its last key, and reports whether it
// appended: a scan that stops when it answers false ends on a whole key
// group. Take orders each group canonically, so a source's run holds its
// canonical first limit matches whatever order tying keys arrived in, and
// MergeRuns' cut at limit is the query's canonical first limit.
func (a *RunAppender) AppendLimited(limit int, k Key, ts Timestamp, p []byte) bool {
	if limit > 0 && a.n >= limit && k != a.lastKey {
		return false
	}
	a.Append(k, ts, p)
	return true
}

// Len returns the number of records appended since the last Take.
func (a *RunAppender) Len() int { return a.n }

// Take returns the records appended since the last Take as a run of their
// own — one exactly sized copy, in canonical order — and empties the
// appender for the next.
func (a *RunAppender) Take() Run {
	if a.n == 0 {
		return Run{}
	}
	r := Run{N: a.n}
	if a.order == inOrder {
		r.Buf = make([]byte, len(a.buf)) // make+copy: one allocation, not zeroed first
		copy(r.Buf, a.buf)
	} else {
		r.Buf = a.sorted()
	}
	a.reset()
	return r
}

// sorted copies the records into canonical order: each equal-key group is
// sorted on its own, or the whole run when a key went down.
func (a *RunAppender) sorted() []byte {
	offs := make([]int, 0, a.n)
	for off := 0; off < len(a.buf); {
		offs = append(offs, off)
		_, _, size := recordHead(a.buf[off:])
		off += size
	}
	cmp := func(x, y int) int { return compareRecords(a.buf[x:], a.buf[y:]) }
	if a.order == keysOutOfOrder {
		slices.SortFunc(offs, cmp)
	} else {
		for lo := 0; lo < len(offs); {
			k, _, _ := recordHead(a.buf[offs[lo]:])
			hi := lo + 1
			for hi < len(offs) && Key(be.Uint64(a.buf[offs[hi]:])) == k {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(offs[lo:hi], cmp)
			}
			lo = hi
		}
	}
	out := make([]byte, 0, len(a.buf))
	for _, off := range offs {
		_, _, size := recordHead(a.buf[off:])
		out = append(out, a.buf[off:off+size]...)
	}
	return out
}

func (a *RunAppender) reset() {
	a.buf, a.n, a.order = a.buf[:0], 0, inOrder
}

// appenders recycles RunAppender scratch across subqueries. What a run is
// handed over in is never pooled: Take copies out of the scratch.
var appenders = sync.Pool{New: func() any { return new(RunAppender) }}

// maxPooledRunScratch caps the scratch a returned appender keeps: one that
// grew past it for a one-off large result is left to the collector. A pool
// holds about one appender per concurrent subquery.
const maxPooledRunScratch = 1 << 20

// BorrowRunAppender takes an empty appender from the pool.
func BorrowRunAppender() *RunAppender { return appenders.Get().(*RunAppender) }

// ReturnRunAppender empties a and gives it back to the pool.
func ReturnRunAppender(a *RunAppender) {
	if cap(a.buf) > maxPooledRunScratch {
		return
	}
	a.reset()
	appenders.Put(a)
}

// MergeRuns appends the k-way merge of runs, each in canonical order, to dst
// and returns dst with the number of records merged. With limit > 0 the
// merge stops after limit records: a LIMIT query pays for what it returns,
// not for everything its subqueries delivered. Each cursor caches its
// head's key and time and compares payload bytes only when both tie; whole
// records that tie break by run index, so identical inputs merge
// identically. Each record is copied once. When dst is empty and one run
// holds everything, that run's own bytes, cut at limit, come back uncopied.
// It is the query path's one merge: AppendMergedResult runs it into a
// buffer that already holds the result header.
func MergeRuns(dst []byte, runs []Run, limit int) ([]byte, int) {
	h := make(runHeap, 0, len(runs))
	n := 0
	for i, r := range runs {
		if r.N > 0 {
			h = append(h, runCursor{rest: r.Buf, left: r.N, run: i})
			n += r.N
		}
	}
	if limit > 0 && limit < n {
		n = limit
	}
	switch {
	case len(h) == 0:
		return dst, 0
	case len(h) == 1 && len(dst) == 0:
		c := &h[0]
		if n == c.left {
			return c.rest, n
		}
		return c.rest[:cutRecords(c.rest, n)], n
	}
	dst = slices.Grow(dst, mergedSize(runs, limit))
	for i := range h {
		h[i].load()
	}
	h.init()
	for m := 0; m < n; {
		c := &h[0]
		if len(h) == 1 {
			// The last run left: the rest of the merge is its prefix.
			end := len(c.rest)
			if k := n - m; k < c.left {
				end = cutRecords(c.rest, k)
			}
			dst = append(dst, c.rest[:end]...)
			break
		}
		dst = append(dst, c.rest[:c.size]...)
		m++
		c.rest, c.left = c.rest[c.size:], c.left-1
		if c.left == 0 {
			h.pop()
		} else {
			c.load()
			h.siftDown(0)
		}
	}
	return dst, n
}

// mergedSize is the number of bytes MergeRuns appends for runs: exact
// without a cut, the average record times limit with one (append grows
// past that if the cut falls on larger records).
func mergedSize(runs []Run, limit int) int {
	n, size := 0, 0
	for i := range runs {
		n += runs[i].N
		size += len(runs[i].Buf)
	}
	if limit > 0 && limit < n {
		return size / n * limit
	}
	return size
}

// runCursor walks one run of a merge.
type runCursor struct {
	// rest is the run from the head record on; left counts its records.
	rest []byte
	left int
	// key, time and size are the head record's, cached by load.
	key  Key
	time Timestamp
	size int
	run  int
}

func (c *runCursor) load() { c.key, c.time, c.size = recordHead(c.rest) }

// runHeap is a binary min-heap of cursors ordered by their head record
// (run index as tiebreak), hand-rolled like cursorHeap.
type runHeap []runCursor

func (h runHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.time != b.time {
		return a.time < b.time
	}
	if c := bytes.Compare(a.rest[tupleHeaderSize:a.size], b.rest[tupleHeaderSize:b.size]); c != 0 {
		return c < 0
	}
	return a.run < b.run
}

func (h runHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h runHeap) siftDown(i int) {
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

func (h *runHeap) pop() {
	old := *h
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
}
