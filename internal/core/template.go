package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/model"
)

// TemplateConfig parametrizes a template B+ tree.
type TemplateConfig struct {
	// Keys is the key interval this tree is responsible for.
	Keys model.KeyRange
	// Leaves is the number of leaf nodes l. The template is the leaf-boundary
	// partition P (paper §III-C2): its l-1 separator keys.
	Leaves int
	// SkewThreshold triggers a template update when the skewness factor
	// S(P,D) exceeds it. The paper cites 0.2 as an example; with small
	// leaves the statistical noise floor of max-leaf occupancy is higher,
	// so the default here is 1.0 (largest leaf at 2x the mean).
	SkewThreshold float64
	// CheckEvery is the skew-check cadence in inserts. An empty tree first
	// checks at CheckEvery tuples; a check at size c schedules the next at
	// c+CheckEvery, or at max(2c, c+CheckEvery) when it rebuilt, so a
	// drifting stream costs O(n) rebuild work per fill, not O(n²/CheckEvery).
	CheckEvery int
}

func (c *TemplateConfig) fill() {
	if c.Leaves <= 0 {
		c.Leaves = 256
	}
	if c.SkewThreshold <= 0 {
		c.SkewThreshold = 1.0
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 4096
	}
	if !c.Keys.IsValid() {
		c.Keys = model.FullKeyRange()
	}
}

// tleaf is a leaf node, stored structure-of-arrays: parallel key,
// timestamp and payload-reference columns plus an append-only payload
// arena — four allocations per leaf, no per-tuple boxing. The columns are
// kept sorted by key, with equal keys in arrival order: inserting at the
// *end* of an equal-key run makes repeated hot keys append-cheap instead
// of memmove-quadratic, which matters for duplicate-heavy streams (sensor
// ids, discretized positions). Searches and merges stride a dense
// 8-byte key column instead of 40-byte tuple structs. The template allows
// a leaf to overflow its nominal capacity — imbalance is handled by
// template update, never by splitting.
type tleaf struct {
	mu sync.Mutex
	// The live window is [head, head+cnt) of each column buffer. The
	// buffers keep slack on BOTH ends so a batch merge can shift whichever
	// side of the insertion region is cheaper — on uniform keys that
	// halves the bytes moved per merge versus always shifting the suffix
	// right.
	kbuf []model.Key
	tbuf []model.Timestamp
	rbuf []PayloadRef
	head int
	cnt  int
	// arena holds every payload back to back, append-only: inserts copy
	// payload bytes in (the tree never retains caller buffers) and merges
	// move only the reference column, so written arena bytes are
	// immutable until FlushReset hands the whole arena to a snapshot.
	arena []byte
	// n mirrors cnt for lock-free skew checks.
	n atomic.Int32
	// minT/maxT bound the timestamps in the leaf (valid when n > 0).
	minT, maxT model.Timestamp
}

// keyWin returns the live key window kbuf[head:head+cnt].
func (lf *tleaf) keyWin() []model.Key { return lf.kbuf[lf.head : lf.head+lf.cnt] }

// cols returns the live window [head, head+cnt) as columns, capped so the
// view cannot reach the buffer slack. It aliases the leaf's buffers: a
// reader holds the latch while it reads them.
func (lf *tleaf) cols() LeafCols {
	h, c := lf.head, lf.cnt
	return LeafCols{
		Keys:  lf.kbuf[h : h+c : h+c],
		Times: lf.tbuf[h : h+c : h+c],
		Refs:  lf.rbuf[h : h+c : h+c],
		Arena: lf.arena,
	}
}

// appendPayload copies p into the leaf arena and returns its reference.
func (lf *tleaf) appendPayload(p []byte) PayloadRef {
	arena, r := arenaAppend(lf.arena, p)
	lf.arena = arena
	return r
}

// growLocked reallocates the three column buffers with room for at least
// extra more tuples, recentering the live window so both ends regain
// slack. The arena is untouched — references stay valid across grows.
func (lf *tleaf) growLocked(extra int) {
	n := lf.cnt
	newCap := 2*(n+extra) + 8
	head := (newCap - n - extra) / 2
	kb := make([]model.Key, newCap)
	tb := make([]model.Timestamp, newCap)
	rb := make([]PayloadRef, newCap)
	copy(kb[head:head+n], lf.kbuf[lf.head:lf.head+n])
	copy(tb[head:head+n], lf.tbuf[lf.head:lf.head+n])
	copy(rb[head:head+n], lf.rbuf[lf.head:lf.head+n])
	lf.kbuf, lf.tbuf, lf.rbuf, lf.head = kb, tb, rb, head
}

// insertOneLocked places a single tuple: one closure-free upper-bound
// search over the key column, then a one-slot shift of whichever side of
// the insertion point is shorter — three column copies per shift. The batch
// path's runs of one land here instead of in the merge machinery.
func (lf *tleaf) insertOneLocked(k model.Key, ts model.Timestamp, p []byte) {
	r := lf.appendPayload(p)
	n := lf.cnt
	if n == 0 {
		if len(lf.kbuf) == 0 {
			lf.growLocked(1)
		}
		lf.head = len(lf.kbuf) / 2
		lf.cnt = 1
		lf.kbuf[lf.head], lf.tbuf[lf.head], lf.rbuf[lf.head] = k, ts, r
		lf.minT, lf.maxT = ts, ts
		return
	}
	if ts < lf.minT {
		lf.minT = ts
	}
	if ts > lf.maxT {
		lf.maxT = ts
	}
	pos := upperBoundKeys(lf.keyWin(), k)
	if 2*pos < n && lf.head > 0 {
		h := lf.head
		copy(lf.kbuf[h-1:], lf.kbuf[h:h+pos])
		copy(lf.tbuf[h-1:], lf.tbuf[h:h+pos])
		copy(lf.rbuf[h-1:], lf.rbuf[h:h+pos])
		lf.head--
		lf.cnt = n + 1
		i := lf.head + pos
		lf.kbuf[i], lf.tbuf[i], lf.rbuf[i] = k, ts, r
		return
	}
	if lf.head+n == len(lf.kbuf) {
		lf.growLocked(1)
	}
	i := lf.head + pos
	end := lf.head + n
	copy(lf.kbuf[i+1:end+1], lf.kbuf[i:end])
	copy(lf.tbuf[i+1:end+1], lf.tbuf[i:end])
	copy(lf.rbuf[i+1:end+1], lf.rbuf[i:end])
	lf.cnt = n + 1
	lf.kbuf[i], lf.tbuf[i], lf.rbuf[i] = k, ts, r
}

// mergeLocked merges a key-sorted run (equal keys in arrival order) into
// the leaf. New tuples land *after* existing equal keys — the same
// placement insertOneLocked's strict `>` search produces — and the run's
// internal order is preserved, so a merged batch is indistinguishable from
// inserting its tuples one at a time. refs is caller scratch with room for
// len(run) references; payload bytes are copied into the arena up front
// (in run order), then the merge moves only column words.
//
// Existing entries move in block memmoves — one per column per equal-key
// group of the run — and the merge runs toward whichever end of the
// buffers is closer to the insertion region: a run landing in the lower
// half shifts the prefix left into front slack instead of shifting the
// (larger) suffix right. A run of m tuples costs O(m + moved) bulk copies
// instead of m searches and m element shifts.
func (lf *tleaf) mergeLocked(run []model.Tuple, refs []PayloadRef) {
	m := len(run)
	if m == 0 {
		return
	}
	if lf.cnt == 0 {
		lf.minT, lf.maxT = run[0].Time, run[0].Time
	}
	for i := range run {
		if run[i].Time < lf.minT {
			lf.minT = run[i].Time
		}
		if run[i].Time > lf.maxT {
			lf.maxT = run[i].Time
		}
		refs[i] = lf.appendPayload(run[i].Payload)
	}
	n := lf.cnt
	if n == 0 {
		if len(lf.kbuf) < m {
			lf.growLocked(m)
		}
		lf.head = (len(lf.kbuf) - m) / 2
		lf.cnt = m
		for i := range run {
			lf.kbuf[lf.head+i] = run[i].Key
			lf.tbuf[lf.head+i] = run[i].Time
		}
		copy(lf.rbuf[lf.head:lf.head+m], refs[:m])
		return
	}
	// Pick the merge direction by the run's median insertion point, then
	// fall back to whichever side actually has room (growing recenters, so
	// after a grow the back always has room).
	pos := upperBoundKeys(lf.keyWin(), run[m/2].Key)
	forward := 2*pos < n
	if forward && lf.head < m {
		if len(lf.kbuf)-lf.head-n >= m {
			forward = false
		} else {
			lf.growLocked(m)
			forward = lf.head >= m
		}
	} else if !forward && len(lf.kbuf)-lf.head-n < m {
		if lf.head >= m {
			forward = true
		} else {
			lf.growLocked(m)
			forward = false
		}
	}
	if forward {
		lf.mergeForwardLocked(run, refs)
	} else {
		lf.mergeBackwardLocked(run, refs)
	}
}

// upperBoundKeys returns the first index in the sorted key column whose
// key is strictly greater than k — the slot where new arrivals of key k
// land, after all existing equal keys.
func upperBoundKeys(keys []model.Key, k model.Key) int {
	// Shrink-by-half form: the conditional advance compiles to a
	// predicated move instead of a hard-to-predict branch, which matters
	// at one search per inserted tuple over random keys.
	base, n := 0, len(keys)
	for n > 1 {
		half := n >> 1
		if keys[base+half-1] <= k {
			base += half
		}
		n -= half
	}
	if n == 1 && keys[base] <= k {
		base++
	}
	return base
}

// mergeBackwardLocked extends the window rightward and merges right to
// left, moving the existing entries that sort above each equal-key group
// of the run. Caller guarantees m free slots after the window.
func (lf *tleaf) mergeBackwardLocked(run []model.Tuple, refs []PayloadRef) {
	n, m := lf.cnt, len(run)
	base := lf.head
	kb, tb, rb := lf.kbuf, lf.tbuf, lf.rbuf
	lf.cnt = n + m
	if kb[base+n-1] <= run[0].Key {
		// The whole run sorts after the existing tail (equal existing keys
		// stay below the new arrivals).
		for x := 0; x < m; x++ {
			kb[base+n+x] = run[x].Key
			tb[base+n+x] = run[x].Time
		}
		copy(rb[base+n:base+n+m], refs[:m])
		return
	}
	dst := n + m // exclusive write cursor (window-relative), right to left
	src := n     // exclusive end of not-yet-merged existing entries
	for j := m; j > 0; {
		k := run[j-1].Key
		i := j - 1
		for i > 0 && run[i-1].Key == k {
			i--
		}
		lo := upperBoundKeys(kb[base:base+src], k)
		if blk := src - lo; blk > 0 {
			copy(kb[base+dst-blk:base+dst], kb[base+lo:base+src])
			copy(tb[base+dst-blk:base+dst], tb[base+lo:base+src])
			copy(rb[base+dst-blk:base+dst], rb[base+lo:base+src])
			dst -= blk
			src = lo
		}
		g := j - i
		for x := 0; x < g; x++ {
			kb[base+dst-g+x] = run[i+x].Key
			tb[base+dst-g+x] = run[i+x].Time
		}
		copy(rb[base+dst-g:base+dst], refs[i:j])
		dst -= g
		j = i
	}
}

// mergeForwardLocked extends the window leftward into front slack and
// merges left to right: existing entries that sort at or below each group
// (including existing equal keys, which must stay before new arrivals)
// shift left by the room the pending run elements no longer need. Caller
// guarantees m free slots before the window.
func (lf *tleaf) mergeForwardLocked(run []model.Tuple, refs []PayloadRef) {
	n, m := lf.cnt, len(run)
	base := lf.head
	kb, tb, rb := lf.kbuf, lf.tbuf, lf.rbuf
	lf.head -= m
	lf.cnt = n + m
	d := lf.head // write cursor in the buffers, filled left to right
	src := 0     // start of not-yet-merged existing entries
	for i := 0; i < m; {
		k := run[i].Key
		j := i + 1
		for j < m && run[j].Key == k {
			j++
		}
		// Existing entries with key <= k (equal keys included) precede the
		// group; binary search the strict upper bound among the unmerged.
		lo, hi := src, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if kb[base+mid] > k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if blk := lo - src; blk > 0 {
			copy(kb[d:d+blk], kb[base+src:base+lo])
			copy(tb[d:d+blk], tb[base+src:base+lo])
			copy(rb[d:d+blk], rb[base+src:base+lo])
			d += blk
			src = lo
		}
		g := j - i
		for x := 0; x < g; x++ {
			kb[d+x] = run[i+x].Key
			tb[d+x] = run[i+x].Time
		}
		copy(rb[d:d+g], refs[i:j])
		d += g
		i = j
	}
}

// TemplateTree is the template-based B+ tree (paper §III-B).
//
// Concurrency protocol: inserts and reads take the gate in shared mode and
// latch only the target leaves; template updates and flushes take the gate
// exclusively. The template — the separator list — is read-only between
// updates, which is what removes the split/latch bottleneck of a
// traditional B+ tree: routing is one search over it, with no inner nodes
// to descend or split.
type TemplateTree struct {
	cfg TemplateConfig

	gate sync.RWMutex
	// leaves in key order; leaf i covers [bounds[i-1], bounds[i]).
	leaves []*tleaf
	// bounds are the l-1 separator keys of the current partition P.
	bounds []model.Key

	count atomic.Int64
	bytes atomic.Int64
	// nextCheck is the tree size at which the next skew check runs (see
	// TemplateConfig.CheckEvery). It is stored under the gate: shared by a
	// check that does not rebuild, exclusively by UpdateTemplate and
	// FlushReset, so a flush always restarts the schedule.
	nextCheck atomic.Int64
	checkMu   sync.Mutex
	// floorSkew stores the skewness remaining right after the last template
	// update (as float64 bits). Duplicate-heavy keys leave an irreducible
	// residue — the hottest key's run cannot be divided across leaves — so
	// re-triggering below ~2x the residue would rebuild in vain.
	floorSkew atomic.Uint64
	stats     *Stats

	// scratch recycles InsertBatch's routing tags and gather buffer so the
	// steady-state batch path allocates nothing.
	scratch sync.Pool
}

// insertScratch is the reusable working set of one InsertBatch call.
type insertScratch struct {
	tags []uint64
	out  []uint64 // counting-sort destination, swapped with tags
	cnts []uint32 // per-leaf occupancy for the counting grouping
	run  []model.Tuple
	refs []PayloadRef
}

// NewTemplateTree creates a template tree whose initial partition divides
// cfg.Keys evenly across cfg.Leaves leaves.
func NewTemplateTree(cfg TemplateConfig) *TemplateTree {
	return NewTemplateTreeFromSample(cfg, nil)
}

// NewTemplateTreeFromSample creates a template tree whose initial partition
// is derived from a sample of the expected key distribution, dividing the
// sample evenly across leaves. An empty sample divides cfg.Keys evenly.
func NewTemplateTreeFromSample(cfg TemplateConfig, sample []model.Key) *TemplateTree {
	cfg.fill()
	t := &TemplateTree{cfg: cfg, stats: &Stats{}}
	t.nextCheck.Store(int64(cfg.CheckEvery))
	if len(sample) == 0 {
		t.installPartition(evenBoundaries(cfg.Keys, cfg.Leaves))
		return t
	}
	s := append([]model.Key(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	t.installPartition(boundariesFromSorted(s, cfg.Leaves))
	return t
}

// Stats returns the tree's instrumentation counters.
func (t *TemplateTree) Stats() *Stats { return t.stats }

// evenBoundaries returns l-1 separators splitting kr into equal-width
// leaves.
func evenBoundaries(kr model.KeyRange, l int) []model.Key {
	if l <= 1 {
		return nil
	}
	width := uint64(kr.Hi - kr.Lo)
	step := width / uint64(l)
	if step == 0 {
		step = 1
	}
	bounds := make([]model.Key, 0, l-1)
	for i := 1; i < l; i++ {
		b := uint64(kr.Lo) + uint64(i)*step
		if b > uint64(kr.Hi) {
			b = uint64(kr.Hi)
		}
		bounds = append(bounds, model.Key(b))
	}
	return bounds
}

// boundariesFromSorted returns l-1 separators that evenly divide the sorted
// key list into l runs (Equation 3). Separators never split a run of equal
// keys: the whole run lands in the right-hand leaf.
func boundariesFromSorted(keys []model.Key, l int) []model.Key {
	if l <= 1 || len(keys) == 0 {
		return nil
	}
	bounds := make([]model.Key, 0, l-1)
	n := len(keys)
	for i := 1; i < l; i++ {
		idx := i * n / l
		if idx >= n {
			idx = n - 1
		}
		bounds = append(bounds, keys[idx])
	}
	return bounds
}

// installPartition replaces the separators and the leaf set. Caller must
// hold the gate exclusively (or be the constructor).
func (t *TemplateTree) installPartition(bounds []model.Key) {
	leaves := make([]*tleaf, len(bounds)+1)
	for i := range leaves {
		leaves[i] = &tleaf{}
	}
	t.bounds = bounds
	t.leaves = leaves
}

// Insert adds one tuple: InsertBatch of one, whose slice stays on the
// stack. Safe for concurrent use; only the target leaf is latched. The
// payload bytes are copied into the leaf arena — the tree never retains
// tp.Payload.
func (t *TemplateTree) Insert(tp model.Tuple) {
	t.InsertBatch([]model.Tuple{tp})
}

// InsertBatch adds a batch of tuples with amortized per-tuple cost. Every
// tuple is routed once against the separator list (leaf li covers
// [bounds[li-1], bounds[li])), and (leaf index, arrival position) is packed
// into one machine word.
// Sorting the packed words — a branch-predictable uint64 pdqsort, no
// comparison closures — groups the batch by destination leaf while the
// position half keeps arrival order, so the grouping is stable by
// construction. Each per-leaf run is then gathered, stable-sorted by key
// (equal keys keep arrival order), and merged into its leaf with block
// memmoves instead of a binary search plus element shift per tuple. The
// gate is taken once and skew-check accounting is amortized to one atomic
// add per batch.
func (t *TemplateTree) InsertBatch(ts []model.Tuple) {
	if len(ts) == 0 {
		return
	}
	sc, _ := t.scratch.Get().(*insertScratch)
	if sc == nil {
		sc = &insertScratch{}
	}
	if cap(sc.tags) < len(ts) {
		sc.tags = make([]uint64, len(ts))
		sc.run = make([]model.Tuple, len(ts))
		sc.refs = make([]PayloadRef, len(ts))
	}
	tags := sc.tags[:len(ts)]
	scratch := sc.run[:len(ts)]
	var bytes int64
	t.gate.RLock()
	bounds := t.bounds
	for i := range ts {
		bytes += int64(ts[i].Size())
		k := ts[i].Key
		// Same predicated shrink-by-half search as upperBoundKeys: leaf
		// li covers [bounds[li-1], bounds[li]).
		base, n := 0, len(bounds)
		for n > 1 {
			half := n >> 1
			if bounds[base+half-1] <= k {
				base += half
			}
			n -= half
		}
		if n == 1 && bounds[base] <= k {
			base++
		}
		tags[i] = uint64(base)<<32 | uint64(uint32(i))
	}
	// Group the batch by destination leaf. Large batches use a counting
	// scatter over leaf ids — O(n + leaves) with no comparisons, stable
	// because equal leaf ids scatter in input order; small batches stay
	// on the comparison sort, where the per-leaf counting passes would
	// dominate. The position half of each tag keeps arrival order
	// recoverable either way.
	if len(ts) >= 64 {
		nl := len(bounds) + 1
		if cap(sc.cnts) < nl {
			sc.cnts = make([]uint32, nl)
		}
		if cap(sc.out) < len(ts) {
			sc.out = make([]uint64, len(ts))
		}
		cnts := sc.cnts[:nl]
		for i := range tags {
			cnts[tags[i]>>32]++
		}
		sum := uint32(0)
		for li := range cnts {
			c := cnts[li]
			cnts[li] = sum
			sum += c
		}
		out := sc.out[:len(ts)]
		for i := range tags {
			li := tags[i] >> 32
			out[cnts[li]] = tags[i]
			cnts[li]++
		}
		tags = out
		clear(cnts)
	} else {
		slices.Sort(tags)
	}
	pos := 0
	for pos < len(tags) {
		li := int(tags[pos] >> 32)
		end := pos + 1
		for end < len(tags) && int(tags[end]>>32) == li {
			end++
		}
		lf := t.leaves[li]
		if end == pos+1 {
			// Runs of one dominate when the batch spreads over many
			// leaves; skip the gather and merge machinery entirely.
			tp := &ts[uint32(tags[pos])]
			lf.mu.Lock()
			lf.insertOneLocked(tp.Key, tp.Time, tp.Payload)
			lf.n.Store(int32(lf.cnt))
			lf.mu.Unlock()
			pos = end
			continue
		}
		run := scratch[:end-pos]
		for j := pos; j < end; j++ {
			run[j-pos] = ts[uint32(tags[j])]
		}
		slices.SortStableFunc(run, func(a, b model.Tuple) int { return cmp.Compare(a.Key, b.Key) })
		lf.mu.Lock()
		lf.mergeLocked(run, sc.refs[:len(run)])
		lf.n.Store(int32(lf.cnt))
		lf.mu.Unlock()
		pos = end
	}
	n := int64(len(ts))
	due := t.count.Add(n) >= t.nextCheck.Load()
	t.bytes.Add(bytes)
	t.gate.RUnlock()
	// The gather buffer holds stale Tuple copies (payload pointers) until
	// the next batch overwrites it; bound the retention by not pooling
	// outsized one-off batches.
	if cap(sc.tags) <= 1<<16 {
		t.scratch.Put(sc)
	}
	t.stats.Inserts.Add(n)
	if due {
		t.maybeUpdate()
	}
}

// maybeUpdate runs the skewness check the schedule says is due and, when
// it fires, the template update. A try-lock ensures a single checker.
func (t *TemplateTree) maybeUpdate() {
	if !t.checkMu.TryLock() {
		return
	}
	defer t.checkMu.Unlock()
	threshold := t.cfg.SkewThreshold
	if floor := math.Float64frombits(t.floorSkew.Load()); 2*floor > threshold {
		threshold = 2 * floor
	}
	t.gate.RLock()
	c := t.count.Load()
	// A flush or another check may have moved the schedule since the
	// inserter saw the check due.
	due := c >= t.nextCheck.Load()
	skewed := due && t.skewnessLocked() > threshold
	if due && !skewed {
		t.nextCheck.Store(c + int64(t.cfg.CheckEvery))
	}
	t.gate.RUnlock()
	if skewed {
		t.UpdateTemplate()
	}
}

// Skewness computes S(P,D) = max_i (|Ki(D)| - n)/n with n = |D|/l
// (Equation 1). Returns 0 when the tree is empty.
func (t *TemplateTree) Skewness() float64 {
	t.gate.RLock()
	defer t.gate.RUnlock()
	return t.skewnessLocked()
}

func (t *TemplateTree) skewnessLocked() float64 {
	total := int64(0)
	maxLeaf := int64(0)
	for _, lf := range t.leaves {
		c := int64(lf.n.Load())
		total += c
		if c > maxLeaf {
			maxLeaf = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(t.leaves))
	return (float64(maxLeaf) - mean) / mean
}

// UpdateTemplate recomputes the leaf partition so tuples divide evenly
// across leaves (Equation 3) and redistributes the entries into fresh
// leaves (paper §III-C2). Inserts and reads are paused for the duration;
// the paper reports sub-10ms latencies, which this implementation matches
// at comparable sizes. The next skew check waits until the tree has at
// least doubled, so rebuilds under drift cost O(n) entry moves per fill.
func (t *TemplateTree) UpdateTemplate() {
	start := time.Now()
	t.gate.Lock()
	// Concatenating per-leaf columns yields globally key-sorted columns,
	// because leaves own disjoint, ordered key intervals. Payloads are
	// gathered as views into the old arenas; redistribution copies them
	// into the fresh leaves' arenas below (arena ownership never spans
	// leaves), so the old column buffers and arenas are dropped wholesale.
	total := 0
	for _, lf := range t.leaves {
		total += lf.cnt
	}
	allK := make([]model.Key, 0, total)
	allT := make([]model.Timestamp, 0, total)
	allP := make([][]byte, 0, total)
	for _, lf := range t.leaves {
		h, c := lf.head, lf.cnt
		allK = append(allK, lf.kbuf[h:h+c]...)
		allT = append(allT, lf.tbuf[h:h+c]...)
		for j := h; j < h+c; j++ {
			allP = append(allP, arenaPayload(lf.arena, lf.rbuf[j]))
		}
	}
	bounds := boundariesFromSorted(allK, t.cfg.Leaves)
	if bounds == nil {
		bounds = evenBoundaries(t.cfg.Keys, t.cfg.Leaves)
	}
	t.installPartition(bounds)
	t.redistributeLocked(allK, allT, allP)
	t.floorSkew.Store(math.Float64bits(t.skewnessLocked()))
	t.nextCheck.Store(int64(max(2*total, total+t.cfg.CheckEvery)))
	t.gate.Unlock()
	t.stats.TemplateUpdates.Add(1)
	t.stats.TemplateUpdateNanos.Add(time.Since(start).Nanoseconds())
}

// redistributeLocked assigns the key-sorted columns to the freshly built
// leaves by the current separators, copying each payload into its new
// leaf's arena. Caller holds the gate exclusively.
func (t *TemplateTree) redistributeLocked(allK []model.Key, allT []model.Timestamp, allP [][]byte) {
	pos := 0
	for i, lf := range t.leaves {
		end := len(allK)
		if i < len(t.bounds) {
			b := t.bounds[i]
			end = pos + sort.Search(len(allK)-pos, func(j int) bool {
				return allK[pos+j] >= b
			})
		}
		if end > pos {
			// Fresh centered buffers: redistribution owns the new leaves, and
			// centering re-arms the two-ended slack the batch merge exploits.
			n := end - pos
			capn := 2*n + 8
			lf.kbuf = make([]model.Key, capn)
			lf.tbuf = make([]model.Timestamp, capn)
			lf.rbuf = make([]PayloadRef, capn)
			lf.head = (capn - n) / 2
			lf.cnt = n
			payBytes := 0
			for j := pos; j < end; j++ {
				payBytes += len(allP[j])
			}
			lf.arena = make([]byte, 0, payBytes)
			copy(lf.kbuf[lf.head:], allK[pos:end])
			copy(lf.tbuf[lf.head:], allT[pos:end])
			lf.minT, lf.maxT = allT[pos], allT[pos]
			for j := pos; j < end; j++ {
				lf.rbuf[lf.head+j-pos] = lf.appendPayload(allP[j])
				if allT[j] < lf.minT {
					lf.minT = allT[j]
				}
				if allT[j] > lf.maxT {
					lf.maxT = allT[j]
				}
			}
		}
		lf.n.Store(int32(lf.cnt))
		pos = end
	}
}

// ColsVisitor visits one tuple as raw columns. The payload slice aliases a
// leaf arena: treat it as read-only and copy it to retain it beyond the
// call. Return false to stop the scan.
type ColsVisitor = func(model.Key, model.Timestamp, []byte) bool

// RangeCols visits matching tuples in key order as raw (key, time,
// payload) columns, without materializing model.Tuple values. Leaves whose
// time bounds miss tr are skipped without latching their columns. The
// payload slice aliases the leaf arena: treat it as read-only and copy it
// to retain it beyond the callback.
func (t *TemplateTree) RangeCols(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn ColsVisitor) {
	if !kr.IsValid() || !tr.IsValid() {
		return
	}
	t.gate.RLock()
	defer t.gate.RUnlock()
	lo := sort.Search(len(t.bounds), func(i int) bool { return kr.Lo < t.bounds[i] })
	for i := lo; i < len(t.leaves); i++ {
		if i > 0 && t.bounds[i-1] > kr.Hi {
			break
		}
		lf := t.leaves[i]
		if lf.n.Load() == 0 {
			continue
		}
		lf.mu.Lock()
		more := true
		if lf.maxT >= tr.Lo && lf.minT <= tr.Hi {
			cols := lf.cols()
			more = cols.RangeCols(kr, tr, filter, fn)
		}
		lf.mu.Unlock()
		if !more {
			return
		}
	}
}

// Len returns the number of tuples in the tree.
func (t *TemplateTree) Len() int { return int(t.count.Load()) }

// Bytes returns the approximate payload footprint of the tree, used by
// flush policies.
func (t *TemplateTree) Bytes() int64 { return t.bytes.Load() }

// FlushSnapshot is the content handed to the chunk builder by FlushReset:
// the per-leaf columns, the leaf partition that produced them, and summary
// bounds. The chunk encoder consumes the columns directly — flush is a
// column-to-column transcode with zero tuple materialization.
type FlushSnapshot struct {
	// Bounds are the l-1 separators of the partition at flush time.
	Bounds []model.Key
	// Leaves holds each leaf's columns, sorted by key (equal keys in
	// arrival order). Each leaf owns its arena.
	Leaves []LeafCols
	// Count is the total number of tuples.
	Count int
	// Bytes is the approximate payload footprint.
	Bytes int64
	// MinTime/MaxTime bound the snapshot's timestamps (valid when Count>0).
	MinTime, MaxTime model.Timestamp
	// Keys is the key interval the tree was responsible for.
	Keys model.KeyRange
}

// LeafKeyRange returns the exact key bounds of leaf i (ok=false when the
// leaf is empty) — the per-leaf bounds the chunk header records.
func (s *FlushSnapshot) LeafKeyRange(i int) (model.KeyRange, bool) {
	keys := s.Leaves[i].Keys
	if len(keys) == 0 {
		return model.KeyRange{}, false
	}
	return model.KeyRange{Lo: keys[0], Hi: keys[len(keys)-1]}, true
}

// RangeCols visits the snapshot's matching tuples in key order as raw
// (key, time, payload) columns, mirroring TemplateTree.RangeCols.
// Snapshots are immutable once FlushReset returns, so RangeCols takes no
// locks and is safe for any number of concurrent readers — this is what
// keeps tuples queryable while their chunk is still being built and
// written by a background flusher.
func (s *FlushSnapshot) RangeCols(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn ColsVisitor) {
	if s == nil || s.Count == 0 || !kr.IsValid() || !tr.IsValid() {
		return
	}
	if s.MaxTime < tr.Lo || s.MinTime > tr.Hi {
		return
	}
	lo := sort.Search(len(s.Bounds), func(i int) bool { return kr.Lo < s.Bounds[i] })
	for i := lo; i < len(s.Leaves); i++ {
		if i > 0 && s.Bounds[i-1] > kr.Hi {
			break
		}
		if !s.Leaves[i].RangeCols(kr, tr, filter, fn) {
			return
		}
	}
}

// FlushReset atomically extracts the tree contents and resets the leaves,
// retaining the separators for the next chunk (paper §III-B: "we only
// eliminate the leaf nodes of the tree"), whose skew checks start afresh at
// CheckEvery. Returns nil when empty. The
// snapshot takes ownership of each leaf's column buffers and arena
// wholesale — the live leaf restarts from nil buffers, so no later insert
// or template update can touch a snapshot's memory.
func (t *TemplateTree) FlushReset() *FlushSnapshot {
	t.gate.Lock()
	defer t.gate.Unlock()
	if t.count.Load() == 0 {
		return nil
	}
	snap := &FlushSnapshot{
		Bounds: append([]model.Key(nil), t.bounds...),
		Leaves: make([]LeafCols, len(t.leaves)),
		Count:  int(t.count.Load()),
		Bytes:  t.bytes.Load(),
		Keys:   t.cfg.Keys,
	}
	first := true
	for i, lf := range t.leaves {
		// The capped window cannot see the buffer slack, and the leaf
		// abandons its buffers wholesale below.
		snap.Leaves[i] = lf.cols()
		if lf.cnt > 0 {
			if first {
				snap.MinTime, snap.MaxTime, first = lf.minT, lf.maxT, false
			} else {
				if lf.minT < snap.MinTime {
					snap.MinTime = lf.minT
				}
				if lf.maxT > snap.MaxTime {
					snap.MaxTime = lf.maxT
				}
			}
		}
		lf.kbuf, lf.tbuf, lf.rbuf, lf.arena = nil, nil, nil, nil
		lf.head, lf.cnt = 0, 0
		lf.n.Store(0)
	}
	t.count.Store(0)
	t.bytes.Store(0)
	t.nextCheck.Store(int64(t.cfg.CheckEvery))
	return snap
}

// SetKeys changes the tree's nominal key interval (after an adaptive key
// repartition, §III-D). Existing tuples are unaffected; the next template
// update and flush use the new interval.
func (t *TemplateTree) SetKeys(kr model.KeyRange) {
	t.gate.Lock()
	t.cfg.Keys = kr
	t.gate.Unlock()
}
