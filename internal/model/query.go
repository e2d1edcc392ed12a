package model

import (
	"fmt"
	"sort"
)

// Query is a user query q = <Kq, Tq, fq>: selection criteria on the key and
// time domains plus an optional predicate (paper §II-A).
type Query struct {
	// ID identifies the query within the cluster; assigned by the
	// coordinator when zero.
	ID uint64
	// Keys is the selection interval on the key domain.
	Keys KeyRange
	// Times is the selection interval on the time domain.
	Times TimeRange
	// Filter is the user-defined predicate fq; nil accepts everything.
	Filter *Filter
	// Limit, when positive, caps the number of returned tuples: the
	// lowest-keyed Limit matches, in (key, time) order. Among tuples tying
	// at the cut-off key, which ones are returned is unspecified. Each
	// subquery also stops after Limit matches, bounding work.
	Limit int
	// Recur, when non-nil, restricts Times to a repeating window — "between
	// 09:00 and 17:00 daily". The coordinator plans the query's region as
	// usual, skips every chunk whose part of Times meets no window
	// (Recurrence.Overlaps), and keeps only the matches Contains accepts.
	Recur *Recurrence
}

// Recurrence is a repeating window: window k is [k·Period+Start,
// k·Period+Start+Length) for every integer k. All fields are milliseconds,
// epoch-aligned like the rest of the time domain. A daily 09:00–17:00
// window is {Period: 86_400_000, Start: 32_400_000, Length: 28_800_000}. A
// window may run past the end of its period — {Period: one day, Start:
// 22:00, Length: 4h} matches 22:00–02:00 — and a Length of at least Period
// matches every timestamp. A Period or Length of zero or less matches none.
type Recurrence struct {
	PeriodMillis int64
	StartMillis  int64
	LengthMillis int64
}

// phase returns how far ts lies past the start of the latest window
// starting at or before it, floorMod(ts−Start, Period), without
// overflowing for any ts or Start. Period must be positive.
func (rc *Recurrence) phase(ts Timestamp) int64 {
	p := rc.PeriodMillis
	d := floorMod(int64(ts), p) - floorMod(rc.StartMillis, p) // in (−p, p)
	if d < 0 {
		d += p
	}
	return d
}

// floorMod is a modulo p rounded toward negative infinity, in [0, p) for
// a positive p.
func floorMod(a, p int64) int64 {
	m := a % p
	if m < 0 {
		m += p
	}
	return m
}

// Contains reports whether ts falls inside a window of the recurrence.
func (rc *Recurrence) Contains(ts Timestamp) bool {
	if rc == nil || rc.PeriodMillis <= 0 || rc.LengthMillis <= 0 {
		return false
	}
	return rc.phase(ts) < rc.LengthMillis
}

// Overlaps reports whether some timestamp of tr falls inside a window of
// the recurrence — exactly whether Contains accepts any t in tr, in O(1)
// however many periods tr spans. An empty (inverted) tr overlaps nothing.
func (rc *Recurrence) Overlaps(tr TimeRange) bool {
	if rc == nil || rc.PeriodMillis <= 0 || rc.LengthMillis <= 0 || tr.Lo > tr.Hi {
		return false
	}
	off := rc.phase(tr.Lo)
	if off < rc.LengthMillis {
		return true
	}
	// tr.Lo lies in a gap; the next window starts Period−off later. The
	// difference is taken unsigned, so [MinInt64, MaxInt64] does not wrap.
	return uint64(tr.Hi)-uint64(tr.Lo) >= uint64(rc.PeriodMillis-off)
}

// FloorDiv is integer division rounding toward negative infinity: the
// bucket of a timestamp, negative ones included.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Region returns the query region <Kq, Tq>.
func (q *Query) Region() Region { return Region{Keys: q.Keys, Times: q.Times} }

// String implements fmt.Stringer.
func (q *Query) String() string {
	return fmt.Sprintf("query(%d, keys=%s, times=%s)", q.ID, q.Keys, q.Times)
}

// ChunkID identifies an immutable data chunk in the distributed file
// system. IDs are allocated by the metadata server and are never reused.
type ChunkID uint64

// MemChunk is the sentinel chunk ID meaning "the in-memory B+ tree of an
// indexing server" rather than a flushed chunk.
const MemChunk ChunkID = 0

// SubQuery is one unit of parallel query execution: the intersection of a
// user query with a single data-region candidate (paper §IV-A). A subquery
// targets either a flushed chunk (Chunk != MemChunk, executed on a query
// server) or the live memtable of an indexing server (Chunk == MemChunk).
type SubQuery struct {
	QueryID uint64
	// Seq numbers subqueries within a query, for result accounting.
	Seq int
	// Region is the intersection of the query region with the candidate
	// data region.
	Region Region
	Filter *Filter
	// Limit caps matches per subquery (0 = unlimited). Executors visit
	// tuples in key order, so each subquery's first Limit matches are its
	// lowest-keyed ones — a superset of what the merged query needs.
	Limit int
	// Chunk is the flushed chunk to read, or MemChunk for memtable reads.
	Chunk ChunkID
	// IndexServer is the indexing-server id owning the memtable when
	// Chunk == MemChunk.
	IndexServer int
	// AsOfChunk is the query's plan horizon for memtable subqueries: the
	// smallest chunk ID that registered after the query was planned. The
	// indexing server serves a flushed-but-pending snapshot from memory iff
	// its chunk ID is at or above this horizon (the plan cannot have
	// included it). Zero means "live memtable only" — pending snapshots
	// whose chunks are registered are skipped entirely.
	AsOfChunk uint64
	// ChunkPath, ChunkHeaderLen and ChunkIndexLen thread the planned
	// chunk's file metadata from the coordinator's decomposition (which
	// already holds the full ChunkInfo) to the executing query server, so
	// neither the dispatch loop nor the executor repeats the metadata
	// lookup. An empty ChunkPath means "unplanned" — executors fall back to
	// a metadata fetch, keeping hand-built subqueries (tests, tools)
	// working. A zero ChunkIndexLen makes the server read the whole header.
	ChunkPath      string
	ChunkHeaderLen int
	ChunkIndexLen  int
	// Agg, when non-nil, turns this into an aggregate subquery: the
	// executor folds matching tuples into Result.Agg instead of returning
	// them, using chunk pre-aggregates where leaves are fully covered.
	Agg *AggSpec
}

// String implements fmt.Stringer.
func (s *SubQuery) String() string {
	if s.Chunk == MemChunk {
		return fmt.Sprintf("subquery(q%d#%d mem@is%d %s)", s.QueryID, s.Seq, s.IndexServer, s.Region)
	}
	return fmt.Sprintf("subquery(q%d#%d chunk%d %s)", s.QueryID, s.Seq, s.Chunk, s.Region)
}

// Result is the answer to a query: the qualifying tuples plus execution
// metadata useful to callers and experiments.
type Result struct {
	QueryID uint64
	Tuples  []Tuple
	// SubQueries is the number of subqueries the query decomposed into.
	SubQueries int
	// LeavesRead counts B+ tree leaves inspected across all subqueries.
	LeavesRead int
	// LeavesSkipped counts leaves pruned by time-range bloom filters.
	LeavesSkipped int
	// BytesRead counts chunk bytes fetched from the file system.
	BytesRead int64
	// CacheHits counts subquery cache-unit hits on query servers.
	CacheHits int
	// Agg is the partial aggregate folded in from subquery answers that
	// carried one (MergeCounters); nil on the tuple-returning path.
	Agg *AggPartial
	// AggPushdown counts leaves answered from header pre-aggregates
	// without reading the leaf body.
	AggPushdown int
}

// SortTuples orders the result tuples by (key, time, payload) so results
// are deterministic regardless of subquery completion order.
func (r *Result) SortTuples() {
	sort.Slice(r.Tuples, func(i, j int) bool {
		return CompareTuples(&r.Tuples[i], &r.Tuples[j]) < 0
	})
}

// Merge folds the tuples and counters of o into r.
func (r *Result) Merge(o *Result) {
	r.Tuples = append(r.Tuples, o.Tuples...)
	r.MergeCounters(&SubResult{
		LeavesRead: o.LeavesRead, LeavesSkipped: o.LeavesSkipped, BytesRead: o.BytesRead,
		CacheHits: o.CacheHits, Agg: o.Agg, AggPushdown: o.AggPushdown,
	})
}

// SubResult is one subquery's answer, from a chunk on a query server or
// from an indexing server's memory: its matches as runs, or the partial
// aggregate of an aggregate subquery, plus the execution counters a query's
// Result sums.
type SubResult struct {
	QueryID uint64
	// Runs hold the matches, one run per source scanned (a chunk subquery
	// has one source; a memtable subquery one per tree and pending
	// snapshot), each in canonical order. Nil for an aggregate subquery.
	Runs []Run
	// LeavesRead, LeavesSkipped, BytesRead, CacheHits and AggPushdown are
	// the Result counters of the same names, for this subquery alone.
	LeavesRead    int
	LeavesSkipped int
	BytesRead     int64
	CacheHits     int
	AggPushdown   int
	// Agg is the partial aggregate of an aggregate subquery (SubQuery.Agg
	// set); nil on the tuple-returning path.
	Agg *AggPartial
}

// Len returns the number of matches across the runs.
func (r *SubResult) Len() int {
	n := 0
	for i := range r.Runs {
		n += r.Runs[i].N
	}
	return n
}

// MergeCounters folds the execution counters and the partial aggregate of
// a subquery's answer into r; its runs are the caller's to merge.
func (r *Result) MergeCounters(o *SubResult) {
	r.LeavesRead += o.LeavesRead
	r.LeavesSkipped += o.LeavesSkipped
	r.BytesRead += o.BytesRead
	r.CacheHits += o.CacheHits
	r.AggPushdown += o.AggPushdown
	if o.Agg != nil {
		if r.Agg == nil {
			r.Agg = &AggPartial{}
		}
		r.Agg.Merge(o.Agg)
	}
}
