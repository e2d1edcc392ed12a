package model

import (
	"fmt"
	"sort"
)

// Query is a user query q = <Kq, Tq, fq>: selection criteria on the key and
// time domains plus an optional predicate (paper §II-A).
type Query struct {
	// ID identifies the query within the cluster. The coordinator assigns
	// it when it registers the query, over any value the caller set.
	ID uint64
	// Keys is the selection interval on the key domain.
	Keys KeyRange
	// Times is the selection interval on the time domain.
	Times TimeRange
	// Filter is the user-defined predicate fq; nil accepts everything.
	Filter *Filter
	// Limit, when positive, caps the number of returned tuples: the first
	// Limit matches in canonical (key, time, payload) order. Each subquery
	// also stops after Limit matches once it has finished the key it cut
	// at, bounding work.
	Limit int
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
	// tuples in key order and finish the key they cut at
	// (RunAppender.AppendLimited), so each subquery ships its canonical
	// first Limit matches — a superset of what the merged query needs.
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
