// Package waterwheel is a Go implementation of Waterwheel (ICDE 2018):
// a distributed stream store that sustains very high tuple-insertion
// throughput while answering ad-hoc queries constrained on both the key
// and the time domain within milliseconds.
//
// The system partitions the key×time space into data regions owned by
// indexing servers. Each server buffers its region in an in-memory
// template B+ tree — whose inner structure is reused across flushes,
// eliminating node splits — and flushes immutable chunks to a distributed
// file system. A coordinator decomposes queries via an R-tree over region
// metadata and fans subqueries out across indexing servers (fresh data)
// and query servers (chunks) with the locality-aware LADA dispatcher.
//
// Quick start:
//
//	db, _ := waterwheel.Open(waterwheel.Options{})
//	defer db.Close()
//	db.Insert(waterwheel.Tuple{Key: 42, Time: now, Payload: []byte("...")})
//	res, _ := db.QueryRange(waterwheel.KeyRange{Lo: 0, Hi: 100},
//		waterwheel.TimeRange{Lo: now - 5000, Hi: now})
package waterwheel

import (
	"fmt"
	"sync/atomic"

	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/telemetry"
)

// Core data-model types, aliased from the internal model package so user
// code and internal code share identities.
type (
	// Key is a tuple's index key (the full uint64 domain).
	Key = model.Key
	// Timestamp is a point in the time domain, in milliseconds.
	Timestamp = model.Timestamp
	// Tuple is the unit of ingestion: key, timestamp, opaque payload.
	Tuple = model.Tuple
	// KeyRange is a closed interval on the key domain.
	KeyRange = model.KeyRange
	// TimeRange is a closed interval on the time domain.
	TimeRange = model.TimeRange
	// Region is a rectangle in key×time space.
	Region = model.Region
	// Query selects tuples by key range, time range and optional filter.
	Query = model.Query
	// Result carries the qualifying tuples plus execution metadata.
	Result = model.Result
	// Filter is a serializable predicate over tuples (the paper's fq).
	Filter = model.Filter
	// AggregateQuery computes COUNT/MIN/MAX/SUM over a key range × time
	// range instead of returning tuples.
	AggregateQuery = model.AggregateQuery
	// AggResult carries an aggregate query's folded partial plus pushdown
	// execution metadata.
	AggResult = model.AggResult
	// AggKind selects the aggregate function.
	AggKind = model.AggKind
)

// Aggregate kinds.
const (
	AggCount = model.AggCount
	AggMin   = model.AggMin
	AggMax   = model.AggMax
	AggSum   = model.AggSum
)

// ParseAggKind parses "count", "min", "max" or "sum".
func ParseAggKind(s string) (AggKind, error) { return model.ParseAggKind(s) }

// MaxKey is the largest key.
const MaxKey = model.MaxKey

// FullKeyRange covers the whole key domain.
func FullKeyRange() KeyRange { return model.FullKeyRange() }

// FullTimeRange covers the whole time domain.
func FullTimeRange() TimeRange { return model.FullTimeRange() }

// Options configures an embedded Waterwheel deployment. The zero value is
// a sensible single-node development setup.
type Options struct {
	// Nodes is the simulated cluster size (default 1). Each node runs
	// IndexServersPerNode indexing servers, QueryServersPerNode query
	// servers, two dispatchers and one DFS datanode.
	Nodes               int
	IndexServersPerNode int
	QueryServersPerNode int
	// ChunkBytes is the flush threshold (default 16 MB).
	ChunkBytes int64
	// CacheBytes is each query server's cache budget (default 1 GB).
	CacheBytes int64
	// BalanceIntervalMillis runs the balancer on a cadence (0 = manual).
	BalanceIntervalMillis int64
	// DataDir makes the store durable: chunks, WAL and metadata persist
	// under this directory, and Open over an existing directory restores
	// the previous state (indexing servers replay their WAL tails).
	DataDir string
	// Durability selects when Insert acknowledges a tuple relative to WAL
	// fsync (DataDir mode): "" or "ack-on-write" acks once the record is
	// written to the OS page cache (fastest; a host crash can drop acked
	// tuples appended since the last flush commit), "ack-on-fsync" group-
	// commits — Insert returns only after a batched fsync covers the
	// record, so an acked tuple survives a host crash — and "interval"
	// fsyncs in the background every FsyncIntervalMillis, bounding the
	// loss window without per-insert latency. Requires DataDir for any
	// policy other than ack-on-write.
	Durability string
	// FsyncIntervalMillis is the background fsync cadence for the
	// "interval" durability policy (default 50).
	FsyncIntervalMillis int64
	// Seed makes placement and sampling deterministic.
	Seed int64
}

// DB is an embedded Waterwheel instance.
type DB struct {
	c *cluster.Cluster
	// closed is atomic: a NetServer's handlers read it while Close runs.
	closed atomic.Bool
}

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = cluster.ErrClosed

// ErrBusy is returned by a query (and by Flush) that waits on an indexing
// server whose consumer is held by flush backpressure behind a chunk write
// that keeps failing: the acked tuples are in the log, and become visible
// once a write succeeds. Flush also answers it when a chunk write failed and
// its flush waits for a retry, and Close when either held it up. Retry once
// the storage fault is resolved.
var ErrBusy = cluster.ErrBusy

// ErrRetired is returned when a query needed a chunk whose file retention
// deleted while the query was in flight, and could not be replanned around
// it.
var ErrRetired = queryexec.ErrRetired

// config maps the options onto the cluster configuration, field by field.
func (o Options) config() cluster.Config {
	return cluster.Config{
		Nodes:                 o.Nodes,
		IndexServersPerNode:   o.IndexServersPerNode,
		QueryServersPerNode:   o.QueryServersPerNode,
		ChunkBytes:            o.ChunkBytes,
		CacheBytes:            o.CacheBytes,
		BalanceIntervalMillis: o.BalanceIntervalMillis,
		DataDir:               o.DataDir,
		Durability:            o.Durability,
		FsyncIntervalMillis:   o.FsyncIntervalMillis,
		Seed:                  o.Seed,
	}
}

// Open starts an embedded Waterwheel deployment.
func Open(opts Options) (*DB, error) {
	c, err := cluster.Open(opts.config())
	if err != nil {
		return nil, err
	}
	c.Start()
	return &DB{c: c}, nil
}

// Checkpoint puts the WAL on stable storage, compacts the metadata journal
// and unlinks the WAL segments the flushed chunks replace, when the store
// was opened with a DataDir; otherwise it is a no-op. Nothing needs it to
// survive a crash: every flush commit is durable when it lands and unlinks
// the log behind it, and the journal compacts by itself. After Close the
// error is ErrClosed and nothing is written: the data directory may be
// another process's by then.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.c.Checkpoint()
}

// Insert ingests one tuple — InsertBatch of one. Safe for concurrent use.
// The ack follows the log, and every query issued after it returns the
// tuple: a query first waits until what was acked before it is applied.
// A nil return is the ack — under Durability "ack-on-fsync" it means the tuple is on
// stable storage; an error means the tuple was NOT accepted (e.g. the WAL
// segment hit a disk error) and should be resubmitted after the fault is
// resolved. After Close the error is ErrClosed.
func (db *DB) Insert(t Tuple) error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.c.Insert(t)
}

// BatchError reports a batch that was not acked in full. A batch is acked
// per indexing server: the tuples routed to one server are accepted or
// rejected together, independently of the other servers' shares, so the
// rejected tuples need not be a suffix of the batch. ts[i] was acked iff i
// is not in Rejected; resubmitting exactly the Rejected positions stores
// every tuple of the batch exactly once.
type BatchError struct {
	// Index is the position of the first unacked tuple (Rejected[0]):
	// ts[:Index] were all acked.
	Index int
	// Len is the size of the submitted batch.
	Len int
	// Rejected holds the position of every unacked tuple, ascending.
	Rejected []int
	// Err joins the failures of the servers that rejected their share;
	// errors.Is finds each of them.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("waterwheel: insert rejected %d of %d tuples, first at %d: %v", len(e.Rejected), e.Len, e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// InsertBatch ingests a batch of tuples as one unit through the whole
// pipeline: one routing pass in the dispatcher, one WAL append per
// indexing server the batch routes to — all of them issued before any
// durability wait, so under Durability "ack-on-fsync" the batch waits out
// one fsync cohort per server side by side — and batched memtable merges on
// the indexing servers. A nil return acks every tuple. On failure it returns
// a *BatchError naming exactly the unacked positions: each server's share
// is all-or-nothing, a failed server rejects only the tuples routed to it.
// Tuples of one key keep their arrival order; across servers a batch has no
// order. A batch of one behaves identically to Insert. After Close nothing is
// accepted and the error is ErrClosed.
//
// The batch is encoded once, into the records the WAL stores, and nothing
// of ts is kept past the call.
func (db *DB) InsertBatch(ts []Tuple) error {
	if db.closed.Load() {
		return ErrClosed
	}
	rejected, err := db.c.InsertBatch(ts)
	return batchError(rejected, len(ts), err)
}

// insertEncoded is InsertBatch for the n tuples encoded in buf (the
// network insert's frame, checked by model.CountTuples), which go to the
// WAL as they are.
func (db *DB) insertEncoded(buf []byte, n int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	rejected, err := db.c.InsertEncoded(buf, n)
	return batchError(rejected, n, err)
}

// batchError is the *BatchError of a batch of n tuples that the cluster
// answered with rejected and err, nil when it took them all.
func batchError(rejected []int, n int, err error) error {
	if err != nil {
		return &BatchError{Index: rejected[0], Len: n, Rejected: rejected, Err: err}
	}
	return nil
}

// Query runs a temporal range query and returns the merged, sorted result.
// It is the insert→query barrier: every tuple acked before the call is in
// the result if the query's region holds it. A barrier that cannot be met
// is the query's error: the error an indexing server's consumer died of
// (its tuples stay acked, and unapplied until the slot is taken over),
// ErrBusy, or ErrClosed.
func (db *DB) Query(q Query) (*Result, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.c.Query(q)
}

// QueryRange is shorthand for Query with no predicate.
func (db *DB) QueryRange(keys KeyRange, times TimeRange) (*Result, error) {
	return db.Query(Query{Keys: keys, Times: times})
}

// Aggregate runs an aggregate query (COUNT/MIN/MAX/SUM over a key range ×
// time range), answering as much as possible from chunk metadata and
// header pre-aggregates instead of reading leaf bodies. The result's
// counters report how much of the work pushdown saved. Like Query it covers
// every tuple acked before the call.
func (db *DB) Aggregate(q AggregateQuery) (*AggResult, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	return db.c.Aggregate(q)
}

// Flush forces every indexing server to flush its memtables to chunks: when
// it returns nil, everything inserted before the call is in chunks — with a
// DataDir, on stable storage, named by durable metadata — and a restart
// replays none of it. The error is ErrBusy while chunk writes fail (the
// tuples stay in memtables and in the log), a flush failure no retry can
// mend, or one of a query's: the wait for what was acked before the call.
func (db *DB) Flush() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.c.FlushAll()
}

// Rebalance runs one adaptive-key-partitioning round, returning whether
// the key partitioning changed.
func (db *DB) Rebalance() bool { return db.c.TickBalance() }

// Stats summarizes the deployment's activity. Every field is read from
// the components' atomic counters, so the snapshot is race-safe.
type Stats struct {
	// Ingested counts tuples accepted by the indexing servers.
	Ingested int64
	// Buffered counts tuples in memtables (not yet flushed).
	Buffered int
	// BufferedBytes is the memtable footprint (tree + side store).
	BufferedBytes int64
	// Chunks counts flushed, registered data chunks.
	Chunks int
	// Flushes counts memtable flushes; FlushBytes the chunk bytes written.
	Flushes    int64
	FlushBytes int64
	// SideRouted counts very-late tuples admitted to side stores.
	SideRouted int64
	// TemplateUpdates counts adaptive template rebuilds.
	TemplateUpdates int64
	// Dispatched counts tuples routed by dispatchers.
	Dispatched int64
	// SchemaVersion is the key-partitioning version (increases on
	// rebalance).
	SchemaVersion int64
	// DFSReads/DFSReadBytes/DFSWrites/DFSWriteBytes count chunk I/O.
	DFSReads      int64
	DFSReadBytes  int64
	DFSWrites     int64
	DFSWriteBytes int64
	// CacheHits/CacheMisses/CacheEvictions aggregate the query-server LRU
	// caches; CacheUsedBytes is their current footprint.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheUsedBytes int64
}

// Stats returns a snapshot of deployment counters.
func (db *DB) Stats() Stats {
	// The ingest counters are the cluster's totals: cumulative over every
	// server incarnation, so a crash or a decommission never lowers them.
	tot := db.c.Totals()
	st := Stats{
		Ingested:        tot.Ingested,
		Buffered:        db.c.MemLen(),
		BufferedBytes:   db.c.MemBytes(),
		Chunks:          db.c.Metadata().ChunkCount(),
		Flushes:         tot.Flushes,
		FlushBytes:      tot.FlushBytes,
		SideRouted:      tot.SideRouted,
		TemplateUpdates: tot.TemplateUpdates,
		SchemaVersion:   db.c.Metadata().Schema().Version,
	}
	for _, d := range db.c.Dispatchers() {
		st.Dispatched += int64(d.Dispatched())
	}
	fm := db.c.FS().Metrics()
	st.DFSReads = fm.Reads.Load()
	st.DFSReadBytes = fm.BytesRead.Load()
	st.DFSWrites = fm.Writes.Load()
	st.DFSWriteBytes = fm.BytesWrite.Load()
	for _, qs := range db.c.QueryServers() {
		cm := qs.CacheMetrics()
		st.CacheHits += cm.Hits
		st.CacheMisses += cm.Misses
		st.CacheEvictions += cm.Evictions
		st.CacheUsedBytes += cm.Used
	}
	return st
}

// QueryTrace is a query's span tree — decomposition, dispatch, per-chunk
// reads with cache/bloom detail, and merge — Waterwheel's EXPLAIN ANALYZE.
type QueryTrace = telemetry.QueryTrace

// QueryTraced runs a query and returns its execution trace alongside the
// result; Traces keeps it too. Query builds no trace.
func (db *DB) QueryTraced(q Query) (*Result, *QueryTrace, error) {
	if db.closed.Load() {
		return nil, nil, ErrClosed
	}
	return db.c.Coordinator().ExecuteTraced(q)
}

// queryEncoded is Query — QueryTraced when traced is set — for the network
// front end: the result comes back in its wire form
// (model.AppendMergedResult), merged straight into it.
func (db *DB) queryEncoded(q Query, traced bool) ([]byte, *QueryTrace, error) {
	if db.closed.Load() {
		return nil, nil, ErrClosed
	}
	return db.c.Coordinator().ExecuteEncoded(q, traced)
}

// Telemetry returns the deployment's metric registry.
func (db *DB) Telemetry() *telemetry.Registry { return db.c.Telemetry() }

// Traces returns the traces of the last 16 traced queries — QueryTraced,
// or a client's Trace — oldest first.
func (db *DB) Traces() []*QueryTrace { return db.c.TraceRing().Recent() }

// DropBefore removes all chunks that end before the horizon (retention),
// returning how many were dropped. Chunk files are deleted only after
// queries planned before the drop have drained. The log needs no call:
// every flush commit lets go of its memory and its disk.
func (db *DB) DropBefore(horizon Timestamp) int {
	return db.c.DropChunksBefore(horizon)
}

// ExplainInfo describes how a query would decompose, for tooling.
type ExplainInfo = queryexec.ExplainInfo

// Explain decomposes a query without executing it: which indexing-server
// memtables and which chunks it would touch, with the clipped regions.
func (db *DB) Explain(q Query) ExplainInfo {
	return db.c.Coordinator().Explain(q)
}

// --- Elastic scale-out (live region migration) ---

// AddIndexServer grows the cluster by one indexing server: the widest
// active key interval is split, a new WAL partition is allocated, and the
// dispatchers start routing the upper half to the new slot — without
// pausing ingest. Returns the new slot id.
func (db *DB) AddIndexServer() (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	return db.c.AddIndexServer()
}

// DecommissionIndexServer retires slot i: its WAL partition is sealed,
// buffered tuples are flushed out, its key interval merges into a
// neighbor, and the slot is fenced so a straggling flush from the retired
// server can never resurface.
func (db *DB) DecommissionIndexServer(i int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.c.DecommissionIndexServer(i)
}

// KillIndexServer hard-fails slot i's owner (crash simulation / fault
// drill): the owner detaches mid-whatever and a fresh server takes over
// under a bumped fencing epoch, replaying the slot's WAL partition from the
// committed offset.
func (db *DB) KillIndexServer(i int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.c.KillIndexServer(i)
}

// ActiveSlots returns the ids of the currently active indexing slots.
func (db *DB) ActiveSlots() []int { return db.c.ActiveSlots() }

// Cluster exposes the underlying cluster for advanced integrations and
// the benchmark harness.
func (db *DB) Cluster() *cluster.Cluster { return db.c }

// Close stops the deployment: a Flush, then the shutdown, which the Flush's
// error does not hold up. The error is the Flush's. During a storage outage
// it is ErrBusy, and Close returns without waiting for the storage: what no
// chunk holds is still in the log, and with a DataDir the next Open replays
// it. Every later call — inserts as well as queries and Flush — answers
// ErrClosed (errors.Is), over the wire too; a second Close is a no-op.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	err := db.c.FlushAll()
	db.c.Stop()
	return err
}
