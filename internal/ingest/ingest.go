// Package ingest implements Waterwheel's indexing servers (paper §III).
// An indexing server owns one key interval of the global partitioning. It
// accumulates incoming tuples in an in-memory template B+ tree, keeps them
// immediately visible to memtable subqueries, and flushes the tree as an
// immutable data chunk to the distributed file system once it reaches the
// chunk-size threshold (default 16 MB). The inner template survives the
// flush (§III-B).
//
// Out-of-order arrivals (§IV-D): a watermark tracks the largest timestamp
// seen; tuples arriving more than SideThreshold behind it go to a separate
// side-store tree so the ordinary chunks keep tight temporal boundaries,
// while mildly-late tuples simply widen the memtable's left bound, which the
// coordinator further pads by the late-visibility parameter Δt.
//
// The live region (§III-D) has one record: MemBounds, measured under the
// same lock as the inserts it covers. The coordinator reads it from the
// serving server at plan time; nothing publishes a copy.
//
// Fault tolerance (§V): the server consumes a WAL partition; at every
// flush it records its read offset in the metadata server, so a restarted
// server replays the tail of the partition to rebuild its memtable.
package ingest

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// Config configures an indexing server.
type Config struct {
	// ID is the indexing-server index in the partition schema.
	ID int
	// Keys is the nominal key interval (from the schema).
	Keys model.KeyRange
	// ChunkBytes is the flush threshold (default 16 MB).
	ChunkBytes int64
	// Leaves is the template leaf count (default from tree config).
	Leaves int
	// SideThresholdMillis routes tuples arriving more than this behind the
	// watermark into the side store (default 60 000 ms). Zero keeps the
	// default; negative disables the side store.
	SideThresholdMillis int64
	// Build tunes chunk construction.
	Build chunk.BuildOptions
	// TemplateReuse keeps the inner template across flushes (the paper's
	// design). Setting false rebuilds the tree each flush — the system-level
	// ablation switch.
	NoTemplateReuse bool
	// FlushQueueDepth bounds the async flush pipeline: at most this many
	// flush units wait behind the one in flight (PendingFlushes), and the
	// swap of one more blocks its inserter (default 2).
	FlushQueueDepth int
	// SyncWAL, when set, is called with a flush unit's WAL offset before
	// the unit registers its chunks and commits that offset — the cluster
	// wires it to the partition's fsync barrier (wal.Partition.SyncTo). A
	// committed offset must never exceed the durable length of the log:
	// after a host crash the replayable log would be shorter than the
	// committed offset, fresh appends would reuse committed offsets and
	// the registered chunks would alias replayed tuples as duplicates. A
	// SyncWAL error fails the flush attempt exactly as a DFS write failure
	// would (stop the line, retry later).
	SyncWAL func(upTo int64) error
	// TruncateWAL, when set, is called with the slot's committed WAL offset
	// once a flush unit's commit of it is durable in the metadata journal:
	// no recovery of this slot will replay below it again, so the cluster
	// wires it to the partition's horizon (wal.Partition.Truncate). Called
	// from the flusher with no server lock held; the unit counts as done once
	// it returns.
	TruncateWAL func(committed int64)
	// Metrics holds optional telemetry handles; the zero value (nil
	// handles) disables instrumentation at no cost.
	Metrics Metrics
	// Epoch is the ownership epoch this incarnation holds its slot under
	// (zero: the slot's current one, read from the metadata server). Chunk
	// registrations and offset commits go through the epoch-guarded
	// metadata API and are rejected once ownership moves
	// (meta.TransferOwnership bumps the slot's epoch): a deposed owner can
	// linger, but it cannot write metadata.
	Epoch int64
}

// ChunkWriter is the slice of the DFS the ingest path needs: durable,
// named, immutable chunk writes. *dfs.FS implements it; tests substitute
// gated or failing writers to exercise the pipeline.
type ChunkWriter interface {
	Write(name string, data []byte) error
}

// Metrics are the telemetry handles an indexing server feeds. All handles
// are nil-safe; the zero value is a no-op.
type Metrics struct {
	// InsertNanos samples end-to-end Insert latency (1 in every
	// insertSampleEvery inserts), capturing the flush-dominated tail the
	// paper's Fig. 7b insert-time breakdown measures.
	InsertNanos *telemetry.Histogram
	// FlushNanos observes each chunk build + DFS write.
	FlushNanos *telemetry.Histogram
	// BackpressureNanos observes how long a threshold-crossing insert
	// blocked because the flush queue was full.
	BackpressureNanos *telemetry.Histogram
}

// insertSampleEvery is the Insert-latency sampling interval (a power of
// two so the check is a mask). Sampling keeps the two time.Now calls off
// the common insert path while the histogram still sees thousands of
// samples per second at paper ingestion rates.
const insertSampleEvery = 64

func (c *Config) fill() {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 16 << 20
	}
	if c.SideThresholdMillis == 0 {
		c.SideThresholdMillis = 60_000
	}
	if !c.Keys.IsValid() {
		c.Keys = model.FullKeyRange()
	}
	if c.FlushQueueDepth <= 0 {
		c.FlushQueueDepth = 2
	}
}

// Stats counts indexing-server activity.
type Stats struct {
	Ingested      atomic.Int64
	Flushes       atomic.Int64
	FlushBytes    atomic.Int64
	FlushFailures atomic.Int64
	SideRouted    atomic.Int64
	Recovered     atomic.Int64
	// Backpressure counts inserts that blocked on a full flush queue.
	Backpressure atomic.Int64
	// ReplayGaps counts consumers that refused to start because the log no
	// longer held their replay offset (see Consume).
	ReplayGaps atomic.Int64
}

// Server is one indexing server.
type Server struct {
	cfg Config

	tree *core.TemplateTree
	side *core.TemplateTree

	fs ChunkWriter
	ms *meta.Server
	// node is the cluster node hosting this server (locality for flushes).
	node int

	// watermark is the largest event timestamp observed.
	watermark atomic.Int64
	// minTime is the smallest timestamp in the current memtable; reset on
	// flush. Guarded by minMu. keyLo/keyHi bound the keys in both live
	// trees (main and side, which always swap out together), valid while
	// keysSet; the box only grows between swaps, so it covers the trees'
	// contents even when routing placed old-interval keys here after a
	// repartition — that box is what the coordinator plans the slot's
	// mem-subqueries on (MemBounds).
	minMu    sync.Mutex
	minTime  model.Timestamp
	hasData  bool
	sideMin  model.Timestamp
	sideData bool
	keyLo    model.Key
	keyHi    model.Key
	keysSet  bool

	// swapMu serializes threshold checks, FlushReset swaps and backpressure,
	// so units enter the pending list in seq order and backpressure blocks
	// the swapping goroutine, not the flusher. closed is set under it, so no
	// swap follows Close; the flusher reads it without.
	swapMu   sync.Mutex
	flushSeq int
	closed   atomic.Bool

	// pendMu guards the pending snapshot list. Queries hold the read lock
	// across their whole scan; the swap and the chunk registration take the
	// write lock, which is what makes "every tuple in exactly one visible
	// place" atomic from a reader's point of view.
	pendMu  sync.RWMutex
	pending []*pendingFlush
	// committedOff is the last WAL offset committed to the metadata server.
	committedOff int64

	// parked is set while the flusher waits out a DFS outage.
	parked atomic.Bool
	// aborted marks a simulated crash (Abort): no snapshot may register its
	// chunk or commit a WAL offset any more.
	aborted atomic.Bool
	// epoch is the ownership epoch metadata writes are guarded by (>0).
	epoch atomic.Int64
	// fenced latches the first ErrFenced from the metadata server: the
	// incarnation has been deposed and its flusher must stop retrying.
	fenced atomic.Bool

	// consumed is the WAL offset of the next record to consume; every record
	// below it has been applied to the trees (see insertBatchAt). Consume,
	// Close and Abort fail it: this incarnation applies nothing more.
	consumed wal.Watermark
	// flushEvents counts flush-pipeline steps (an enqueue, an attempt
	// finished, the flusher parked, a stall's end, Close and Abort). The
	// flusher parks on it, and so do awaitFlush and the shutdown; the
	// flusher's exit fails it.
	flushEvents wal.Watermark
	// stall is closed while an inserter — the consumer — is held by flush
	// backpressure behind a flusher parked on a failed write, and replaced by
	// an open channel when it is let go. WaitApplied parks on it beside the
	// applied offset. stallMu guards it.
	stallMu sync.Mutex
	stall   chan struct{}

	stats Stats
}

// NewServer creates an indexing server writing chunks to fs and metadata
// to ms. node is the cluster node it runs on.
func NewServer(cfg Config, fs ChunkWriter, ms *meta.Server, node int) *Server {
	cfg.fill()
	tc := core.TemplateConfig{Keys: cfg.Keys, Leaves: cfg.Leaves}
	s := &Server{
		cfg:          cfg,
		tree:         core.NewTemplateTree(tc),
		fs:           fs,
		ms:           ms,
		node:         node,
		committedOff: -1,
		stall:        make(chan struct{}),
	}
	if cfg.SideThresholdMillis > 0 {
		sideCfg := tc
		sideCfg.Leaves = 64
		s.side = core.NewTemplateTree(sideCfg)
	}
	s.watermark.Store(int64(model.MinTimestamp))
	if cfg.Epoch == 0 {
		cfg.Epoch = ms.Epoch(cfg.ID)
	}
	s.epoch.Store(cfg.Epoch)
	go s.flusher()
	return s
}

// Stats returns the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// TreeStats exposes the memtable tree's instrumentation.
func (s *Server) TreeStats() *core.Stats { return s.tree.Stats() }

// Insert ingests one tuple: InsertBatch of one.
func (s *Server) Insert(t model.Tuple) {
	s.insertBatchAt([]model.Tuple{t}, -1, nil)
}

// InsertBatch ingests a batch of tuples with the per-tuple bookkeeping
// amortized across the batch: one watermark advance (to the batch max),
// one side-store split against the settled watermark, one minMu critical
// section and one InsertBatch per target tree, flushing when a tree reaches
// its threshold. Safe for concurrent use.
func (s *Server) InsertBatch(ts []model.Tuple) {
	if len(ts) == 0 {
		return
	}
	s.insertBatchAt(ts, -1, nil)
}

// insertBatchAt is the ingest core, with an optional consumed-offset
// advance (nextOff >= 0, WAL consumption path). The live-bounds update,
// the tree inserts and the offset store share one pendMu read section,
// while a flush swap resets the bounds and captures its offset under
// pendMu write. Two invariants follow. The offset a snapshot commits never
// covers a consumed tuple that is not yet in a tree, and — because the
// store comes last — Consumed() >= n means every record below n is applied
// and queryable: the property Drain and the handoff catch-up waits wait
// for. And a swap can never land between a tuple's bounds update and its
// tree insert: it would reset hasData while the tuple goes into the fresh
// tree, and once the swapped snapshot registered MemBounds would read an
// empty memtable over a non-empty one, hiding acked tuples from every query
// until the next insert moved the bounds. Threshold flush enqueues re-take
// pendMu and so are deferred past the read section, since pendMu is not
// reentrant.
//
// A batch that mixes very late tuples with the rest is split into split's
// buffer, main tuples before side ones, each in arrival order; a nil split
// allocates one. The buffer is cleared before the call returns, so a
// consumer that keeps it between blocks pins no payload.
func (s *Server) insertBatchAt(ts []model.Tuple, nextOff int64, split *[]model.Tuple) {
	n := s.stats.Ingested.Add(int64(len(ts)))
	var start time.Time
	sampled := s.cfg.Metrics.InsertNanos != nil && n%insertSampleEvery < int64(len(ts))
	if sampled {
		start = time.Now()
	}
	maxT := ts[0].Time
	kLo, kHi := ts[0].Key, ts[0].Key
	for i := 1; i < len(ts); i++ {
		if ts[i].Time > maxT {
			maxT = ts[i].Time
		}
		if ts[i].Key < kLo {
			kLo = ts[i].Key
		}
		if ts[i].Key > kHi {
			kHi = ts[i].Key
		}
	}
	wm := s.watermark.Load()
	for int64(maxT) > wm && !s.watermark.CompareAndSwap(wm, int64(maxT)) {
		wm = s.watermark.Load()
	}
	// Split against the watermark the whole batch settled on. (Serially, a
	// tuple's side decision sees only the watermark of its prefix — but
	// side-vs-main placement is a storage-layout choice, not a semantic
	// one: queries scan both, so results are identical either way.)
	main := ts
	var side []model.Tuple
	if s.side != nil {
		cut := s.watermark.Load() - s.cfg.SideThresholdMillis
		nSide := 0
		for i := range ts {
			if int64(ts[i].Time) < cut {
				nSide++
			}
		}
		switch {
		case nSide == len(ts):
			main, side = nil, ts
		case nSide > 0:
			if split == nil {
				split = new([]model.Tuple)
			}
			buf := slices.Grow((*split)[:0], len(ts))[:len(ts)]
			*split = buf
			defer clear(buf)
			m, sd := 0, len(ts)-nSide
			for i := range ts {
				if int64(ts[i].Time) < cut {
					buf[sd] = ts[i]
					sd++
				} else {
					buf[m] = ts[i]
					m++
				}
			}
			main, side = buf[:m], buf[m:]
		}
		if nSide > 0 {
			s.stats.SideRouted.Add(int64(nSide))
		}
	}
	var mainMin, sideMin model.Timestamp
	if len(main) > 0 {
		mainMin = minTime(main)
	}
	if len(side) > 0 {
		sideMin = minTime(side)
	}
	s.pendMu.RLock()
	s.minMu.Lock()
	if len(main) > 0 && (!s.hasData || mainMin < s.minTime) {
		s.minTime, s.hasData = mainMin, true
	}
	if len(side) > 0 && (!s.sideData || sideMin < s.sideMin) {
		s.sideMin, s.sideData = sideMin, true
	}
	s.growKeyBoxLocked(kLo, kHi)
	s.minMu.Unlock()
	if len(main) > 0 {
		s.tree.InsertBatch(main)
	}
	if len(side) > 0 {
		s.side.InsertBatch(side)
	}
	if nextOff >= 0 {
		s.consumed.Set(nextOff)
	}
	s.pendMu.RUnlock()
	if s.tree.Bytes() >= s.cfg.ChunkBytes {
		// Swap the full tree out and enqueue it for the background flusher;
		// the inserting goroutine pays a pointer exchange, not a chunk build
		// and DFS round-trip (unless the bounded queue is full).
		s.enqueueFlush(s.tree, false, true)
	}
	// The side store flushes at a fraction of the chunk size: very-late
	// tuples are rare and should not linger unbounded.
	if s.side != nil && s.side.Bytes() >= s.cfg.ChunkBytes/4 {
		s.enqueueFlush(s.side, true, true)
	}
	if sampled {
		s.cfg.Metrics.InsertNanos.Observe(time.Since(start))
	}
}

// minTime returns the smallest timestamp in a non-empty batch.
func minTime(ts []model.Tuple) model.Timestamp {
	min := ts[0].Time
	for i := 1; i < len(ts); i++ {
		if ts[i].Time < min {
			min = ts[i].Time
		}
	}
	return min
}

// growKeyBoxLocked widens the live trees' key bounding box to cover
// [lo, hi]. Requires minMu.
func (s *Server) growKeyBoxLocked(lo, hi model.Key) {
	if !s.keysSet {
		s.keyLo, s.keyHi, s.keysSet = lo, hi, true
		return
	}
	s.keyLo, s.keyHi = min(s.keyLo, lo), max(s.keyHi, hi)
}

// MemBounds returns the live (memtable) region's exact extent, the one
// record of it: the minimum timestamp and the key bounding box over both
// trees and every pending snapshot whose chunk is not yet registered (those
// tuples are still served from memory, so the live region must keep
// covering them), and whether any data is buffered. The coordinator plans
// the slot's mem-subqueries on it. The key box covers old-interval tuples a
// repartition or split stranded in this memtable, whatever the current
// nominal interval says. It is read under pendMu, so it moves with the
// inserts and the chunk registrations it reflects: once Consumed() >= n,
// every record below n is inside it.
func (s *Server) MemBounds() (model.Timestamp, model.KeyRange, bool) {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	s.minMu.Lock()
	min, ok := model.Timestamp(0), false
	var keys model.KeyRange
	if s.hasData {
		min, ok = s.minTime, true
	}
	if s.sideData && (!ok || s.sideMin < min) {
		min, ok = s.sideMin, true
	}
	hasKeys := s.keysSet
	if hasKeys {
		keys = model.KeyRange{Lo: s.keyLo, Hi: s.keyHi}
	}
	s.minMu.Unlock()
	for _, pf := range s.pending {
		if flushState(pf.state.Load()) == flushDone {
			continue // the registered chunks' regions cover these tuples
		}
		for i := range pf.parts {
			if t := pf.parts[i].snap.MinTime; !ok || t < min {
				min, ok = t, true
			}
			kr := boundingKeys(pf.parts[i].snap)
			if !hasKeys {
				keys, hasKeys = kr, true
			} else {
				if kr.Lo < keys.Lo {
					keys.Lo = kr.Lo
				}
				if kr.Hi > keys.Hi {
					keys.Hi = kr.Hi
				}
			}
		}
	}
	return min, keys, ok
}

// Flush forces the in-memory state out as chunks — the memtable and, when
// non-empty, the side store swap together as one flush unit — and waits for
// the unit to persist (no-op when both are empty). It returns the main
// chunk's registered info and whether a flush happened. When both trees are
// empty but an earlier unit is still unpersisted (e.g. its DFS write
// failed), Flush retries that unit instead, preserving the old contract
// that a failed flush can be re-driven by calling Flush again.
func (s *Server) Flush() (meta.ChunkInfo, bool) {
	// Capture the retry target and its attempt count before enqueueing:
	// the enqueue steps a parked flusher, and the race where the retry
	// completes before we look would otherwise lose the outcome.
	head := s.oldestUnpersisted()
	var since int32
	if head != nil {
		since = head.attempts.Load()
	}
	if pf := s.enqueueFlush(s.tree, false, false); pf != nil {
		return s.waitFlush(pf, 0)
	}
	if head == nil {
		return meta.ChunkInfo{}, false
	}
	return s.waitFlush(head, since)
}

// FlushAll flushes both the main memtable and the side store (a single
// Flush swaps both trees as one unit), then drains the pipeline so every
// snapshot is persisted (or awaiting retry after a DFS outage) when it
// returns; the error is DrainFlushes's.
func (s *Server) FlushAll() error {
	s.Flush()
	return s.DrainFlushes()
}

// boundingKeys computes the exact key bounding box of a snapshot from its
// key columns.
func boundingKeys(snap *core.FlushSnapshot) model.KeyRange {
	kr := snap.Keys
	for i := range snap.Leaves {
		if keys := snap.Leaves[i].Keys; len(keys) > 0 {
			kr.Lo = keys[0]
			break
		}
	}
	for i := len(snap.Leaves) - 1; i >= 0; i-- {
		if keys := snap.Leaves[i].Keys; len(keys) > 0 {
			kr.Hi = keys[len(keys)-1]
			break
		}
	}
	return kr
}

// ExecuteSubQuery answers a subquery against the in-memory state — the
// "fresh data" path of §IV: tuples are visible here the moment Insert
// returns. That now spans three sources: the live trees, the side store,
// and pending flush snapshots whose chunk the query's plan could not have
// included. The pending list is frozen against swaps and registrations for
// the duration of the scan (pendMu.RLock), so each tuple is seen in
// exactly one place regardless of concurrent flush progress. Every source
// answers in a run of its own, scanned with the whole Limit as its budget:
// one source may hold lower keys than where another's limit cut off, and
// the coordinator's merge makes the cut.
func (s *Server) ExecuteSubQuery(sq *model.SubQuery) *model.SubResult {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	res := &model.SubResult{QueryID: sq.QueryID}
	if sq.Agg != nil {
		// Aggregate subquery: fold matching columns instead of copying
		// tuples out. Limit does not apply to aggregates.
		agg := &model.AggPartial{}
		res.Agg = agg
		s.scanSources(sq, func(rangeFn treeRange) {
			rangeFn(sq.Region.Keys, sq.Region.Times, sq.Filter, func(_ model.Key, _ model.Timestamp, p []byte) bool {
				agg.Count++
				if !sq.Agg.CountOnly {
					if v, ok := model.PayloadU64Field(p, sq.Agg.Field); ok {
						agg.AddValue(v)
					}
				}
				return true
			})
		})
		return res
	}
	// Payloads alias leaf arenas during the scan (append-only, so the bytes
	// stay valid) and are encoded into pooled scratch, which each run is
	// copied out of.
	app := model.BorrowRunAppender()
	defer model.ReturnRunAppender(app)
	visit := func(k model.Key, ts model.Timestamp, p []byte) bool {
		return app.AppendLimited(sq.Limit, k, ts, p)
	}
	s.scanSources(sq, func(rangeFn treeRange) {
		rangeFn(sq.Region.Keys, sq.Region.Times, sq.Filter, visit)
		if app.Len() > 0 {
			res.Runs = append(res.Runs, app.Take())
		}
	})
	return res
}

// treeRange is the common columnar range-scan signature of the in-memory
// sources (TemplateTree.RangeCols / FlushSnapshot.RangeCols).
type treeRange = func(model.KeyRange, model.TimeRange, *model.Filter, core.ColsVisitor)

// scanSources invokes scan once per in-memory source a subquery must cover:
// the live tree, the side store, and each pending snapshot the query's plan
// could not have seen as a chunk (the AsOfChunk visibility rule). The
// caller must hold pendMu.RLock so the source set is frozen for the scan.
func (s *Server) scanSources(sq *model.SubQuery, scan func(treeRange)) {
	scan(s.tree.RangeCols)
	if s.side != nil {
		scan(s.side.RangeCols)
	}
	for _, pf := range s.pending {
		if flushState(pf.state.Load()) == flushDone {
			// Registered: the planner saw this chunk unless it registered at
			// or above the query's horizon, in which case the plan predates
			// it and the in-memory copy must still serve. AsOfChunk zero
			// (legacy callers, tests) means "memtable only — skip anything
			// already in a chunk".
			if sq.AsOfChunk == 0 || pf.chunk.Load() < sq.AsOfChunk {
				continue
			}
		}
		for i := range pf.parts {
			scan(pf.parts[i].snap.RangeCols)
		}
	}
}

// MemLen returns the number of in-memory tuples: both trees plus pending
// snapshots not yet registered as chunks.
func (s *Server) MemLen() int {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	n := s.tree.Len()
	if s.side != nil {
		n += s.side.Len()
	}
	for _, pf := range s.pending {
		if flushState(pf.state.Load()) != flushDone {
			for i := range pf.parts {
				n += pf.parts[i].snap.Count
			}
		}
	}
	return n
}

// MemBytes returns the in-memory payload bytes: both trees plus pending
// snapshots not yet registered as chunks.
func (s *Server) MemBytes() int64 {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	n := s.tree.Bytes()
	if s.side != nil {
		n += s.side.Bytes()
	}
	for _, pf := range s.pending {
		if flushState(pf.state.Load()) != flushDone {
			for i := range pf.parts {
				n += pf.parts[i].snap.Bytes
			}
		}
	}
	return n
}

// Watermark returns the largest event timestamp observed.
func (s *Server) Watermark() model.Timestamp {
	return model.Timestamp(s.watermark.Load())
}

// SkewnessFactor returns the memtable's current skewness S(P,D) — the
// residue the adaptive template update drives back toward zero (§III-C).
func (s *Server) SkewnessFactor() float64 { return s.tree.Skewness() }

// ID returns the server's indexing-server id.
func (s *Server) ID() int { return s.cfg.ID }

// SetKeys updates the nominal key interval after a repartition (§III-D).
func (s *Server) SetKeys(kr model.KeyRange) {
	s.tree.SetKeys(kr)
	if s.side != nil {
		s.side.SetKeys(kr)
	}
}

// --- WAL consumption and recovery (§V) ---

// ErrStopped fails the watermarks of a server stopped from outside —
// consumer detached, Close, Abort — not by an error of its own: whoever
// waits on the slot should look for its successor.
var ErrStopped = errors.New("ingest: server stopped")

// tailReadMax bounds the records of one log read.
const tailReadMax = 2048

// Consume runs the ingestion loop: it replays the partition from the
// offset stored in the metadata server (recovery), then keeps consuming
// until the partition closes or stop fires, parked on the partition head
// whenever it has caught up. Fresh tuples become queryable the moment
// Insert returns. However it ends, the applied watermark fails with it —
// the returned error when there is one, ErrStopped otherwise.
//
// The log's horizon never passes the committed offset (wal retention is
// gated on exactly that), so the replay offset is always still readable. If
// it is not, the records in between were acked and are in no chunk: Consume
// counts a replay gap and returns an error wrapping wal.ErrCompacted instead
// of skipping them.
func (s *Server) Consume(p *wal.Partition, stop <-chan struct{}) (err error) {
	defer func() { s.consumed.Fail(cmp.Or(err, ErrStopped)) }()
	start := s.ms.Offset(s.cfg.ID)
	if base := p.Base(); start < base {
		s.stats.ReplayGaps.Add(1)
		return fmt.Errorf("ingest: consume (server %d): replay offset %d: %w: log starts at %d", s.cfg.ID, start, wal.ErrCompacted, base)
	}
	s.consumed.Set(start)
	head := p.Next() // records before head are replayed backlog (recovery)
	sc := consumeScratch{recs: make([]wal.Record, tailReadMax)}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		recs, err := p.ReadBlocking(s.consumed.Load(), sc.recs, stop)
		if errors.Is(err, wal.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("ingest: consume: %w", err)
		}
		if len(recs) == 0 {
			continue // stop fired mid-wait
		}
		if err := s.applyBlock(recs, head, &sc); err != nil {
			return fmt.Errorf("ingest: consume: %w", err)
		}
	}
}

// consumeScratch is a consumer's working set, reused block after block: the
// records a read fills, the tuples they decode to, and the split of a block
// into main and side tuples (insertBatchAt).
type consumeScratch struct {
	recs  []wal.Record
	batch []model.Tuple
	split []model.Tuple
}

// applyBlock decodes one read's records into sc.batch and applies them,
// counting those below head as recovered. The decoded payloads alias the
// records' buffers (the WAL's resident window): the trees copy every
// payload into a leaf arena on insert, and the records and the tuples are
// cleared once the block is applied, so the scratch never pins a WAL
// buffer.
func (s *Server) applyBlock(recs []wal.Record, head int64, sc *consumeScratch) error {
	defer func() {
		clear(recs)
		clear(sc.batch)
		sc.batch = sc.batch[:0]
	}()
	for _, r := range recs {
		t, _, err := model.DecodeTuple(r.Data)
		if err != nil {
			return fmt.Errorf("bad record at offset %d: %w", r.Offset, err)
		}
		sc.batch = append(sc.batch, t)
	}
	// Offsets are consecutive: the records below head are a prefix.
	if n := min(head, recs[len(recs)-1].Offset+1) - recs[0].Offset; n > 0 {
		s.stats.Recovered.Add(n)
	}
	// The offset advances with the inserts inside one pendMu read section
	// (see insertBatchAt): a flush swap — whether triggered by this block's
	// threshold crossing afterwards or by a concurrent Flush — snapshots an
	// offset that covers exactly the tuples already in trees, so recovery
	// neither replays duplicates nor skips tuples.
	//
	// Sub-batch at chunk-budget boundaries so flush swaps land where the
	// per-tuple loop put them: each sub-batch fills the memtable to the
	// threshold at most once, keeping chunk sizes near ChunkBytes instead of
	// ballooning to the WAL read size.
	batch := sc.batch
	pos := 0
	for pos < len(batch) {
		budget := s.cfg.ChunkBytes - s.tree.Bytes()
		end := pos
		var sz int64
		for end < len(batch) && sz < budget {
			sz += int64(batch[end].Size())
			end++
		}
		if end == pos {
			end = pos + 1 // tree already at threshold; still make progress
		}
		s.insertBatchAt(batch[pos:end], recs[end-1].Offset+1, &sc.split)
		pos = end
	}
	return nil
}

// Consumed returns the WAL offset the server has applied up to: every
// record below it is in a tree (or already swapped out towards a chunk)
// and is scanned by ExecuteSubQuery. It is stored after the inserts, so it
// doubles as the next offset the consumer reads; there is no separate
// "read but not yet applied" position.
func (s *Server) Consumed() int64 { return s.consumed.Load() }

// ErrBusy answers a wait for a slot's applied offset while the slot's
// consumer is held by flush backpressure behind a flusher parked on a failed
// chunk write, and the retry the wait asked for failed too: nothing more is
// applied until a write succeeds.
var ErrBusy = errors.New("waterwheel: busy: a flush is stalled on a failed chunk write")

// WaitApplied blocks until Consumed() >= offset (nil); else the consumer's
// error if it died, ErrStopped if stopped or deposed, ErrBusy if the
// consumer is stalled behind a failed write: a stall sends the parked flusher
// straight back to its unit, and the wait goes on unless an attempt fails
// before the stall ends.
func (s *Server) WaitApplied(offset int64) error {
	for {
		err := s.consumed.Wait(offset, s.stallEdge())
		if !errors.Is(err, wal.ErrCanceled) {
			return err
		}
		if !s.retryStalled() {
			return ErrBusy
		}
	}
}

// stallEdge returns the channel that is closed while an inserter is stalled.
func (s *Server) stallEdge() <-chan struct{} {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	return s.stall
}

// stalled reports whether an inserter is stalled.
func (s *Server) stalled() bool {
	select {
	case <-s.stallEdge():
		return true
	default:
		return false
	}
}

// setStalled marks a stall's start or its end. The end is a flush-pipeline
// step, which retryStalled parks on.
func (s *Server) setStalled(on bool) {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	select {
	case <-s.stall:
		if !on {
			s.stall = make(chan struct{})
			s.flushEvents.Add(1)
		}
	default:
		if on {
			close(s.stall)
		}
	}
}

// retryStalled steps a parked flusher back to its failed unit and waits
// until the stall ends (true) or a flush attempt fails first (false).
func (s *Server) retryStalled() bool {
	fails := s.stats.FlushFailures.Load()
	s.flushEvents.Add(1)
	s.awaitFlush(nil, func() bool { return !s.stalled() || s.stats.FlushFailures.Load() > fails })
	return !s.stalled()
}
