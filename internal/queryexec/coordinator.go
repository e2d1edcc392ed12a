package queryexec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// MemExecutor answers subqueries against an indexing server's in-memory
// trees (the fresh-data path). Implemented by *ingest.Server.
type MemExecutor interface {
	// MemBounds is the live region's extent: the smallest buffered
	// timestamp, the key bounding box, and whether anything is buffered.
	MemBounds() (model.Timestamp, model.KeyRange, bool)
	ExecuteSubQuery(sq *model.SubQuery) *model.SubResult
}

// lateDelta is Δt, the late-visibility parameter (§IV-D), in milliseconds:
// the coordinator widens every live region's left temporal bound by Δt so
// tuples arriving up to Δt late are never missed.
const lateDelta = 10_000

// ErrNoQueryServers is returned when chunk subqueries exist but no query
// server is alive.
var ErrNoQueryServers = errors.New("queryexec: no live query servers")

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// Policy is the subquery dispatch policy (default LADA).
	Policy Policy
	// Metrics holds the coordinator telemetry handles. Nil disables
	// instrumentation.
	Metrics *CoordinatorMetrics
	// Traces, when non-nil, retains the QueryTrace of every traced query
	// (a bounded ring; see telemetry.NewTraceRing).
	Traces *telemetry.TraceRing
	// MemExecutors returns the fresh-data executors serving the
	// indexing-server slots, indexed by slot id, read once per plan; a slot
	// nobody serves is nil. Nil: there are none.
	MemExecutors func() []MemExecutor
}

// CoordinatorMetrics are the telemetry handles the query path feeds. All
// handles are nil-safe; the zero value is a no-op.
type CoordinatorMetrics struct {
	Queries         *telemetry.Counter
	QueryErrors     *telemetry.Counter
	MemSubQueries   *telemetry.Counter
	ChunkSubQueries *telemetry.Counter
	Redispatches    *telemetry.Counter
	QueryNanos      *telemetry.Histogram
	// WorkersBusy tracks dispatch-pool occupancy: how many chunk
	// subqueries are executing on query servers right now, across all
	// in-flight queries.
	WorkersBusy *telemetry.Gauge
	// AggQueries counts aggregate queries; AggMetaChunks counts chunks they
	// answered entirely from registered chunk summaries — no subquery, no
	// header read.
	AggQueries    *telemetry.Counter
	AggMetaChunks *telemetry.Counter
	// RecurrencePruned counts R-tree candidates a recurring-window query
	// skipped because no window meets the chunk's part of the query, before
	// any header was read.
	RecurrencePruned *telemetry.Counter
	// RetiredSubQueries counts chunk subqueries completed empty because
	// their chunk was retired (dropped by retention) mid-flight.
	RetiredSubQueries *telemetry.Counter

	// Per-policy dispatch latency histograms, registered lazily the first
	// time a policy dispatches.
	reg      *telemetry.Registry
	mu       sync.Mutex
	dispatch map[string]*telemetry.Histogram
}

// NewCoordinatorMetrics registers the query-path metric set on r (nil r
// gives all-nil, no-op handles).
func NewCoordinatorMetrics(r *telemetry.Registry) *CoordinatorMetrics {
	return &CoordinatorMetrics{
		Queries:           r.Counter("waterwheel_queries_total", "queries executed by the coordinator"),
		QueryErrors:       r.Counter("waterwheel_query_errors_total", "queries that returned an error"),
		MemSubQueries:     r.Counter("waterwheel_query_mem_subqueries_total", "fresh-data subqueries dispatched to indexing servers"),
		ChunkSubQueries:   r.Counter("waterwheel_query_chunk_subqueries_total", "chunk subqueries dispatched to query servers"),
		Redispatches:      r.Counter("waterwheel_query_redispatches_total", "chunk subqueries returned to the pending set after a query-server failure"),
		QueryNanos:        r.Histogram("waterwheel_query_seconds", "end-to-end query latency"),
		WorkersBusy:       r.Gauge("waterwheel_query_workers_busy", "chunk subqueries currently executing on query servers"),
		AggQueries:        r.Counter("waterwheel_agg_queries_total", "aggregate queries executed by the coordinator"),
		AggMetaChunks:     r.Counter("waterwheel_agg_meta_chunks_total", "chunks answered from metadata summaries during aggregate queries"),
		RecurrencePruned:  r.Counter("waterwheel_recurrence_pruned_chunks_total", "chunk candidates a recurring-window query skipped because no window meets them"),
		RetiredSubQueries: r.Counter("waterwheel_query_retired_subqueries_total", "chunk subqueries completed empty because their chunk retired mid-flight"),
		reg:               r,
	}
}

// dispatchHist returns the dispatch-latency histogram for a policy,
// registering it on first use. Nil-safe.
func (m *CoordinatorMetrics) dispatchHist(policy string) *telemetry.Histogram {
	if m == nil || m.reg == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.dispatch[policy]; ok {
		return h
	}
	h := m.reg.Histogram(fmt.Sprintf("waterwheel_query_dispatch_seconds{policy=%q}", policy),
		"subquery fan-out latency by dispatch policy")
	if m.dispatch == nil {
		m.dispatch = make(map[string]*telemetry.Histogram)
	}
	m.dispatch[policy] = h
	return h
}

// Coordinator decomposes user queries into subqueries, dispatches them
// across indexing servers (fresh data) and query servers (chunks), and
// merges the results (§IV-A).
type Coordinator struct {
	cfg CoordinatorConfig
	ms  *meta.Server
	fs  *dfs.FS
	// m mirrors cfg.Metrics, defaulted to a no-op set so the query path
	// never branches on nil.
	m *CoordinatorMetrics

	mu       sync.RWMutex
	qservers []*Server
}

// NewCoordinator creates a coordinator.
func NewCoordinator(cfg CoordinatorConfig, ms *meta.Server, fs *dfs.FS) *Coordinator {
	if cfg.Policy == nil {
		cfg.Policy = LADA{}
	}
	m := cfg.Metrics
	if m == nil {
		m = &CoordinatorMetrics{}
	}
	if cfg.MemExecutors == nil {
		cfg.MemExecutors = func() []MemExecutor { return nil }
	}
	return &Coordinator{cfg: cfg, ms: ms, fs: fs, m: m}
}

// AddQueryServer registers a query server.
func (c *Coordinator) AddQueryServer(s *Server) {
	c.mu.Lock()
	c.qservers = append(c.qservers, s)
	c.mu.Unlock()
}

// Decompose is the coordinator's one planner (§IV-A): it splits a query
// into memtable subqueries (fresh data on indexing servers) and chunk
// subqueries (historical data on query servers), using the metadata R-tree
// for the chunk candidates. It returns the executor of every mem-subquery
// aligned with memSubs, and the candidates' metadata aligned with
// chunkSubs. agg, when non-nil, is stamped on every subquery: the servers
// then fold partial aggregates instead of returning tuples. Every query
// class plans here, so the visibility rule below — each acked tuple in
// exactly one of live leaf, pending snapshot or chunk, for every plan —
// holds for all of them or none.
func (c *Coordinator) Decompose(q model.Query, agg *model.AggSpec) (memSubs []*model.SubQuery, execs []MemExecutor, chunkSubs []*model.SubQuery, chunks []meta.ChunkInfo) {
	qRegion := q.Region()
	// A recurrence's exactness comes from the coordinator's filter on the
	// collected runs, so per-subquery limits are unsound under one (a
	// subquery's first Limit matches may all fall outside the windows): the
	// merge applies q.Limit after the filter instead.
	subLimit := q.Limit
	if q.Recur != nil {
		subLimit = 0
	}
	// The serving slots' bounds are read BEFORE the chunk list, each from
	// the server itself (MemBounds), and the executors come from the same
	// slot-table read. A flush registers its chunk and drops the snapshot
	// from the server's bounds in one step; a plan that read chunks first
	// and bounds second could land on both sides of one flush — chunk not
	// yet in the list, bounds already empty — and hold the flushed tuples in
	// neither half. Read in this order, a server whose data reached chunks
	// in between is merely planned a mem-subquery it answers with nothing
	// new. A slot nobody serves any more flushed everything before it
	// stopped being served, so the chunk list holds it.
	//
	// The chunk candidates and the chunk-ID watermark come from one
	// metadata critical section: a chunk registered by a concurrent flush
	// is either in this plan or has ID >= watermark, in which case the
	// producing indexing server still serves it from the pending snapshot
	// (SubQuery.AsOfChunk below) — never both, never neither.
	//
	// Both rules hold for one incarnation per slot. A successor installed
	// after the slot-table read replays what the deposed incarnation still
	// holds in memory, and its chunks could reach the list: the plan is
	// made again on the table as it is now. Only a slot-table change racing
	// the plan (a takeover, a scale-out, a decommission) costs a second pass.
	var (
		cands     []meta.ChunkInfo
		watermark uint64
	)
	for table := c.cfg.MemExecutors(); ; {
		memSubs, execs = memSubs[:0], execs[:0]
		for slot, e := range table {
			if e == nil {
				continue
			}
			min, keys, ok := e.MemBounds()
			if !ok || !keys.Overlaps(q.Keys) {
				continue
			}
			// Widen the left bound by Δt (§IV-D): presume late tuples up to
			// Δt behind the observed minimum. A bound that would fall below
			// the time domain (lo wrapped past min) cuts nothing.
			if lo := min - lateDelta; lo <= min && q.Times.Hi < lo {
				continue
			}
			memSubs = append(memSubs, &model.SubQuery{
				QueryID: q.ID, Region: qRegion, Filter: q.Filter,
				Chunk: model.MemChunk, IndexServer: slot, Limit: subLimit, Agg: agg,
			})
			execs = append(execs, e)
		}
		cands, watermark = c.ms.ChunksForWithWatermark(qRegion)
		now := c.cfg.MemExecutors()
		if slices.Equal(now, table) {
			break
		}
		table = now
	}
	chunks = cands[:0]
	pruned, seq := 0, 0
	for _, ci := range cands {
		r, ok := qRegion.Intersect(ci.Region)
		if !ok {
			continue
		}
		if q.Recur != nil && !q.Recur.Overlaps(r.Times) {
			// No window of the recurrence meets the chunk's part of the
			// query: skipped before its header is read.
			pruned++
			continue
		}
		chunks = append(chunks, ci)
		chunkSubs = append(chunkSubs, &model.SubQuery{
			QueryID: q.ID, Seq: seq, Region: r, Filter: q.Filter, Chunk: ci.ID,
			Limit: subLimit,
			// Thread the chunk's file metadata through the plan: the
			// dispatch loop needs Path for replica locality and the query
			// server needs Path and the header lengths to open the chunk —
			// neither should repeat the metadata lookup this loop already did.
			ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen, ChunkIndexLen: ci.IndexLen,
			Agg: agg,
		})
		seq++
	}
	if pruned > 0 {
		c.m.RecurrencePruned.Add(int64(pruned))
	}
	for _, sq := range memSubs {
		sq.Seq, sq.AsOfChunk = seq, watermark
		seq++
	}
	return memSubs, execs, chunkSubs, chunks
}

// run is the coordinator's one dispatch loop (§IV-B/C): the fresh-data
// subqueries run on their indexing servers (execs, aligned with memSubs) in
// parallel with the chunk fan-out, every result is handed to collect (from
// the delivering goroutine — collect synchronizes), and the dispatch latency
// is observed under the policy in force. root may be nil (tracing off).
func (c *Coordinator) run(memSubs []*model.SubQuery, execs []MemExecutor, chunkSubs []*model.SubQuery, collect func(*model.SubResult), root *telemetry.Span) error {
	c.m.MemSubQueries.Add(int64(len(memSubs)))
	c.m.ChunkSubQueries.Add(int64(len(chunkSubs)))
	c.mu.RLock()
	pname := c.cfg.Policy.Name()
	c.mu.RUnlock()
	dispSp := root.StartChild("dispatch")
	dispSp.SetStr("policy", pname)
	dispStart := time.Now()
	var wg sync.WaitGroup
	for i, sq := range memSubs {
		wg.Add(1)
		go func(e MemExecutor, sq *model.SubQuery) {
			defer wg.Done()
			memSp := dispSp.StartChild("mem_subquery")
			memSp.SetInt("index_server", int64(sq.IndexServer))
			r := e.ExecuteSubQuery(sq)
			if r != nil {
				memSp.SetInt("tuples", int64(r.Len()))
			}
			memSp.End()
			collect(r)
		}(execs[i], sq)
	}
	var err error
	if len(chunkSubs) > 0 {
		err = c.runChunkSubqueries(chunkSubs, collect, dispSp)
	}
	wg.Wait()
	dispSp.End()
	c.m.dispatchHist(pname).Observe(time.Since(dispStart))
	return err
}

// Execute runs a query to completion and returns the merged result with
// tuples sorted by (key, time, payload). The tuples are decoded once from
// the merged run and their payloads alias it. No span is built.
func (c *Coordinator) Execute(q model.Query) (*model.Result, error) {
	res, _, _, err := c.execute(q, nil, false)
	return res, err
}

// ExecuteTraced runs a query like Execute and additionally returns its
// span tree — Waterwheel's EXPLAIN ANALYZE — which the trace ring, when
// configured, also retains.
func (c *Coordinator) ExecuteTraced(q model.Query) (*model.Result, *telemetry.QueryTrace, error) {
	res, _, tr, err := c.execute(q, telemetry.StartSpan("query"), false)
	return res, tr, err
}

// ExecuteEncoded runs a query like Execute — like ExecuteTraced, returning
// its span tree, when traced is set — and returns the result in its wire
// form: the merge is written straight behind the result header
// (model.AppendMergedResult), and no Tuple is built.
func (c *Coordinator) ExecuteEncoded(q model.Query, traced bool) ([]byte, *telemetry.QueryTrace, error) {
	var root *telemetry.Span
	if traced {
		root = telemetry.StartSpan("query")
	}
	_, wire, tr, err := c.execute(q, root, true)
	return wire, tr, err
}

// execute is the tuple-query engine behind Execute, ExecuteTraced and
// ExecuteEncoded: plan, run, k-way merge of the subqueries' runs — decoded
// into res.Tuples, or with encode set appended to the wire form of res and
// returned as wire. root is nil unless the caller asked for the trace:
// every span operation then degrades to a nil check.
func (c *Coordinator) execute(q model.Query, root *telemetry.Span, encode bool) (*model.Result, []byte, *telemetry.QueryTrace, error) {
	q = c.ms.RegisterQuery(q)
	defer c.ms.CompleteQuery(q.ID)

	c.m.Queries.Inc()
	start := time.Now()
	var tr *telemetry.QueryTrace
	finish := func(err error) {
		c.m.QueryNanos.Observe(time.Since(start))
		if err != nil {
			c.m.QueryErrors.Inc()
			root.SetStr("error", err.Error())
		}
		root.End()
		if root != nil {
			c.mu.RLock()
			pname := c.cfg.Policy.Name()
			c.mu.RUnlock()
			tr = &telemetry.QueryTrace{QueryID: q.ID, Policy: pname, Root: root}
			c.cfg.Traces.Add(tr)
		}
	}

	decSp := root.StartChild("decompose")
	memSubs, execs, chunkSubs, _ := c.Decompose(q, nil)
	decSp.SetInt("mem_subqueries", int64(len(memSubs)))
	decSp.SetInt("chunk_subqueries", int64(len(chunkSubs)))
	decSp.End()

	res := &model.Result{QueryID: q.ID, SubQueries: len(memSubs) + len(chunkSubs)}

	var (
		mu sync.Mutex
		// runs collects every subquery's runs, each already in canonical
		// order, for the final k-way merge.
		runs []model.Run
	)
	collect := func(r *model.SubResult) {
		if r == nil {
			return
		}
		if q.Recur != nil {
			// The recurrence is the query's exact time semantics; the plan only
			// skipped chunks no window meets, and a subquery scans its whole
			// region. The runs are this query's own, so they are filtered in
			// place.
			for i := range r.Runs {
				r.Runs[i].Keep(func(_ model.Key, t model.Timestamp) bool { return q.Recur.Contains(t) })
			}
		}
		mu.Lock()
		res.MergeCounters(r)
		for _, run := range r.Runs {
			if run.N > 0 {
				runs = append(runs, run)
			}
		}
		mu.Unlock()
	}
	if err := c.run(memSubs, execs, chunkSubs, collect, root); err != nil {
		finish(err)
		return nil, nil, tr, err
	}
	// K-way merge of the runs, stopping at Limit: a LIMIT n query pays
	// O(n log k), not a full sort of everything the subqueries delivered.
	mergeSp := root.StartChild("merge")
	var (
		wire []byte
		n    int
	)
	if encode {
		wire, n = model.AppendMergedResult(nil, res, runs, q.Limit)
	} else {
		var buf []byte
		if buf, n = model.MergeRuns(nil, runs, q.Limit); n > 0 {
			// Payloads alias the merged run, which the result now owns.
			var err error
			if res.Tuples, err = model.DecodeTuplesInto(make([]model.Tuple, 0, n), buf); err != nil {
				mergeSp.End()
				finish(err)
				return nil, nil, tr, err
			}
		}
	}
	mergeSp.SetInt("tuples", int64(n))
	mergeSp.End()
	finish(nil)
	return res, wire, tr, nil
}

// regionCovers reports whether outer fully contains inner.
func regionCovers(outer, inner model.Region) bool {
	return outer.Keys.Lo <= inner.Keys.Lo && inner.Keys.Hi <= outer.Keys.Hi &&
		outer.Times.Lo <= inner.Times.Lo && inner.Times.Hi <= outer.Times.Hi
}

// ExecuteAggregate runs an aggregate query (COUNT/MIN/MAX/SUM over a
// key×time region) with aggregation pushdown at every level: chunks whose
// region lies fully inside an unfiltered query are answered from their
// registered summary without any subquery; the remaining chunk subqueries
// let query servers answer covered leaves from header pre-aggregates; the
// fresh-data path folds memtable tuples on the indexing servers. Only
// partial aggregates travel — never tuples.
func (c *Coordinator) ExecuteAggregate(q model.AggregateQuery) (*model.AggResult, error) {
	// Register like a tuple query so pending-snapshot sweeping respects this
	// query's chunk horizon for the duration of the scan.
	mq := c.ms.RegisterQuery(model.Query{ID: q.ID, Keys: q.Keys, Times: q.Times, Filter: q.Filter})
	defer c.ms.CompleteQuery(mq.ID)

	c.m.AggQueries.Inc()
	start := time.Now()
	spec := &model.AggSpec{Field: q.Field, CountOnly: q.Kind == model.AggCount}
	res := &model.AggResult{QueryID: mq.ID, Kind: q.Kind}

	memSubs, execs, planned, chunks := c.Decompose(mq, spec)
	// Meta-level pushdown: every tuple of a fully covered chunk matches an
	// unfiltered query, so its registered count/summary is exact and its
	// subquery is dropped from the plan.
	qRegion := q.Region()
	chunkSubs := planned[:0]
	for i, ci := range chunks {
		if q.Filter == nil && regionCovers(qRegion, ci.Region) {
			if spec.CountOnly {
				res.Count += uint64(ci.Count)
				res.MetaChunks++
				continue
			}
			if ci.Agg != nil && ci.Agg.Field == q.Field {
				res.AggPartial.Merge(&ci.Agg.AggPartial)
				res.MetaChunks++
				continue
			}
		}
		chunkSubs = append(chunkSubs, planned[i])
	}
	c.m.AggMetaChunks.Add(int64(res.MetaChunks))
	res.SubQueries = len(memSubs) + len(chunkSubs)

	var mu sync.Mutex
	collect := func(r *model.SubResult) {
		if r == nil {
			return
		}
		mu.Lock()
		if r.Agg != nil {
			res.AggPartial.Merge(r.Agg)
		}
		res.PushdownLeaves += r.AggPushdown
		res.LeavesRead += r.LeavesRead
		res.LeavesSkipped += r.LeavesSkipped
		res.BytesRead += r.BytesRead
		res.CacheHits += r.CacheHits
		mu.Unlock()
	}
	err := c.run(memSubs, execs, chunkSubs, collect, nil)
	c.m.QueryNanos.Observe(time.Since(start))
	if err != nil {
		c.m.QueryErrors.Inc()
		return nil, err
	}
	return res, nil
}

// ExplainInfo describes how a query would execute, for introspection and
// tooling: the fresh-data targets and the chunk candidates with their
// clipped regions.
type ExplainInfo struct {
	// MemSubQueries target indexing-server memtables.
	MemSubQueries []model.SubQuery
	// ChunkSubQueries target flushed chunks.
	ChunkSubQueries []model.SubQuery
	// Chunks carries the metadata of each targeted chunk, aligned with
	// ChunkSubQueries.
	Chunks []meta.ChunkInfo
}

// Explain decomposes a query without executing it.
func (c *Coordinator) Explain(q model.Query) ExplainInfo {
	memSubs, _, chunkSubs, chunks := c.Decompose(q, nil)
	info := ExplainInfo{Chunks: chunks}
	for _, sq := range memSubs {
		info.MemSubQueries = append(info.MemSubQueries, *sq)
	}
	for _, sq := range chunkSubs {
		info.ChunkSubQueries = append(info.ChunkSubQueries, *sq)
	}
	return info
}

// subquery claim states.
const (
	statePending int32 = iota
	stateClaimed
	stateDone
)

// runChunkSubqueries drives the dispatch engine: the policy builds the
// per-server preference lists, then a pool of Workers goroutines per live
// query server claims subqueries from the shared pending set in the
// server's preference order (§IV-C), overlapping chunk I/O so one server
// executes several subqueries concurrently (§IV-B). A failed server's
// claimed subqueries return to the pending set and are picked up by
// another server's workers (§V); workers that exhaust their list sweep
// for still-pending work, parking on one progress watermark (no busy-wait)
// that a redispatch or the last completion advances. A chunk that cannot be
// decoded is not a server failure: the first such error fails the watermark,
// and with it the query, at once.
func (c *Coordinator) runChunkSubqueries(sqs []*model.SubQuery, deliver func(*model.SubResult), sp *telemetry.Span) error {
	c.mu.RLock()
	servers := append([]*Server(nil), c.qservers...)
	policy := c.cfg.Policy
	c.mu.RUnlock()

	live := servers[:0]
	for _, s := range servers {
		if !s.Down() {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return ErrNoQueryServers
	}

	placements := make([]ServerPlacement, len(live))
	for i, s := range live {
		placements[i] = ServerPlacement{ID: s.ID(), Node: s.Node()}
	}
	// One batched replica-location lookup for the whole plan. Paths come
	// from the plan itself (Decompose threads each chunk's metadata into
	// its subquery); hand-built subqueries without a path fall back to a
	// metadata fetch, and the resolved path is threaded onward so the
	// executing server skips its own lookup too.
	paths := make([]string, len(sqs))
	for i, sq := range sqs {
		if sq.ChunkPath == "" {
			if ci, ok := c.ms.Chunk(sq.Chunk); ok {
				sq.ChunkPath, sq.ChunkHeaderLen, sq.ChunkIndexLen = ci.Path, ci.HeaderLen, ci.IndexLen
			}
		}
		paths[i] = sq.ChunkPath
	}
	locations := c.fs.LocationsBatch(paths)
	pref := policy.Plan(sqs, locations, placements)

	// A sweeper reads progress before its claim scan and parks on the next
	// step: a redispatch stores statePending before it advances progress, and
	// the last completion counts itself before it does, so a sweeper that
	// scanned while either raced it rescans instead of sleeping.
	states := make([]atomic.Int32, len(sqs))
	total := int64(len(sqs))
	var (
		progress wal.Watermark
		done     atomic.Int64
		wg       sync.WaitGroup
	)
	complete := func(idx int) {
		states[idx].Store(stateDone)
		if done.Add(1) == total {
			progress.Add(1)
		}
	}

	runOne := func(s *Server, idx int) bool {
		if progress.Err() != nil {
			return false
		}
		c.m.WorkersBusy.Add(1)
		defer c.m.WorkersBusy.Add(-1)
		sqSp := sp.StartChild("chunk_subquery")
		sqSp.SetInt("chunk", int64(sqs[idx].Chunk))
		sqSp.SetInt("query_server", int64(s.ID()))
		r, err := s.ExecuteSubQueryTraced(sqs[idx], sqSp)
		if err != nil {
			if errors.Is(err, ErrRetired) {
				if _, ok := c.ms.Chunk(sqs[idx].Chunk); !ok {
					// The chunk retired (a retention drop) after this plan
					// was built: its data aged out of the store. Complete
					// the subquery empty instead of failing the query.
					sqSp.SetInt("retired", 1)
					sqSp.End()
					c.m.RetiredSubQueries.Inc()
					complete(idx)
					return true
				}
				// Still registered: a replica hiccup, not retirement — fall
				// through to the redispatch path.
			}
			sqSp.SetStr("error", err.Error())
			sqSp.End()
			if errors.Is(err, chunk.ErrCorrupt) || errors.Is(err, chunk.ErrUnsupportedVersion) {
				// A property of the file, not of this server: every other
				// server would read the same bytes.
				progress.Fail(err)
				return false
			}
			// Return the subquery to the pending set; this worker stops.
			c.m.Redispatches.Inc()
			states[idx].Store(statePending)
			progress.Add(1)
			return false
		}
		sqSp.End()
		complete(idx)
		deliver(r)
		return true
	}

	for i, s := range live {
		for w := 0; w < s.Workers(); w++ {
			wg.Add(1)
			go func(s *Server, list []int) {
				defer wg.Done()
				// Claim in preference order. Workers of the same server
				// share the list; the CAS gives each pending subquery to
				// exactly one worker, so together they run the server's
				// top-k preferred pending subqueries concurrently.
				for _, idx := range list {
					if !states[idx].CompareAndSwap(statePending, stateClaimed) {
						continue
					}
					if !runOne(s, idx) {
						return
					}
				}
				// Sweep for re-dispatched (failed-elsewhere) subqueries
				// until everything is done or this server fails too. If a
				// subquery is claimed by a live server it will settle; if
				// its claimant failed it returns to pending and is picked
				// up here.
				for {
					seen := progress.Load()
					if done.Load() == total || progress.Err() != nil {
						return
					}
					progressed := false
					for idx := range states {
						if states[idx].CompareAndSwap(statePending, stateClaimed) {
							progressed = true
							if !runOne(s, idx) {
								return
							}
						}
					}
					if !progressed && progress.Wait(seen+1, nil) != nil {
						return
					}
				}
			}(s, pref[i])
		}
	}
	wg.Wait()
	if err := progress.Err(); err != nil {
		return err
	}
	if n := done.Load(); n < total {
		return fmt.Errorf("%w: %d/%d subqueries unserved after failures",
			ErrNoQueryServers, total-n, total)
	}
	return nil
}
