// Package queryexec implements Waterwheel's query path (paper §IV): the
// query servers that execute subqueries over flushed chunks with selective
// leaf reads, bloom-filter pruning and an LRU cache; the subquery dispatch
// policies (LADA and the three baselines of §VI-C2); and the query
// coordinator that decomposes user queries via the metadata R-tree, fans
// the subqueries out across indexing and query servers, and merges the
// results — re-dispatching on query-server failure (§V).
package queryexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/lru"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// ErrServerDown is returned by a query server with an injected failure.
var ErrServerDown = errors.New("queryexec: query server down")

// ErrRetired is returned when a subquery's chunk file has been deleted
// from the DFS — the chunk was retired (a retention drop) while the
// subquery was in flight. The coordinator treats it as a redispatch
// signal: if the chunk is still registered the subquery retries, otherwise
// the data aged out of the store and the subquery completes empty.
var ErrRetired = errors.New("queryexec: chunk retired")

// errNoHeaderLen is returned for a chunk registered without its header
// length. A flush always records it, so the only source is a metadata
// snapshot written by something else; the server reports that instead of
// guessing the length with a second read.
var errNoHeaderLen = errors.New("queryexec: chunk registered without a header length")

// ServerConfig configures a query server.
type ServerConfig struct {
	// ID is the query-server index.
	ID int
	// Node is the cluster node hosting the server — the basis of chunk
	// locality decisions.
	Node int
	// CacheBytes is the LRU budget (paper: 1 GB per query server).
	CacheBytes int64
	// Workers is the number of dispatch-pool goroutines the coordinator
	// runs against this server — its subquery-level parallelism. The
	// workers spend their time parked on (simulated) DFS I/O, so the
	// default of 4 is deliberately not capped by GOMAXPROCS; 1 restores
	// serial per-server dispatch.
	Workers int
	// InflightReads bounds the DFS reads this server has outstanding at
	// once, across all of its concurrent subqueries. Zero means 4;
	// 1 serializes chunk I/O.
	InflightReads int
	// Metrics holds telemetry handles, typically shared across every
	// query server of a deployment. Nil disables instrumentation.
	Metrics *ServerMetrics
}

// ServerMetrics are the telemetry handles the chunk-read path feeds. All
// handles are nil-safe; the zero value is a no-op.
type ServerMetrics struct {
	SubQueries      *telemetry.Counter
	LeavesRead      *telemetry.Counter
	LeavesBloomSkip *telemetry.Counter
	CoalescedReads  *telemetry.Counter
	BytesRead       *telemetry.Counter
	HeaderHits      *telemetry.Counter
	HeaderMisses    *telemetry.Counter
	LeafHits        *telemetry.Counter
	LeafMisses      *telemetry.Counter
	HeaderEvictions *telemetry.Counter
	LeafEvictions   *telemetry.Counter
	// AggHits, AggMisses and AggEvictions count the pre-aggregate unit,
	// the header bytes past the index prefix that only aggregates read.
	AggHits      *telemetry.Counter
	AggMisses    *telemetry.Counter
	AggEvictions *telemetry.Counter
	// SingleFlightDedup counts reads a subquery skipped because a
	// concurrent subquery was already fetching the same bytes.
	SingleFlightDedup *telemetry.Counter
	// InflightReads gauges DFS reads currently outstanding.
	InflightReads *telemetry.Gauge
	SubQueryNanos *telemetry.Histogram
	// AggPushdownLeaves counts leaves an aggregate subquery answered from
	// header pre-aggregates without reading the leaf body; AggScannedLeaves
	// counts leaves it had to decode. Their ratio is the pushdown hit rate.
	AggPushdownLeaves *telemetry.Counter
	AggScannedLeaves  *telemetry.Counter
	// AggBytesSaved gauges the cumulative leaf-body bytes aggregation
	// pushdown avoided fetching from the DFS.
	AggBytesSaved *telemetry.Gauge
}

// NewServerMetrics registers the chunk-read metric set on r (nil r gives
// all-nil, no-op handles).
func NewServerMetrics(r *telemetry.Registry) *ServerMetrics {
	return &ServerMetrics{
		SubQueries:        r.Counter("waterwheel_chunk_subqueries_total", "chunk subqueries executed by query servers"),
		LeavesRead:        r.Counter("waterwheel_chunk_leaves_read_total", "chunk leaves scanned"),
		LeavesBloomSkip:   r.Counter("waterwheel_chunk_leaves_bloom_skipped_total", "chunk leaves pruned by time bounds or sketches"),
		CoalescedReads:    r.Counter("waterwheel_chunk_coalesced_reads_total", "gap-coalesced file accesses for leaf ranges"),
		BytesRead:         r.Counter("waterwheel_chunk_bytes_read_total", "chunk bytes fetched from the DFS"),
		HeaderHits:        r.Counter(`waterwheel_cache_hits_total{unit="header"}`, "query-server cache hits by unit"),
		HeaderMisses:      r.Counter(`waterwheel_cache_misses_total{unit="header"}`, "query-server cache misses by unit"),
		LeafHits:          r.Counter(`waterwheel_cache_hits_total{unit="leaf"}`, "query-server cache hits by unit"),
		LeafMisses:        r.Counter(`waterwheel_cache_misses_total{unit="leaf"}`, "query-server cache misses by unit"),
		HeaderEvictions:   r.Counter(`waterwheel_cache_evictions_total{unit="header"}`, "query-server cache evictions by unit"),
		LeafEvictions:     r.Counter(`waterwheel_cache_evictions_total{unit="leaf"}`, "query-server cache evictions by unit"),
		AggHits:           r.Counter(`waterwheel_cache_hits_total{unit="agg"}`, "query-server cache hits by unit"),
		AggMisses:         r.Counter(`waterwheel_cache_misses_total{unit="agg"}`, "query-server cache misses by unit"),
		AggEvictions:      r.Counter(`waterwheel_cache_evictions_total{unit="agg"}`, "query-server cache evictions by unit"),
		SingleFlightDedup: r.Counter("waterwheel_chunk_singleflight_dedup_total", "chunk reads deduplicated into a concurrent identical read"),
		InflightReads:     r.Gauge("waterwheel_chunk_inflight_reads", "DFS reads currently outstanding on query servers"),
		SubQueryNanos:     r.Histogram("waterwheel_chunk_subquery_seconds", "chunk subquery execution latency"),
		AggPushdownLeaves: r.Counter("waterwheel_agg_pushdown_leaves_total", "leaves answered from header pre-aggregates without a body read"),
		AggScannedLeaves:  r.Counter("waterwheel_agg_scanned_leaves_total", "leaves aggregate subqueries had to decode"),
		AggBytesSaved:     r.Gauge("waterwheel_agg_pushdown_bytes_saved_total", "leaf-body bytes aggregation pushdown avoided reading"),
	}
}

// Server is a query server: it executes subqueries on data chunks,
// keeping frequently accessed headers and leaves in its cache (§IV-B).
type Server struct {
	cfg ServerConfig
	fs  *dfs.FS
	ms  *meta.Server
	// m mirrors cfg.Metrics, defaulted to a no-op set so the read path
	// never branches on nil.
	m     *ServerMetrics
	cache *lru.Cache[unitKey]
	down  atomic.Bool

	// workers is the resolved ServerConfig.Workers; inflight is the
	// read-concurrency semaphore sized from InflightReads; flights dedups
	// concurrent identical header/extent fetches across subqueries.
	workers  int
	inflight chan struct{}
	flights  lru.FlightGroup[unitKey]

	executed atomic.Int64
}

// NewServer creates a query server reading chunks from fs with metadata
// from ms.
func NewServer(cfg ServerConfig, fs *dfs.FS, ms *meta.Server) *Server {
	m := cfg.Metrics
	if m == nil {
		m = &ServerMetrics{}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	inflight := cfg.InflightReads
	if inflight <= 0 {
		inflight = 4
	}
	s := &Server{
		cfg: cfg, fs: fs, ms: ms, m: m, cache: lru.New[unitKey](cfg.CacheBytes),
		workers: workers, inflight: make(chan struct{}, inflight),
	}
	s.cache.SetEvictHook(func(key unitKey, _ int64) {
		switch key.unit {
		case headerUnit:
			m.HeaderEvictions.Inc()
		case aggUnit:
			m.AggEvictions.Inc()
		default:
			m.LeafEvictions.Inc()
		}
	})
	return s
}

// ID returns the server id.
func (s *Server) ID() int { return s.cfg.ID }

// Node returns the hosting cluster node.
func (s *Server) Node() int { return s.cfg.Node }

// Workers returns the server's subquery parallelism — how many dispatch
// goroutines the coordinator runs against it.
func (s *Server) Workers() int { return s.workers }

// Executed returns the number of subqueries this server has run.
func (s *Server) Executed() int64 { return s.executed.Load() }

// CacheMetrics exposes the LRU counters.
func (s *Server) CacheMetrics() lru.Metrics { return s.cache.Metrics() }

// EvictChunk drops every cached unit of a chunk — its header, its
// pre-aggregates and its leaves — returning the number of entries removed.
// Retirement calls this on every query server after the metadata drop so no
// future subquery is served stale bytes of a deleted file.
func (s *Server) EvictChunk(id model.ChunkID) int {
	return s.cache.RemoveFunc(func(key unitKey) bool { return key.chunk == id })
}

// Down reports whether the server is failed. Nothing in production sets
// it: the flag is the seam tests fail a server through, and the
// coordinator's redispatch reads it.
func (s *Server) Down() bool { return s.down.Load() }

// unitKey names one unit of a chunk: in the cache, its header (the index
// prefix), its pre-aggregate block or one leaf; in the flight group, the
// read in progress for one of the first two or for one coalesced extent
// (extents are read, never cached — their leaves are). A comparable struct
// rather than a formatted string: a key is built once per wanted leaf on
// every subquery, and this one costs no allocation.
type unitKey struct {
	chunk model.ChunkID
	unit  unitKind
	// a is the leaf index of a leafUnit; a and b are the byte offset and
	// length of an extentUnit.
	a, b int64
}

type unitKind uint8

const (
	headerUnit unitKind = iota
	aggUnit
	leafUnit
	extentUnit
)

func leafKey(id model.ChunkID, leaf int) unitKey {
	return unitKey{chunk: id, unit: leafUnit, a: int64(leaf)}
}

// readAt is the server's single DFS read site. It bounds the server's
// outstanding reads with the inflight semaphore and counts the bytes
// actually transferred — so the byte metric agrees with per-result
// accounting on every path.
func (s *Server) readAt(path string, off, length int64) ([]byte, error) {
	s.inflight <- struct{}{}
	s.m.InflightReads.Add(1)
	b, _, err := s.fs.ReadAt(path, off, length, s.cfg.Node)
	s.m.InflightReads.Add(-1)
	<-s.inflight
	if err != nil {
		if errors.Is(err, dfs.ErrNotFound) {
			// Chunk files only vanish through retirement; surface the typed
			// error so the coordinator can redispatch or drop the subquery
			// instead of failing the query on a raw DFS error.
			return nil, fmt.Errorf("%w: %v", ErrRetired, err)
		}
		if errors.Is(err, dfs.ErrBadRange) {
			// Every range read comes from the registered lengths or the
			// chunk's own directory: a file shorter than that is a
			// property of the file, which every server would read the same.
			return nil, fmt.Errorf("%w: %v", chunk.ErrCorrupt, err)
		}
		return nil, err
	}
	s.m.BytesRead.Add(int64(len(b)))
	return b, nil
}

// headerFetch carries a fetched header plus the bytes its flight leader
// read (zero for followers, whose bytes were counted by the leader).
type headerFetch struct {
	h     *chunk.Header
	bytes int64
}

// header returns the parsed chunk header, from cache or the file system,
// plus the DFS bytes this call caused to be read. A header is two cache
// units: the header unit, the index prefix [0, IndexLen) that selects and
// scans leaves, and the agg unit, the pre-aggregate block [IndexLen,
// HeaderLen) that only aggregates fold. A miss reads the index prefix, or
// with wholeOnMiss the whole header in one access, caching both units and
// returning the header with its block loaded. An aggregate handed a header
// without its block (HasAgg false) gets it from loadAggs. ParseHeader and
// WithAggs check each unit's CRC before it is cached. A chunk registered
// without IndexLen has its whole header read and cached as the header
// unit. Concurrent misses of the same header share one fetch via the
// flight group.
func (s *Server) header(ci meta.ChunkInfo, wholeOnMiss bool) (*chunk.Header, int64, bool, error) {
	key := unitKey{chunk: ci.ID, unit: headerUnit}
	if v, ok := s.cache.Get(key); ok {
		s.m.HeaderHits.Inc()
		return v.(*chunk.Header), 0, true, nil
	}
	s.m.HeaderMisses.Inc()
	v, err, shared := s.flights.Do(key, func() (any, error) {
		hlen, ilen := int64(ci.HeaderLen), int64(ci.IndexLen)
		if hlen <= 0 {
			return nil, errNoHeaderLen
		}
		if ilen <= 0 || ilen > hlen {
			ilen = hlen
		}
		n := ilen
		if wholeOnMiss {
			n = hlen
		}
		buf, err := s.readAt(ci.Path, 0, n)
		if err != nil {
			return nil, err
		}
		h, err := chunk.ParseHeader(buf[:ilen])
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, h, ilen)
		if n > ilen {
			if h, err = h.WithAggs(buf[ilen:]); err != nil {
				return nil, err
			}
			s.m.AggMisses.Inc()
			s.cache.Put(unitKey{chunk: ci.ID, unit: aggUnit}, h, n-ilen)
		}
		return headerFetch{h: h, bytes: n}, nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	hf := v.(headerFetch)
	if shared {
		s.m.SingleFlightDedup.Inc()
		return hf.h, 0, false, nil
	}
	return hf.h, hf.bytes, false, nil
}

// loadAggs returns the index-only header h with its pre-aggregate block
// loaded: the agg unit from cache, or the block read and parsed into a
// copy of h, with the hit or the bytes charged to res as header charges
// the header unit's.
func (s *Server) loadAggs(ci meta.ChunkInfo, h *chunk.Header, res *model.SubResult, sp *telemetry.Span) (*chunk.Header, error) {
	openSp := sp.StartChild("chunk_open")
	defer openSp.End()
	key := unitKey{chunk: ci.ID, unit: aggUnit}
	if v, ok := s.cache.Get(key); ok {
		s.m.AggHits.Inc()
		res.CacheHits++
		openSp.SetInt("cache_hit", 1)
		return v.(*chunk.Header), nil
	}
	s.m.AggMisses.Inc()
	n := int64(h.HeaderLen - h.IndexLen)
	v, err, shared := s.flights.Do(key, func() (any, error) {
		buf, err := s.readAt(ci.Path, int64(h.IndexLen), n)
		if err != nil {
			return nil, err
		}
		full, err := h.WithAggs(buf)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, full, n)
		return full, nil
	})
	if err != nil {
		err = fmt.Errorf("queryexec: chunk %d pre-aggregates (%s): %w", ci.ID, ci.Path, err)
		openSp.SetStr("error", err.Error())
		return nil, err
	}
	if shared {
		s.m.SingleFlightDedup.Inc()
		n = 0
	}
	res.BytesRead += n
	openSp.SetInt("agg_bytes", n)
	return v.(*chunk.Header), nil
}

// ExecuteSubQuery runs one chunk subquery: select leaves by key range and
// time sketches, read uncached leaves (coalescing adjacent extents into
// single file accesses), and scan into one run.
func (s *Server) ExecuteSubQuery(sq *model.SubQuery) (*model.SubResult, error) {
	return s.ExecuteSubQueryTraced(sq, nil)
}

// ExecuteSubQueryTraced runs one chunk subquery, attaching per-stage
// child spans (chunk_open, leaf_read, scan) to sp when tracing. A nil sp
// costs only nil checks.
func (s *Server) ExecuteSubQueryTraced(sq *model.SubQuery, sp *telemetry.Span) (*model.SubResult, error) {
	if s.down.Load() {
		return nil, ErrServerDown
	}
	s.executed.Add(1)
	s.m.SubQueries.Inc()
	start := time.Now()
	res := &model.SubResult{QueryID: sq.QueryID}
	// Planned subqueries carry the chunk's file metadata; only hand-built
	// ones pay a metadata-server round trip here.
	ci := meta.ChunkInfo{ID: sq.Chunk, Path: sq.ChunkPath, HeaderLen: sq.ChunkHeaderLen, IndexLen: sq.ChunkIndexLen}
	if ci.Path == "" {
		info, ok := s.ms.Chunk(sq.Chunk)
		if !ok {
			return nil, fmt.Errorf("queryexec: unknown chunk %d", sq.Chunk)
		}
		ci = info
	}
	openSp := sp.StartChild("chunk_open")
	h, hbytes, hit, err := s.header(ci, sq.Agg != nil)
	if err != nil {
		err = fmt.Errorf("queryexec: chunk %d header (%s): %w", ci.ID, ci.Path, err)
		openSp.SetStr("error", err.Error())
		openSp.End()
		return nil, err
	}
	if hit {
		res.CacheHits++
		openSp.SetInt("cache_hit", 1)
	} else {
		// hbytes is what the fetch actually transferred (zero when a
		// concurrent subquery's fetch was shared), already counted in the
		// byte metric at the read site — so metric and result accounting
		// agree.
		res.BytesRead += hbytes
		openSp.SetInt("header_bytes", hbytes)
	}
	openSp.End()
	// The sketches prune whenever the chunk carries them: a chunk built
	// without them (chunk.BuildOptions.DisableBloom) prunes by time bounds only.
	leaves, pruned := h.SelectLeaves(sq.Region.Keys, sq.Region.Times, true)
	res.LeavesSkipped += pruned
	s.m.LeavesBloomSkip.Add(int64(pruned))

	// Aggregate subqueries fold into res.Agg instead of collecting tuples,
	// answering covered leaves from header pre-aggregates where possible.
	if sq.Agg != nil {
		if err := s.executeAgg(sq, ci, h, leaves, res, sp); err != nil {
			return nil, err
		}
		s.m.LeavesRead.Add(int64(res.LeavesRead))
		s.m.SubQueryNanos.Observe(time.Since(start))
		return res, nil
	}

	bodies, err := s.fetchLeafBodies(ci, h, leaves, res, sp)
	if err != nil {
		return nil, err
	}

	scanSp := sp.StartChild("scan")
	cols := chunk.BorrowColumns()
	defer chunk.ReturnColumns(cols)
	// Matches are encoded from the columns into pooled scratch and handed
	// over as one exactly sized run: nothing of a result aliases the
	// (cached, shared) leaf bodies, and growing the result itself would
	// leave several times its size behind in abandoned buffers — on a
	// read-heavy process allocation rate is collector cadence.
	app := model.BorrowRunAppender()
	defer model.ReturnRunAppender(app)
	visit := func(k model.Key, ts model.Timestamp, p []byte) bool {
		return app.AppendLimited(sq.Limit, k, ts, p)
	}
	for pos, li := range leaves {
		res.LeavesRead++
		if err := h.ScanLeafColsWith(cols, li, bodies[pos], sq.Region.Keys, sq.Region.Times, sq.Filter, visit); err != nil {
			err = fmt.Errorf("queryexec: chunk %d leaf %d: %w", ci.ID, li, err)
			scanSp.SetStr("error", err.Error())
			scanSp.End()
			return nil, err
		}
		// A key lies in one leaf, so a group the limit reached is whole.
		if sq.Limit > 0 && app.Len() >= sq.Limit {
			break
		}
	}
	scanSp.SetInt("tuples", int64(app.Len()))
	if app.Len() > 0 {
		res.Runs = []model.Run{app.Take()}
	}
	scanSp.SetInt("leaves", int64(res.LeavesRead))
	scanSp.SetInt("bloom_skipped", int64(res.LeavesSkipped))
	scanSp.End()
	s.m.LeavesRead.Add(int64(res.LeavesRead))
	s.m.SubQueryNanos.Observe(time.Since(start))
	return res, nil
}

// fetchLeafBodies returns the bodies of the given leaves (ascending leaf
// numbers; bodies[i] is the body of leaves[i]), reading uncached ones from
// the DFS with extent coalescing and single-flight dedup, and charging
// bytes and cache counters to res.
func (s *Server) fetchLeafBodies(ci meta.ChunkInfo, h *chunk.Header, leaves []int, res *model.SubResult, sp *telemetry.Span) ([][]byte, error) {
	// Partition wanted leaves into cached and missing, then coalesce
	// missing extents into ranged reads. Gaps (cached or pruned leaves)
	// up to maxGapBytes are read through rather than split: at HDFS-like
	// access costs, an extra open is dearer than a few hundred KB of
	// sequential bytes, so pruning must not fragment the read pattern.
	const maxGapBytes = 512 << 10
	bodies := make([][]byte, len(leaves))
	var missing []int // positions in leaves
	for pos, li := range leaves {
		if v, ok := s.cache.Get(leafKey(ci.ID, li)); ok {
			bodies[pos] = v.([]byte)
			res.CacheHits++
			s.m.LeafHits.Inc()
		} else {
			missing = append(missing, pos)
			s.m.LeafMisses.Inc()
		}
	}
	// Coalesce the missing leaves into extents, then issue the extents to
	// the DFS concurrently (bounded by the server-wide inflight
	// semaphore). Each extent is single-flighted, so concurrent subqueries
	// missing the same bytes ride one read that fills the cache for all.
	type extent struct {
		lo, hi      int // index range into missing
		off, length int64
	}
	var exts []extent
	for i := 0; i < len(missing); {
		j := i
		for j+1 < len(missing) {
			prev, next := h.Dir[leaves[missing[j]]], h.Dir[leaves[missing[j+1]]]
			if next.Offset-(prev.Offset+prev.Length) > maxGapBytes {
				break
			}
			j++
		}
		first, last := leaves[missing[i]], leaves[missing[j]]
		off := h.Dir[first].Offset
		exts = append(exts, extent{
			lo: i, hi: j, off: off,
			length: h.Dir[last].Offset + h.Dir[last].Length - off,
		})
		i = j + 1
	}
	// readExtent fetches one extent (or joins an identical in-flight
	// fetch) and slices it into bodies; extents cover disjoint leaves, so
	// concurrent calls write disjoint positions of bodies. It returns the bytes
	// this subquery caused to be read — zero for a shared flight.
	readExtent := func(e extent) (int64, bool, error) {
		v, err, shared := s.flights.Do(unitKey{chunk: ci.ID, unit: extentUnit, a: e.off, b: e.length}, func() (any, error) {
			b, err := s.readAt(ci.Path, e.off, e.length)
			if err != nil {
				return nil, err
			}
			// A body is summed here, once, on its way into the cache; a
			// cache hit is never summed again.
			for k := e.lo; k <= e.hi; k++ {
				li := leaves[missing[k]]
				lb := b[h.Dir[li].Offset-e.off : h.Dir[li].Offset-e.off+h.Dir[li].Length]
				if err := h.CheckLeaf(li, lb); err != nil {
					return nil, err
				}
				s.cache.Put(leafKey(ci.ID, li), lb, int64(len(lb)))
			}
			return b, nil
		})
		if err != nil {
			return 0, shared, fmt.Errorf("queryexec: chunk %d extent [%d,+%d) (%s): %w", ci.ID, e.off, e.length, ci.Path, err)
		}
		b := v.([]byte)
		for k := e.lo; k <= e.hi; k++ {
			li := leaves[missing[k]]
			bodies[missing[k]] = b[h.Dir[li].Offset-e.off : h.Dir[li].Offset-e.off+h.Dir[li].Length]
		}
		if shared {
			s.m.SingleFlightDedup.Inc()
			return 0, true, nil
		}
		s.m.CoalescedReads.Inc()
		return e.length, false, nil
	}
	readSp := sp.StartChild("leaf_read")
	coalesced, dedups := 0, 0
	if len(exts) == 1 {
		// The common single-extent case stays on this goroutine.
		n, shared, err := readExtent(exts[0])
		if err != nil {
			readSp.SetStr("error", err.Error())
			readSp.End()
			return nil, err
		}
		res.BytesRead += n
		if shared {
			dedups++
		} else {
			coalesced++
		}
	} else if len(exts) > 1 {
		var wg sync.WaitGroup
		bytesOf := make([]int64, len(exts))
		sharedOf := make([]bool, len(exts))
		errOf := make([]error, len(exts))
		for i, e := range exts {
			wg.Add(1)
			go func(i int, e extent) {
				defer wg.Done()
				bytesOf[i], sharedOf[i], errOf[i] = readExtent(e)
			}(i, e)
		}
		wg.Wait()
		for i := range exts {
			if errOf[i] != nil {
				readSp.SetStr("error", errOf[i].Error())
				readSp.End()
				return nil, errOf[i]
			}
			res.BytesRead += bytesOf[i]
			if sharedOf[i] {
				dedups++
			} else {
				coalesced++
			}
		}
	}
	readSp.SetInt("reads", int64(coalesced))
	readSp.SetInt("dedup", int64(dedups))
	readSp.SetInt("leaves_missing", int64(len(missing)))
	readSp.SetInt("bytes", res.BytesRead)
	readSp.End()
	return bodies, nil
}

// executeAgg runs an aggregate subquery: leaves whose keys are fully
// inside the query range are answered from the header — the leaf count for
// COUNT, the pre-aggregate buckets otherwise — without reading their
// bodies. Only boundary leaves (and leaves the header can't answer) are
// fetched and column-scanned, with the bucket-folded window excluded. The
// pre-aggregate block is loaded (h.HasAgg) only when a leaf's buckets
// can answer for it, so a COUNT that whole leaves answer never reads it.
func (s *Server) executeAgg(sq *model.SubQuery, ci meta.ChunkInfo, h *chunk.Header, leaves []int, res *model.SubResult, sp *telemetry.Span) error {
	spec := sq.Agg
	agg := &model.AggPartial{}
	res.Agg = agg
	kr, tr := sq.Region.Keys, sq.Region.Times
	// exclude[li] is the bucket window already folded for a partially
	// covered leaf; scan[li] marks leaves that still need their body.
	var scan []int
	exclude := make(map[int]model.TimeRange)
	var savedBytes int64
	for _, li := range leaves {
		d := h.Dir[li]
		if d.Count == 0 {
			continue
		}
		// Pushdown needs the leaf's exact key bounds inside the query's, no
		// filter, and — for value aggregates — a pre-aggregate block over the
		// queried field. COUNT folds bucket/directory counts regardless of
		// field; only a leaf the time range cuts needs its buckets.
		covered := sq.Filter == nil && kr.Lo <= h.LeafKeys[li].Lo && h.LeafKeys[li].Hi <= kr.Hi
		whole := tr.Lo <= d.MinT && d.MaxT <= tr.Hi
		if covered && whole && spec.CountOnly {
			// Whole leaf matches: exact from the directory count alone.
			agg.Count += uint64(d.Count)
			res.AggPushdown++
			savedBytes += d.Length
			continue
		}
		if covered && !h.HasAgg {
			var err error
			if h, err = s.loadAggs(ci, h, res, sp); err != nil {
				return err
			}
		}
		if covered && (spec.CountOnly || h.AggField == spec.Field) {
			if whole {
				// Whole leaf matches: exact from folding every bucket.
				if h.FoldLeafAggAll(li, false, agg) {
					res.AggPushdown++
					savedBytes += d.Length
					continue
				}
			} else if w, ok := h.FoldLeafAgg(li, tr, spec.CountOnly, agg); ok {
				// Partially covered: buckets inside tr are folded; the scan
				// skips tuples in that window.
				exclude[li] = w
			}
		}
		scan = append(scan, li)
	}
	res.LeavesSkipped = len(leaves) - len(scan) - res.AggPushdown + res.LeavesSkipped
	s.m.AggPushdownLeaves.Add(int64(res.AggPushdown))
	s.m.AggBytesSaved.Add(float64(savedBytes))
	if len(scan) > 0 {
		bodies, err := s.fetchLeafBodies(ci, h, scan, res, sp)
		if err != nil {
			return err
		}
		scanSp := sp.StartChild("agg_scan")
		cols := chunk.BorrowColumns()
		defer chunk.ReturnColumns(cols)
		for pos, li := range scan {
			res.LeavesRead++
			var ex *model.TimeRange
			if w, ok := exclude[li]; ok {
				ex = &w
			}
			if err := h.AggregateLeaf(li, bodies[pos], cols, kr, tr, sq.Filter, ex, spec.Field, spec.CountOnly, agg); err != nil {
				err = fmt.Errorf("queryexec: chunk %d leaf %d: %w", ci.ID, li, err)
				scanSp.SetStr("error", err.Error())
				scanSp.End()
				return err
			}
		}
		scanSp.SetInt("leaves", int64(res.LeavesRead))
		scanSp.End()
		s.m.AggScannedLeaves.Add(int64(len(scan)))
	}
	sp.SetInt("agg_pushdown", int64(res.AggPushdown))
	return nil
}
