package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"waterwheel"
	"waterwheel/internal/model"
)

// counters is a point-in-time reading of everything the program counts,
// taken from outside through DB.Stats, the telemetry registry and the
// cluster's accessors.
type counters struct {
	stats waterwheel.Stats
	// tel holds counter and gauge values by series name; a histogram
	// contributes name#count and name#sum (nanoseconds).
	tel          map[string]float64
	backpressure int64
	cpu          time.Duration
	gcPauseNs    uint64
}

func takeCounters(sys *system) counters {
	c := counters{stats: sys.db.Stats(), tel: map[string]float64{}, cpu: cpuTime()}
	for _, m := range sys.db.Telemetry().Snapshot() {
		if m.Histogram != nil {
			c.tel[m.Name+"#count"] = float64(m.Histogram.Count)
			c.tel[m.Name+"#sum"] = float64(m.Histogram.Sum)
			continue
		}
		c.tel[m.Name] = m.Value
	}
	for _, srv := range sys.db.Cluster().IndexServers() {
		if srv == nil {
			continue
		}
		c.backpressure += srv.Stats().Backpressure.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs = ms.PauseTotalNs
	return c
}

// balanceCheck watches how the tuples written after set-up's rebalancing
// split between the two indexing servers.
type balanceCheck struct{ start []int64 }

func perServerIngested(sys *system) []int64 {
	var out []int64
	for _, srv := range sys.db.Cluster().IndexServers() {
		if srv != nil {
			out = append(out, srv.Stats().Ingested.Load())
		}
	}
	return out
}

func newBalanceCheck(sys *system) *balanceCheck {
	return &balanceCheck{start: perServerIngested(sys)}
}

// measure returns indexing server 0's share of the tuples ingested since
// the check was created and the imbalance max|n_i − mean| ÷ mean the
// balancer itself uses; ok is false when nothing was ingested.
func (bc *balanceCheck) measure(sys *system) (share0, imbalance float64, ok bool) {
	now := perServerIngested(sys)
	var total float64
	for i := range now {
		total += float64(now[i] - bc.start[i])
	}
	if total == 0 {
		return 0, 0, false
	}
	mean := total / float64(len(now))
	for i := range now {
		if d := math.Abs(float64(now[i]-bc.start[i])-mean) / mean; d > imbalance {
			imbalance = d
		}
	}
	return float64(now[0]-bc.start[0]) / total, imbalance, true
}

// check fails the run when the partitioning left by set-up is uneven: the
// numbers of an unbalanced deployment are not comparable. With two servers
// an imbalance of 0.2 is a 40/60 split.
func (bc *balanceCheck) check(b *bench, sys *system) {
	if share, imb, ok := bc.measure(sys); ok && imb > maxImbalance {
		b.fails.add("imbalance", fmt.Sprintf("partition imbalance %.3f: indexing server 0 took %.3f of the tuples", imb, share))
	}
}

// sampler polls gauges at 10 Hz during the measured phase of a traced run
// and keeps their maxima.
type sampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	max  map[string]float64
	// memRatio accumulates memtable bytes per buffered tuple.
	memRatioSum float64
	memRatioN   int
}

var sampledGauges = []string{
	"waterwheel_wal_backlog", "waterwheel_flush_queue_depth", "waterwheel_query_workers_busy",
	"waterwheel_skewness_max",
}

func startSampler(sys *system) *sampler {
	s := &sampler{quit: make(chan struct{}), max: map[string]float64{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.sample(sys)
			}
		}
	}()
	return s
}

func (s *sampler) sample(sys *system) {
	vals := map[string]float64{}
	for _, m := range sys.db.Telemetry().Snapshot() {
		if m.Histogram == nil {
			vals[m.Name] = m.Value
		}
	}
	for _, g := range sampledGauges {
		if v := vals[g]; v > s.max[g] {
			s.max[g] = v
		}
	}
	if n := vals["waterwheel_memtable_tuples"]; n >= 1000 {
		s.memRatioSum += vals["waterwheel_memtable_bytes"] / n
		s.memRatioN++
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if v := float64(ms.HeapInuse) / (1 << 20); v > s.max["heap_mb"] {
		s.max["heap_mb"] = v
	}
}

func (s *sampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// putFunc reports one metric of a run.
type putFunc func(name string, v float64)

// ratio reports num/den unless there was nothing to divide by, and q the
// q-quantile of vals, divided by div, unless there are no values: a metric
// with nothing behind it stays unreported, and the run fails where it was
// due.
func (put putFunc) ratio(name string, num, den float64) {
	if den != 0 {
		put(name, num/den)
	}
}

func (put putFunc) q(name string, vals []float64, q, div float64) {
	if len(vals) > 0 {
		put(name, quantile(sortedCopy(vals), q)/div)
	}
}

// layerCounters reports the per-layer metrics that come from counter and
// histogram deltas over the measured phase, the gauge sampler, and the
// harness's own latency samples. A quantile of no samples and a ratio over
// nothing are not reported: the run fails where the metric was due.
func layerCounters(put putFunc, sys *system, m *measured, before, after counters, smp *sampler, balance *balanceCheck) {
	d := func(name string) float64 { return after.tel[name] - before.tel[name] }
	// Histograms are observed in nanoseconds; scale converts the mean.
	putHistMean := func(name, series string, scale float64) {
		put.ratio(name, d(series+"#sum")/scale, d(series+"#count"))
	}
	tuples, queries := float64(m.tuples), float64(m.queries)
	st0, st1 := before.stats, after.stats

	put.q("net.insert_ack_ms_p95", m.writeTail, 0.95, 1)
	put.q("net.insert_ack_ms_p99", m.writeTail, 0.99, 1)
	put.q("net.insert_ack_ms_max", m.writeTail, 1, 1)
	put.q("net.insert1_ack_ms_p50", m.lat["insert1_ack"], 0.5, 1)

	put("dispatcher.dispatched", float64(st1.Dispatched-st0.Dispatched))
	if share0, imbalance, ok := balance.measure(sys); ok {
		put("dispatcher.partition_imbalance", imbalance)
		put("dispatcher.server0_share", share0)
	}
	put("dispatcher.repartitions", after.tel["waterwheel_repartitions_total"])

	put("wal.appends", d("waterwheel_wal_appends_total"))
	put("wal.fsyncs", d("waterwheel_wal_fsyncs_total"))
	// Batch sizes are observed as whole seconds, so the sum reads in records.
	putHistMean("wal.fsync_batch_records_mean", "waterwheel_wal_fsync_batch_records", 1e9)
	putHistMean("wal.commit_wait_ms_mean", "waterwheel_wal_commit_seconds", 1e6)
	put("wal.backlog_records_max", smp.max["waterwheel_wal_backlog"])
	put.ratio("wal.disk_bytes_per_user_byte", float64(dirBytes(filepath.Join(sys.dir, "wal"))), float64(sys.want*userBytesPerTuple))

	put.ratio("ingest.side_routed_share", float64(st1.SideRouted-st0.SideRouted), float64(st1.Ingested-st0.Ingested))
	put("ingest.flushes", float64(st1.Flushes-st0.Flushes))
	putHistMean("ingest.flush_ms_mean", "waterwheel_ingest_flush_seconds", 1e6)
	put("ingest.flush_queue_depth_max", smp.max["waterwheel_flush_queue_depth"])
	put("ingest.backpressure_s", d("waterwheel_ingest_backpressure_seconds#sum")/1e9)
	put("ingest.backpressure_events", float64(after.backpressure-before.backpressure))
	put("ingest.drain_to_visible_ms", ms(m.drainToVisible))
	put.ratio("ingest.memtable_bytes_per_tuple", smp.memRatioSum, float64(smp.memRatioN))
	put.q("ingest.visible_ms_p50", m.lat["visible"], 0.5, 1)
	put.q("ingest.visible_ms_p95", m.lat["visible"], 0.95, 1)

	put("core.template_updates", float64(st1.TemplateUpdates-st0.TemplateUpdates))
	put("core.skewness_max", smp.max["waterwheel_skewness_max"])

	leaves, skipped := d("waterwheel_chunk_leaves_read_total"), d("waterwheel_chunk_leaves_bloom_skipped_total")
	put.ratio("chunk.leaves_read_per_query", leaves, queries)
	put.ratio("chunk.bloom_skip_share", skipped, skipped+leaves)

	put("dfs.reads", float64(st1.DFSReads-st0.DFSReads))
	put.ratio("dfs.read_bytes_per_query", float64(st1.DFSReadBytes-st0.DFSReadBytes), queries)
	put("dfs.coalesced_reads", d("waterwheel_chunk_coalesced_reads_total"))
	put("dfs.writes", float64(st1.DFSWrites-st0.DFSWrites))
	put("dfs.write_bytes", float64(st1.DFSWriteBytes-st0.DFSWriteBytes))
	put.ratio("dfs.write_bytes_per_user_byte", float64(st1.DFSWriteBytes-st0.DFSWriteBytes), tuples*userBytesPerTuple)

	memSubs, chunkSubs := d("waterwheel_query_mem_subqueries_total"), d("waterwheel_query_chunk_subqueries_total")
	put.ratio("queryexec.subqueries_per_query", memSubs+chunkSubs, queries)
	put.ratio("queryexec.mem_subqueries_per_query", memSubs, queries)
	put("queryexec.redispatches", d("waterwheel_query_redispatches_total"))
	put("queryexec.workers_busy_max", smp.max["waterwheel_query_workers_busy"])
	metaChunks := d("waterwheel_agg_meta_chunks_total")
	pushdown, scanned := d("waterwheel_agg_pushdown_leaves_total"), d("waterwheel_agg_scanned_leaves_total")
	put.ratio("queryexec.agg_meta_chunks_share", metaChunks, metaChunks+float64(m.aggSubQueries))
	put.ratio("queryexec.agg_pushdown_leaves_share", pushdown, pushdown+scanned)
	put.q("queryexec.agg_ms_p50", m.lat["agg"], 0.5, 1)
	put.q("queryexec.query_ms_p95", m.readTail, 0.95, 1)
	put.q("queryexec.recent_query_ms_p50", m.read, 0.5, 1)
	put.q("queryexec.historical_query_ms_p50", m.lat["historical"], 0.5, 1)

	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	put.ratio("lru.hit_share", hits, hits+misses)
	put("lru.evictions", float64(st1.CacheEvictions-st0.CacheEvictions))
	put("lru.used_mb", float64(st1.CacheUsedBytes)/(1<<20))
	put("lru.singleflight_dedup", d("waterwheel_chunk_singleflight_dedup_total"))

	cpuUs := float64((after.cpu - before.cpu).Microseconds())
	put.ratio("proc.cpu_us_per_tuple", cpuUs, tuples)
	put.ratio("proc.cpu_ms_per_query", cpuUs/1e3, queries)
	put("proc.gc_pause_ms_total", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	put("proc.heap_peak_mb", smp.max["heap_mb"])
	put("proc.goroutines_end", float64(runtime.NumGoroutine()))
	put.q("loadgen.late_ms_p99", m.lateMs, 0.99, 1)
	put("loadgen.oracle_checked_ops", float64(m.checked))
	if len(m.tracedLat) > 0 && len(m.untracedLat) > 0 {
		put("loadgen.trace_overhead_share", median(m.tracedLat)/median(m.untracedLat)-1)
	}
}

// layerSpans reports the queryexec self times: for every traced range
// query, the self time of each span name summed over the query's tree, then
// averaged over queries (means add up to the mean op span; medians would
// not).
func layerSpans(put putFunc, spans []span) {
	self := selfTimes(spans)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// opOf resolves the harness op span a program span belongs to.
	opOf := func(s *span) *span {
		for s.Parent != 0 {
			p := byID[s.Parent]
			if p == nil {
				return nil
			}
			if p.Name == "op" {
				return p
			}
			s = p
		}
		return nil
	}
	sum := map[string]float64{}
	slowest := map[int64]int64{}
	ops, opTotal := 0, 0.0
	for i := range spans {
		s := &spans[i]
		if s.Name == "query" {
			if op := byID[s.Parent]; op != nil && op.Name == "op" {
				ops++
				opTotal += float64(op.End - op.Start)
				sum["op"] += float64(self[op.ID])
			}
		}
		if s.Name == "op" || s.Parent == 0 {
			continue
		}
		op := opOf(s)
		if op == nil {
			continue
		}
		sum[s.Name] += float64(self[s.ID])
		if s.Name == "chunk_subquery" || s.Name == "mem_subquery" {
			if d := s.End - s.Start; d > slowest[op.ID] {
				slowest[op.ID] = d
			}
		}
	}
	if ops == 0 {
		return
	}
	// A span name that never occurred is not reported.
	explained := 0.0
	for _, sm := range []struct{ span, metric string }{
		{"op", "net.query_self_us"},
		{"query", "queryexec.query_self_us"},
		{"decompose", "queryexec.decompose_us"},
		{"dispatch", "queryexec.dispatch_self_us"},
		{"mem_subquery", "queryexec.mem_subquery_us"},
		{"chunk_subquery", "queryexec.chunk_subquery_us"},
		{"chunk_open", "queryexec.chunk_open_us"},
		{"leaf_read", "queryexec.leaf_read_us"},
		{"scan", "queryexec.scan_us"},
		{"merge", "queryexec.merge_us"},
	} {
		if total, ok := sum[sm.span]; ok {
			put(sm.metric, total/float64(ops)/1e3)
			explained += total
		}
	}
	var slow float64
	for _, d := range slowest {
		slow += float64(d)
	}
	put("queryexec.slowest_subquery_us", slow/float64(ops)/1e3)
	put("loadgen.trace_coverage_share", explained/opTotal)
}

// fillCaches loads every leaf of every chunk into the cache of each query
// server: any server may take any chunk subquery, so each one runs a
// filtered COUNT subquery (which metadata cannot answer) over every chunk.
// The counts double as a check of the flushed history.
func (b *bench) fillCaches(sys *system) error {
	cl := sys.db.Cluster()
	chunks := cl.Metadata().ChunksFor(model.FullRegion())
	for _, qs := range cl.QueryServers() {
		var count uint64
		for _, ci := range chunks {
			res, err := qs.ExecuteSubQuery(&model.SubQuery{
				Region: model.FullRegion(), Filter: model.True(), Chunk: ci.ID,
				ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen,
				Agg: &model.AggSpec{CountOnly: true},
			})
			if err != nil {
				return fmt.Errorf("ledger: cache fill: %w", err)
			}
			count += res.Agg.Count
		}
		if int64(count) != sys.want {
			return fmt.Errorf("ledger: cache fill on query server %d counted %d tuples, want %d", qs.ID(), count, sys.want)
		}
	}
	return nil
}

// spotCheck verifies what the ingest workload wrote, which its measured
// phase never reads: checkQueries range queries and aggregates over the
// whole ingested stream, each compared with the oracle.
func (b *bench) spotCheck(sys *system, st *stream) int64 {
	n := sys.histN
	ops := genQueryOps(b.pool.span, b.cfg.seed*31+3, checkQueries, st.base, st.base+n)
	var out connQueries
	for i := range ops {
		op := &ops[i]
		_, res := b.execQuery(sys, 0, nil, op, int64(i), int64(i), time.Now(), &out, op.class())
		b.attempted.Add(1)
		if res == nil {
			continue
		}
		if bad := resultOK(res.Tuples, op.region); bad != "" {
			b.fails.add(bad, op.region.String())
			continue
		}
		out.checks = append(out.checks, check{op: *op, got: digestOf(res.Tuples)})
	}
	return b.verify(st, n, out.checks)
}
