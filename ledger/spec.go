package main

import (
	"encoding/json"
)

// runSeconds is the measured phase's length in a driver run.
const runSeconds = 10

// Workload sets a per-layer metric can be declared for.
var (
	writers   = []string{"ingest", "mixed"}                   // the measured phase inserts
	readers   = []string{"query_cold", "query_warm", "mixed"} // the measured phase queries
	queryOnly = []string{"query_cold", "query_warm"}
	mixedOnly = []string{"mixed"}
)

// metricSpec names one metric. Bound applies to end-to-end metrics only:
// the share of the parent's median by which the metric may get worse.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// On lists the workloads whose traced run measures a per-layer metric;
	// nil means every workload. Elsewhere the metric is reported as 0
	// because the result must carry every name; where it is declared and the
	// run did not produce it, the run fails (missing_metric).
	On []string
	// Moves documents a per-layer metric (its layer is its name's prefix):
	// which end-to-end metric, on which workload, it should move. The
	// traced run's report prints it; README.md carries the same table.
	Moves string
}

func (s metricSpec) on(workload string) bool {
	if s.On == nil {
		return true
	}
	for _, w := range s.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd lists what a user of the system sees. The result must carry
// every metric on every workload, so two names are generic and the workload
// fixes what they mean:
//
//	             throughput_per_s                         op_ms_p50, send to reply
//	ingest       tuples made visible per second           256-tuple InsertBatch round trip
//	query_*      queries answered per second              tuple-returning range query
//	mixed        tuples per second in batches acked       the open-loop writer's 256-tuple InsertBatch
//	             before the next batch was due
//
// mixed's offered rate is fixed, so its throughput is the share of it the
// system takes without queueing: it counts from each batch's due time, and
// with it the wait a stall imposes on the batches behind it. The reader's
// medians in mixed did not repeat within any bound the contract allows and
// are per-layer metrics (README.md, "Bounds").
//
// Bounds: stored bytes keep the issue's 2 %. The wall-clock metrics carry
// the contract's ceiling, not the issue's 10-15 %: on the 2-core guest the
// baseline was taken on, identical code repeats with an interquartile range
// of 4-17 % of the median, the driver refuses a benchmark whose spread
// exceeds its own bound, and below 25 % that is what would happen.
// live_heap_mb follows throughput on ingest (the WAL keeps what it was given)
// and gets 20 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer lists the single-layer metrics of the traced run. Sources: a
// counter or histogram delta over the measured phase (or a 10 Hz gauge
// sampler), span self times from QueryTraced trees, and layer legs that
// replay the run's own inputs through one exported function.
var perLayer = []metricSpec{
	// net: net.go + internal/transport
	{Name: "net.insert_overhead_us", Unit: "us", Better: "lower", Moves: "op_ms_p50, throughput_per_s @ ingest"},
	{Name: "net.query_overhead_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ query_warm (large results); flat @ query_cold"},
	{Name: "net.query_self_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_warm"},
	{Name: "net.insert_ack_ms_p95", Unit: "ms", Better: "lower", On: writers, Moves: "the p95 beside op_ms_p50 @ ingest, mixed (from the due time): the write tail"},
	{Name: "net.insert_ack_ms_p99", Unit: "ms", Better: "lower", On: writers, Moves: "net.insert_ack_ms_p95"},
	{Name: "net.insert_ack_ms_max", Unit: "ms", Better: "lower", On: writers, Moves: "net.insert_ack_ms_p95"},
	{Name: "net.insert1_ack_ms_p50", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "batch-of-one ack @ mixed"},
	// model
	{Name: "model.encode_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest (client side)"},
	{Name: "model.decode_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest"},
	{Name: "model.merge_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "queryexec.query_ms_p95 @ query_warm"},
	// dispatcher
	{Name: "dispatcher.dispatch_batch_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest"},
	{Name: "dispatcher.dispatch_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "net.insert1_ack_ms_p50 @ mixed"},
	{Name: "dispatcher.dispatched", Unit: "count", Better: "higher", Moves: "equals tuples written"},
	{Name: "dispatcher.partition_imbalance", Unit: "ratio", Better: "lower", Moves: "above 0.2 (a 40/60 split) the run is invalid"},
	{Name: "dispatcher.server0_share", Unit: "share", Better: "lower", Moves: "indexing server 0's share of the tuples since rebalancing"},
	{Name: "dispatcher.repartitions", Unit: "count", Better: "lower", Moves: "set-up rounds; setup_s"},
	// wal
	{Name: "wal.append_batch_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s, op_ms_p50 @ ingest"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Moves: "net.insert1_ack_ms_p50 @ mixed"},
	{Name: "wal.append_fsync_us_p50", Unit: "us", Better: "lower", Moves: "the fsync-acked append, which no workload runs end to end"},
	{Name: "wal.read_ns_per_record", Unit: "ns", Better: "lower", Moves: "ingest.visible_ms_p50 @ mixed; throughput_per_s @ ingest"},
	{Name: "wal.appends", Unit: "count", Better: "higher", Moves: "equals tuples written"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower", Moves: "net.insert_ack_ms_p95 @ mixed"},
	{Name: "wal.fsync_batch_records_mean", Unit: "count", Better: "higher", On: writers, Moves: "net.insert_ack_ms_p95 @ mixed"},
	{Name: "wal.commit_wait_ms_mean", Unit: "ms", Better: "lower", On: writers, Moves: "net.insert_ack_ms_p95 @ mixed"},
	{Name: "wal.backlog_records_max", Unit: "count", Better: "lower", Moves: "ingest.visible_ms_* @ mixed; throughput_per_s @ ingest"},
	{Name: "wal.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "stored_bytes_per_user_byte"},
	// ingest
	{Name: "ingest.insert_batch_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest; ingest.visible_ms_p50 @ mixed"},
	{Name: "ingest.mem_subquery_us", Unit: "us", Better: "lower", Moves: "queryexec.recent_query_ms_p50 @ mixed"},
	{Name: "ingest.side_routed_share", Unit: "share", Better: "lower", On: writers, Moves: "flat; the generator fixes it"},
	{Name: "ingest.flushes", Unit: "count", Better: "lower", Moves: "throughput_per_s @ ingest"},
	{Name: "ingest.flush_ms_mean", Unit: "ms", Better: "lower", On: writers, Moves: "throughput_per_s @ ingest"},
	{Name: "ingest.flush_queue_depth_max", Unit: "count", Better: "lower", Moves: "net.insert_ack_ms_p99 @ ingest"},
	{Name: "ingest.backpressure_s", Unit: "s", Better: "lower", Moves: "net.insert_ack_ms_p99 @ ingest; net.insert_ack_ms_p95 @ mixed"},
	{Name: "ingest.backpressure_events", Unit: "count", Better: "lower", Moves: "as backpressure_s"},
	{Name: "ingest.drain_to_visible_ms", Unit: "ms", Better: "lower", On: writers, Moves: "throughput_per_s @ ingest"},
	{Name: "ingest.memtable_bytes_per_tuple", Unit: "B", Better: "lower", On: writers, Moves: "live_heap_mb @ ingest"},
	{Name: "ingest.visible_ms_p50", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "ack to first query returning the tuple @ mixed"},
	{Name: "ingest.visible_ms_p95", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "ack to first query returning the tuple @ mixed"},
	// core
	{Name: "core.insert_batch_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest; flat @ query_*"},
	{Name: "core.insert_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "net.insert1_ack_ms_p50 @ mixed"},
	{Name: "core.range_cols_ns_per_result", Unit: "ns", Better: "lower", Moves: "queryexec.recent_query_ms_p50 @ mixed; flat @ query_*"},
	{Name: "core.flush_reset_us", Unit: "us", Better: "lower", Moves: "net.insert_ack_ms_p99 @ ingest"},
	{Name: "core.template_updates", Unit: "count", Better: "lower", Moves: "net.insert_ack_ms_p99 @ ingest"},
	{Name: "core.skewness_max", Unit: "ratio", Better: "lower", Moves: "core.template_updates"},
	// chunk
	{Name: "chunk.build_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "throughput_per_s @ ingest (the flusher shares the cores)"},
	{Name: "chunk.parse_header_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ query_cold"},
	{Name: "chunk.select_leaves_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ query_cold, query_warm"},
	{Name: "chunk.decode_columns_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "op_ms_p50, throughput_per_s @ query_cold; less @ query_warm"},
	{Name: "chunk.scan_leaf_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "op_ms_p50, throughput_per_s @ query_cold, query_warm"},
	{Name: "chunk.agg_fold_leaf_ns", Unit: "ns", Better: "lower", Moves: "queryexec.agg_ms_p50 @ query_*"},
	{Name: "chunk.bytes_per_tuple", Unit: "B", Better: "lower", Moves: "stored_bytes_per_user_byte; dfs.read_bytes_per_query"},
	{Name: "chunk.leaves_read_per_query", Unit: "count", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_*"},
	{Name: "chunk.bloom_skip_share", Unit: "share", Better: "higher", On: readers, Moves: "chunk.leaves_read_per_query"},
	// dfs
	{Name: "dfs.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "ingest.flush_ms_mean -> throughput_per_s @ ingest"},
	{Name: "dfs.read_at_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50, throughput_per_s @ query_cold; flat @ query_warm"},
	{Name: "dfs.reads", Unit: "count", Better: "lower", Moves: "op_ms_p50 @ query_cold; about 0 @ query_warm"},
	{Name: "dfs.read_bytes_per_query", Unit: "B", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_cold"},
	{Name: "dfs.coalesced_reads", Unit: "count", Better: "lower", Moves: "dfs.reads"},
	{Name: "dfs.writes", Unit: "count", Better: "lower", Moves: "ingest.flushes"},
	{Name: "dfs.write_bytes", Unit: "B", Better: "lower", Moves: "stored_bytes_per_user_byte"},
	{Name: "dfs.write_bytes_per_user_byte", Unit: "ratio", Better: "lower", On: writers, Moves: "stored_bytes_per_user_byte @ ingest"},
	// meta
	{Name: "meta.register_chunks_us", Unit: "us", Better: "lower", Moves: "ingest.flush_ms_mean"},
	{Name: "meta.chunks_for_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ query_warm"},
	{Name: "meta.snapshot_ms", Unit: "ms", Better: "lower", Moves: "ingest.flush_ms_mean"},
	{Name: "meta.chunks", Unit: "count", Better: "lower", Moves: "meta.chunks_for_us, rtree.search_us"},
	// rtree
	{Name: "rtree.search_us", Unit: "us", Better: "lower", Moves: "op_ms_p50, queryexec.agg_ms_p50 @ query_warm"},
	{Name: "rtree.insert_us", Unit: "us", Better: "lower", Moves: "meta.register_chunks_us"},
	// queryexec
	{Name: "queryexec.query_self_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_warm"},
	{Name: "queryexec.decompose_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_warm"},
	{Name: "queryexec.dispatch_self_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_warm"},
	{Name: "queryexec.mem_subquery_us", Unit: "us", Better: "lower", On: mixedOnly, Moves: "queryexec.recent_query_ms_p50 @ mixed"},
	{Name: "queryexec.chunk_subquery_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_*"},
	{Name: "queryexec.chunk_open_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_cold"},
	{Name: "queryexec.leaf_read_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_cold"},
	{Name: "queryexec.scan_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_cold, query_warm"},
	{Name: "queryexec.merge_us", Unit: "us", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_warm"},
	{Name: "queryexec.slowest_subquery_us", Unit: "us", Better: "lower", On: readers, Moves: "queryexec.query_ms_p95 @ query_cold (a query waits for its slowest part)"},
	{Name: "queryexec.subqueries_per_query", Unit: "count", Better: "lower", On: readers, Moves: "op_ms_p50 @ query_*"},
	{Name: "queryexec.mem_subqueries_per_query", Unit: "count", Better: "lower", On: readers, Moves: "queryexec.recent_query_ms_p50 @ mixed"},
	{Name: "queryexec.redispatches", Unit: "count", Better: "lower", Moves: "0 unless a query server fails"},
	{Name: "queryexec.workers_busy_max", Unit: "count", Better: "lower", Moves: "queryexec.query_ms_p95 @ query_cold"},
	{Name: "queryexec.agg_meta_chunks_share", Unit: "share", Better: "higher", On: queryOnly, Moves: "queryexec.agg_ms_p50"},
	{Name: "queryexec.agg_pushdown_leaves_share", Unit: "share", Better: "higher", On: queryOnly, Moves: "queryexec.agg_ms_p50"},
	{Name: "queryexec.agg_ms_p50", Unit: "ms", Better: "lower", On: queryOnly, Moves: "aggregate round trip @ query_*"},
	{Name: "queryexec.query_ms_p95", Unit: "ms", Better: "lower", On: readers, Moves: "the range query's p95 @ query_*, the recent query's from its due time @ mixed: the read tail"},
	{Name: "queryexec.recent_query_ms_p50", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "recent-window query beside the writer, send to reply @ mixed"},
	{Name: "queryexec.historical_query_ms_p50", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "historical query beside the writer @ mixed"},
	// lru
	{Name: "lru.hit_share", Unit: "share", Better: "higher", On: readers, Moves: "op_ms_p50, throughput_per_s @ query_cold; about 1 @ query_warm"},
	{Name: "lru.evictions", Unit: "count", Better: "lower", Moves: "queryexec.query_ms_p95 @ query_cold, mixed"},
	{Name: "lru.used_mb", Unit: "MB", Better: "lower", Moves: "live_heap_mb"},
	{Name: "lru.singleflight_dedup", Unit: "count", Better: "higher", Moves: "dfs.reads @ query_cold"},
	// proc and loadgen: the benchmark's own process and generator
	{Name: "proc.cpu_us_per_tuple", Unit: "us", Better: "lower", On: writers, Moves: "throughput_per_s @ ingest; the efficiency behind it"},
	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: "lower", On: readers, Moves: "throughput_per_s @ query_*; the efficiency behind it"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "net.insert_ack_ms_p95, queryexec.query_ms_p95"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "VmHWM of the whole run: live_heap_mb plus what the collector had not yet freed"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "live_heap_mb"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower", Moves: "a leak shows here"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", On: mixedOnly, Moves: "how late the open loops sent; charged to the delayed operations"},
	{Name: "loadgen.gen_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "proc.cpu_us_per_tuple (the generator's share)"},
	{Name: "loadgen.oracle_checked_ops", Unit: "count", Better: "higher", Moves: "coverage of the oracle"},
	{Name: "loadgen.trace_overhead_share", Unit: "share", Better: "lower", Moves: "traced over untraced op latency, same run, minus 1"},
	{Name: "loadgen.trace_coverage_share", Unit: "share", Better: "higher", On: readers, Moves: "share of the op span the queryexec and net self times explain"},
}

var specByName = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, s := range endToEnd {
		m[s.Name] = s
	}
	for _, s := range perLayer {
		m[s.Name] = s
	}
	return m
}()

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift (the smoke test compares them).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "ledger/run.sh"},
		Paths:      []string{"ledger"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadOrder {
		doc.Workloads = append(doc.Workloads, wl{Name: name, Why: workloads[name].why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is static
	}
	return append(out, '\n')
}
