package cluster

import (
	"waterwheel/internal/ingest"
	"waterwheel/internal/model"
)

// registerHandles creates the counters and histograms the cluster itself
// feeds.
func (c *Cluster) registerHandles() {
	reg := c.reg
	c.ingestMetrics = ingest.Metrics{
		InsertNanos: reg.Histogram("waterwheel_ingest_insert_seconds",
			"sampled end-to-end insert latency on indexing servers"),
		FlushNanos: reg.Histogram("waterwheel_ingest_flush_seconds",
			"memtable flush latency (chunk build + DFS write + registration)"),
		BackpressureNanos: reg.Histogram("waterwheel_ingest_backpressure_seconds",
			"time threshold-crossing inserts spent blocked on a full flush queue"),
	}
	c.walAppends = reg.Counter("waterwheel_wal_appends_total", "records appended to WAL partitions")
	c.walAppendCalls = reg.Counter("waterwheel_wal_append_calls_total",
		"append calls on WAL partitions: one per indexing server a batch routes to, one per single insert")
	c.repartitions = reg.Counter("waterwheel_repartitions_total", "adaptive key repartitions installed")
	c.insertBatches = reg.Counter("waterwheel_insert_batches_total", "batches routed through InsertBatch")
	c.batchRecords = reg.Histogram("waterwheel_insert_batch_records",
		"tuples per InsertBatch call (unit: records, not seconds)")
	c.handoffs = reg.Counter("waterwheel_handoffs_total",
		"region ownership handoffs (takeovers and decommissions)")
	c.handoffLag = reg.Histogram("waterwheel_handoff_lag_records",
		"records the successor replays at an ownership flip: committed offset to partition head (unit: records, not seconds)")
	c.handoffPause = reg.Histogram("waterwheel_handoff_pause_seconds",
		"ingest-visible pause of a takeover: consumer detach until the successor's consumer is running")
}

// registerFuncMetrics bridges the cluster's always-on counters (ingest
// stats, DFS metrics, dispatcher/balancer state, caches) into the metric
// registry as read-at-exposition functions. The components keep their own
// race-safe atomics as the source of truth; the registry only samples them
// when scraped, so nothing is double-counted.
func (c *Cluster) registerFuncMetrics() {
	reg := c.reg

	// Ingestion path. The counters are Totals: cumulative over every
	// incarnation the process has run, not a sum over the ones serving now.
	reg.CounterFunc("waterwheel_ingest_tuples_total", "tuples accepted by indexing servers", c.Ingested)
	reg.CounterFunc("waterwheel_ingest_flushes_total", "memtable flushes to DFS chunks", func() int64 {
		return c.Totals().Flushes
	})
	reg.CounterFunc("waterwheel_ingest_flush_bytes_total", "chunk bytes written by flushes", func() int64 {
		return c.Totals().FlushBytes
	})
	reg.CounterFunc("waterwheel_ingest_flush_failures_total", "flushes that failed to write or register", func() int64 {
		return c.Totals().FlushFailures
	})
	reg.CounterFunc("waterwheel_ingest_side_routed_total", "very-late tuples admitted to side stores", func() int64 {
		return c.Totals().SideRouted
	})
	reg.CounterFunc("waterwheel_ingest_recovered_total", "tuples replayed from the WAL after crashes", c.Recovered)
	reg.CounterFunc("waterwheel_template_updates_total", "adaptive template rebuilds across memtable trees", func() int64 {
		return c.Totals().TemplateUpdates
	})
	reg.GaugeFunc("waterwheel_memtable_bytes", "bytes buffered in memtables (tree + side store)", func() float64 {
		return float64(c.MemBytes())
	})
	reg.GaugeFunc("waterwheel_memtable_tuples", "tuples buffered in memtables", func() float64 {
		return float64(c.MemLen())
	})
	reg.GaugeFunc("waterwheel_flush_queue_depth", "memtable snapshots swapped out but not yet registered as chunks", func() float64 {
		return float64(fold(c, 0, func(n, _ int, srv *ingest.Server) int { return n + srv.PendingFlushes() }))
	})
	reg.CounterFunc("waterwheel_ingest_backpressure_total", "threshold-crossing inserts that blocked on a full flush queue", func() int64 {
		return c.Totals().Backpressure
	})
	reg.GaugeFunc("waterwheel_skewness_max", "worst current template skewness S(P,D) across indexing servers", func() float64 {
		return fold(c, 0.0, func(worst float64, _ int, srv *ingest.Server) float64 {
			return max(worst, srv.SkewnessFactor())
		})
	})

	// Dispatch and adaptive partitioning.
	reg.CounterFunc("waterwheel_dispatched_total", "tuples routed by dispatchers", func() int64 {
		var n int64
		for _, d := range c.disp {
			n += int64(d.Dispatched())
		}
		return n
	})
	reg.GaugeFunc("waterwheel_partition_imbalance", "key-histogram imbalance at the last balancer run", c.bal.LastImbalance)
	reg.GaugeFunc("waterwheel_schema_version", "current key-partitioning schema version", func() float64 {
		return float64(c.ms.Schema().Version)
	})

	// Metadata and storage.
	reg.GaugeFunc("waterwheel_chunks", "chunks registered in the metadata R-tree", func() float64 {
		return float64(c.ms.ChunkCount())
	})
	reg.GaugeFunc("waterwheel_retired_pending_deletes", "retired chunk files parked until in-flight queries drain", func() float64 {
		return float64(c.ret.pending())
	})
	reg.CounterFunc("waterwheel_dfs_reads_total", "DFS read accesses", func() int64 {
		return c.fs.Metrics().Reads.Load()
	})
	reg.CounterFunc(`waterwheel_dfs_reads_by_locality_total{locality="local"}`, "DFS reads served by a co-located replica", func() int64 {
		return c.fs.Metrics().LocalReads.Load()
	})
	reg.CounterFunc(`waterwheel_dfs_reads_by_locality_total{locality="remote"}`, "DFS reads served by a remote replica", func() int64 {
		return c.fs.Metrics().RemoteReads.Load()
	})
	reg.CounterFunc("waterwheel_dfs_read_bytes_total", "bytes read from the DFS", func() int64 {
		return c.fs.Metrics().BytesRead.Load()
	})
	reg.CounterFunc("waterwheel_dfs_orphans_swept_total", "DFS files Open deleted because the replayed metadata does not name them: chunks whose registration a crash lost (replayed from the WAL), retired chunks, abandoned outputs", c.OrphansSwept)
	reg.CounterFunc("waterwheel_dfs_writes_total", "DFS write accesses", func() int64 {
		return c.fs.Metrics().Writes.Load()
	})
	reg.CounterFunc("waterwheel_dfs_write_bytes_total", "bytes written to the DFS", func() int64 {
		return c.fs.Metrics().BytesWrite.Load()
	})

	// WAL backlog: records appended but not yet applied to a memtable, the
	// ingestion pipeline's queue depth.
	reg.GaugeFunc("waterwheel_wal_backlog", "WAL records appended but not yet applied by their indexing server", func() float64 {
		return float64(fold(c, int64(0), func(lag int64, i int, srv *ingest.Server) int64 {
			return lag + max(0, c.log.Partition(i).Next()-srv.Consumed())
		}))
	})
	// The WAL's resident window: what the log holds on the heap, which a
	// flush commit cuts back to the unflushed suffix. It grows with the
	// backlog above, not with uptime.
	reg.GaugeFunc("waterwheel_wal_memory_records", "WAL records resident in memory (not yet released by a flush commit)", func() float64 {
		n := 0
		for i := 0; i < c.log.Partitions(); i++ {
			n += c.log.Partition(i).Len()
		}
		return float64(n)
	})
	reg.GaugeFunc("waterwheel_wal_memory_bytes", "payload bytes of the WAL records resident in memory", func() float64 {
		var n int64
		for i := 0; i < c.log.Partitions(); i++ {
			n += c.log.Partition(i).Bytes()
		}
		return float64(n)
	})
	reg.CounterFunc("waterwheel_ingest_replay_gaps_total", "consumers that refused to start because the WAL no longer held their replay offset", func() int64 {
		return c.Totals().ReplayGaps
	})
	// Page-cache exposure: segment bytes a host crash would lose. Zero
	// by construction while inserters are quiescent under ack-on-fsync.
	reg.GaugeFunc("waterwheel_wal_unsynced_bytes", "WAL segment bytes appended but not yet fsynced", func() float64 {
		var n int64
		for i := 0; i < c.log.Partitions(); i++ {
			n += c.log.Partition(i).UnsyncedBytes()
		}
		return float64(n)
	})
	// What the log costs on disk: bounded by the flush pipeline, a few bytes
	// after a Flush (0 without a DataDir).
	reg.GaugeFunc("waterwheel_wal_disk_bytes", "bytes in WAL segment files", func() float64 {
		var n int64
		for i := 0; i < c.log.Partitions(); i++ {
			n += c.log.Partition(i).DiskBytes()
		}
		return float64(n)
	})

	// Query-server caches.
	reg.GaugeFunc("waterwheel_cache_used_bytes", "bytes held by query-server LRU caches", func() float64 {
		var n int64
		for _, qs := range c.qsrv {
			n += qs.CacheMetrics().Used
		}
		return float64(n)
	})

	// Watermark: the largest event time observed, for stream-lag panels.
	reg.GaugeFunc("waterwheel_watermark_millis", "largest event timestamp observed by any indexing server", func() float64 {
		return float64(fold(c, model.Timestamp(0), func(hi model.Timestamp, _ int, srv *ingest.Server) model.Timestamp {
			return max(hi, srv.Watermark())
		}))
	})
}
