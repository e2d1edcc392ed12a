package waterwheel

// This file holds one regeneration target per table and figure of the
// paper's evaluation (§VI), as indexed in DESIGN.md §4. Test* targets run
// the experiment harness at a reduced scale and log the resulting table;
// Benchmark* targets measure the underlying operation with testing.B.
// Full-scale tables come from `go run ./cmd/wwbench -experiment all`.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/baseline"
	"waterwheel/internal/bench"
	"waterwheel/internal/chunk"
	"waterwheel/internal/cluster"
	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// runExperiment executes a harness experiment and logs its table.
func runExperiment(t *testing.T, id string, scale float64) {
	t.Helper()
	rep, err := bench.Run(id, bench.Options{Scale: scale, Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	t.Logf("\n%s", rep)
}

// coldCaches empties every query server's cache the way retirement does:
// chunk by chunk.
func coldCaches(c *cluster.Cluster) {
	for _, ci := range c.Metadata().ChunksFor(model.FullRegion()) {
		for _, qs := range c.QueryServers() {
			qs.EvictChunk(ci.ID)
		}
	}
}

// --- Table I ---

func TestTable1Capabilities(t *testing.T) { runExperiment(t, "table1", 0.1) }

// --- Figure 7: the three B+ trees ---

func BenchmarkFig7aInsertThroughput(b *testing.B) {
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 1})
	// Fixed-size working set: the parent benchmark body runs with b.N == 1,
	// so sizing this buffer by b.N fed every sub-benchmark iteration the
	// same single tuple — a degenerate hot-key stream.
	tuples := make([]model.Tuple, 200_000)
	for i := range tuples {
		tuples[i] = g.Next()
	}
	for name, mk := range map[string]func() baseline.Index{
		"template": func() baseline.Index {
			return baseline.Template{TemplateTree: core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 1024})}
		},
		"concurrent": func() baseline.Index { return baseline.NewConcurrentTree(0, 0) },
		"bulk":       func() baseline.Index { return baseline.NewBulkTree(0, 0) },
	} {
		b.Run(name, func(b *testing.B) {
			idx := mk()
			sub := tuples
			if b.N < len(sub) {
				sub = sub[:b.N]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Insert(sub[i%len(sub)])
			}
			if bt, ok := idx.(*baseline.BulkTree); ok {
				bt.Build()
			}
		})
	}
}

func TestFig7aInsertScaling(t *testing.T) { runExperiment(t, "fig7a", 0.1) }
func TestFig7bBreakdown(t *testing.T)     { runExperiment(t, "fig7b", 0.1) }

// --- Figures 8/9: mixed workloads ---

func BenchmarkFig8Mixed(b *testing.B) {
	for _, frac := range []float64{1.0, 0.75, 0.5} {
		b.Run(fmt.Sprintf("insert%.0f%%", frac*100), func(b *testing.B) {
			tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 512})
			g := workload.NewTDrive(workload.TDriveConfig{Seed: 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := g.Next()
				if float64(i%100)/100 < frac {
					tree.Insert(tp)
				} else {
					tree.RangeCols(model.KeyRange{Lo: tp.Key, Hi: tp.Key}, model.FullTimeRange(), nil,
						func(model.Key, model.Timestamp, []byte) bool { return true })
				}
			}
		})
	}
}

func BenchmarkFig9MixedRead(b *testing.B) {
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 512})
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 3})
	keys := make([]model.Key, 100_000)
	for i := range keys {
		tp := g.Next()
		keys[i] = tp.Key
		tree.Insert(tp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		tree.RangeCols(model.KeyRange{Lo: k, Hi: k}, model.FullTimeRange(), nil,
			func(model.Key, model.Timestamp, []byte) bool { return true })
	}
}

func TestFig8MixedThroughput(t *testing.T) { runExperiment(t, "fig8", 0.05) }
func TestFig9MixedLatency(t *testing.T)    { runExperiment(t, "fig9", 0.05) }

// --- Figure 10: template update latency ---

func BenchmarkFig10TemplateUpdate(b *testing.B) {
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 4})
	tuples := make([]model.Tuple, 100_000)
	for i := range tuples {
		tuples[i] = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 1024})
		for j := range tuples {
			tree.Insert(tuples[j])
		}
		b.StartTimer()
		tree.UpdateTemplate()
	}
}

func TestFig10TemplateUpdateLatency(t *testing.T) { runExperiment(t, "fig10", 0.1) }

// --- Figure 11: chunk size effects ---

func TestFig11aChunkSizeInsert(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig11a", 0.05)
}

func TestFig11bChunkSizeQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig11b", 0.2)
}

// --- Figure 12: adaptive key partitioning ---

func TestFig12aAdaptivePartitionInsert(t *testing.T) { runExperiment(t, "fig12a", 0.05) }
func TestFig12bAdaptivePartitionQuery(t *testing.T)  { runExperiment(t, "fig12b", 0.05) }

// --- Figure 13: subquery dispatch policies ---

func TestFig13DispatchPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig13", 0.03)
}

// --- Figures 14/15/16: overall comparison ---

func TestFig14QueryLatencyNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig14", 0.03)
}

func TestFig15InsertComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig15", 0.05)
}

func TestFig16QueryLatencyTDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "fig16", 0.03)
}

// --- Figure 17: scalability ---

func TestFig17Scalability(t *testing.T) { runExperiment(t, "fig17", 0.05) }

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationBloom(b *testing.B) {
	// Chunk-leaf selection with and without time sketches on a chunk whose
	// tuples arrive in two time bursts: min/max bounds cannot prune queries
	// into the gap; the sketches can.
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 256})
	for i := 0; i < 200_000; i++ {
		t := model.Timestamp(i % 10_000)
		if i%2 == 1 {
			t += 10_000_000
		}
		tree.Insert(model.Tuple{Key: model.Key(i % (1 << 20)), Time: t})
	}
	data, _, err := chunk.Build(tree.FlushReset(), chunk.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := chunk.ParseHeader(data)
	if err != nil {
		b.Fatal(err)
	}
	gap := model.TimeRange{Lo: 5_000_000, Hi: 5_010_000} // inside the silent gap
	for _, useBloom := range []bool{true, false} {
		name := "bloom-on"
		if !useBloom {
			name = "bloom-off"
		}
		b.Run(name, func(b *testing.B) {
			kept := 0
			for i := 0; i < b.N; i++ {
				read, _ := h.SelectLeaves(model.FullKeyRange(), gap, useBloom)
				kept += len(read)
			}
			b.ReportMetric(float64(kept)/float64(b.N), "leaves-kept/op")
		})
	}
}

func BenchmarkAblationTemplate(b *testing.B) {
	// Flush+refill cost with the template retained vs rebuilt.
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 5})
	tuples := make([]model.Tuple, 50_000)
	for i := range tuples {
		tuples[i] = g.Next()
	}
	for _, reuse := range []bool{true, false} {
		name := "reuse"
		if !reuse {
			name = "rebuild"
		}
		b.Run(name, func(b *testing.B) {
			tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 512})
			for i := 0; i < b.N; i++ {
				for j := range tuples {
					tree.Insert(tuples[j])
				}
				tree.FlushReset()
				if !reuse {
					tree.UpdateTemplate()
				}
			}
		})
	}
}

func TestAblationBloom(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "ablation-bloom", 0.03)
}

func TestAblationTemplateSystem(t *testing.T) { runExperiment(t, "ablation-template", 0.05) }

func TestAblationLADAComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "ablation-lada", 0.03)
}

func TestAblationSideStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated I/O sleeps")
	}
	runExperiment(t, "ablation-sidestore", 0.03)
}

// --- insert tail latency: the async flush pipeline's headline number ---

// BenchmarkInsertTailLatency measures per-Insert latency on a single
// goroutine driving an indexing server across many flush thresholds,
// reporting the max and p99.9 — the numbers the asynchronous flush
// pipeline exists to move: a threshold-crossing Insert pays only the
// leaf-layer swap, never the chunk build or the DFS write. The DFS models
// a slow write path (2 MiB/s) so any inline cost would be clearly visible.
// The flush queue is sized to hold the whole run so the benchmark measures
// hot-path cost rather than DFS bandwidth — with a bounded queue and an
// offered rate beyond DFS bandwidth, inserts must degrade to the write
// stall, by backpressure design (see TestBackpressureBoundsQueue for that
// regime). The one sub-benchmark keeps the name earlier results were
// recorded under.
func BenchmarkInsertTailLatency(b *testing.B) {
	b.Run("async", func(b *testing.B) {
		fs := dfs.New(dfs.Config{
			Nodes: 3, Replication: 2, Seed: 1,
			Latency: dfs.LatencyModel{WriteBytesPerSec: 2 << 20},
		})
		ms := meta.NewServer(1)
		srv := ingest.NewServer(ingest.Config{
			ID:                  0,
			ChunkBytes:          64 << 10, // ~800 inserts per flush
			Leaves:              64,
			FlushQueueDepth:     b.N*80/(64<<10) + 4, // absorb every flush in the run
			SideThresholdMillis: -1,
		}, fs, ms, 0)
		defer srv.Close()
		payload := make([]byte, 64)
		lat := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			srv.Insert(model.Tuple{
				Key:     model.Key(uint64(i) * 2654435761),
				Time:    model.Timestamp(1000 + i),
				Payload: payload,
			})
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		srv.DrainFlushes()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds()), "max-ns")
		b.ReportMetric(float64(lat[len(lat)*999/1000].Nanoseconds()), "p99.9-ns")
	})
}

// --- insert ack durability: group commit vs fsync-per-insert ---

// BenchmarkInsertAckOnFsync prices the ack-durability policies on the
// public API over a disk-backed WAL. "ack-on-write" is the default fast
// path (acked after the OS-level write, crash-durable only after the next
// fsync); "ack-on-fsync" parks concurrent inserters on the committer's
// fsync cohorts (group commit), so the per-ack fsync cost is amortized
// across however many inserts arrived while the previous fsync was in
// flight; "ack-on-fsync-serial" is the naive one-fsync-per-insert
// baseline the committer amortizes away — on a single goroutine every
// cohort has exactly one member. The acceptance bar for the group-commit
// pipeline: at 8+ concurrent inserters, ack-on-fsync stays within 5x of
// ack-on-write. The parallel legs run 32 inserter goroutines: cohorts
// split across the WAL partitions and the device serializes concurrent
// fsyncs at its journal, so wide cohorts are where the amortization is
// visible.
func BenchmarkInsertAckOnFsync(b *testing.B) {
	for _, mode := range []struct {
		name       string
		durability string
		parallel   bool
	}{
		{"ack-on-write-parallel32", "", true},
		{"ack-on-fsync-parallel32", "ack-on-fsync", true},
		{"ack-on-fsync-serial", "ack-on-fsync", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := Open(Options{
				DataDir:    b.TempDir(),
				Durability: mode.durability,
				ChunkBytes: 64 << 20,
				Seed:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			payload := make([]byte, 64)
			var seq atomic.Uint64
			insert := func() {
				i := seq.Add(1)
				if err := db.Insert(Tuple{
					Key:     model.Key(i * 0x9E3779B97F4A7C15),
					Time:    model.Timestamp(1000 + i),
					Payload: payload,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			if mode.parallel {
				// 32 inserter goroutines at GOMAXPROCS=1; scales with procs.
				b.SetParallelism(32)
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						insert()
					}
				})
			} else {
				for i := 0; i < b.N; i++ {
					insert()
				}
			}
		})
	}
}

// --- parallel read path: cold multi-chunk queries ---

// queryBenchCluster builds a flush-heavy deployment for the read-path
// benchmarks: one indexing server, two query servers, ~20 small chunks,
// and a fixed per-access DFS open delay so read parallelism is visible as
// wall-clock time (an HDFS-like open dominates small chunk reads).
func queryBenchCluster(b *testing.B, workers, inflight int, openDelay time.Duration, cacheBytes int64) *cluster.Cluster {
	b.Helper()
	c := cluster.New(cluster.Config{
		Nodes:               1,
		IndexServersPerNode: 1,
		QueryServersPerNode: 2,
		DispatchersPerNode:  1,
		ChunkBytes:          64 << 10,
		CacheBytes:          cacheBytes,
		Seed:                1,
		DFSLatency:          dfs.LatencyModel{OpenMin: openDelay, OpenMax: openDelay},
		QueryWorkers:        workers,
		QueryInflightReads:  inflight,
	})
	c.Start()
	payload := make([]byte, 48)
	for i := 0; i < 18_000; i++ { // ~80 B/tuple vs 64 KiB chunks -> ~20 chunks
		c.Insert(model.Tuple{
			// Fibonacci hashing spreads keys over the whole uint64 domain
			// so key-range queries of any placement hit data.
			Key:     model.Key(uint64(i) * 0x9E3779B97F4A7C15),
			Time:    model.Timestamp(1000 + i),
			Payload: payload,
		})
	}
	c.Drain()
	c.FlushAll()
	return c
}

// BenchmarkColdMultiChunkQuery is the parallel dispatch engine's headline
// number: one full-range query fanning out over ~20 chunks on 2 query
// servers with every cache cleared first, so each subquery pays the
// modeled DFS open delay. serial pins Workers=1 + InflightReads=1 (the
// old engine's behavior); parallel uses the defaults.
func BenchmarkColdMultiChunkQuery(b *testing.B) {
	for _, mode := range []struct {
		name              string
		workers, inflight int
	}{{"serial", 1, 1}, {"parallel", 0, 0}} {
		b.Run(mode.name, func(b *testing.B) {
			c := queryBenchCluster(b, mode.workers, mode.inflight, 2*time.Millisecond, 1<<30)
			defer c.Stop()
			q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coldCaches(c)
				b.StartTimer()
				res, err := c.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tuples) != 18_000 {
					b.Fatalf("got %d tuples, want 18000", len(res.Tuples))
				}
			}
		})
	}
}

// BenchmarkConcurrentQueryThroughput drives many concurrent key-range
// queries through the coordinator with a cache too small to hold the
// working set, so queries keep missing and the per-server worker pools,
// inflight bound and single-flight all stay on the hot path.
func BenchmarkConcurrentQueryThroughput(b *testing.B) {
	for _, mode := range []struct {
		name              string
		workers, inflight int
	}{{"workers-1", 1, 1}, {"workers-default", 0, 0}} {
		b.Run(mode.name, func(b *testing.B) {
			c := queryBenchCluster(b, mode.workers, mode.inflight, 200*time.Microsecond, 128<<10)
			defer c.Stop()
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					lo := model.Key((i * 0x9e3779b97f4a7c15) % (1 << 62))
					res, err := c.Query(model.Query{
						Keys:  model.KeyRange{Lo: lo, Hi: lo + 1<<59},
						Times: model.FullTimeRange(),
					})
					if err != nil {
						b.Fatal(err)
					}
					_ = res
				}
			})
		})
	}
}

// --- vectorized batch ingest: one call per batch from wire to leaf ---

// BenchmarkInsertBatchThroughput prices the batch pipeline at the two
// layers the vectorization touches. The "tree" legs drive
// TemplateTree.InsertBatch with the same workload and leaf count as
// BenchmarkFig7aInsertThroughput/template, so batch=1 reproduces that
// baseline and larger batches show the per-leaf merge amortization. The
// "db" legs go end to end through the public API over the default WAL
// pipeline — one DispatchBatch, one WAL AppendBatch per server the batch
// routes to, one batched consume — where batch=1 is the per-tuple Insert
// cost. Each
// benchmark op is ONE TUPLE, so ns/op across legs compare directly.
func BenchmarkInsertBatchThroughput(b *testing.B) {
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 1})
	tuples := make([]model.Tuple, 200_000)
	for i := range tuples {
		tuples[i] = g.Next()
	}
	sizes := []int{1, 16, 64, 256, 1024}
	for _, size := range sizes {
		b.Run(fmt.Sprintf("tree/batch-%d", size), func(b *testing.B) {
			idx := core.NewTemplateTree(core.TemplateConfig{
				Keys: model.KeyRange{Lo: 0, Hi: 1 << 32}, Leaves: 1024,
			})
			b.ResetTimer()
			for pos := 0; pos < b.N; pos += size {
				n := size
				if pos+n > b.N {
					n = b.N - pos
				}
				start := pos % len(tuples)
				if start+n > len(tuples) {
					start = 0
				}
				idx.InsertBatch(tuples[start : start+n])
			}
		})
	}
	for _, size := range sizes {
		b.Run(fmt.Sprintf("db/batch-%d", size), func(b *testing.B) {
			db, err := Open(Options{ChunkBytes: 256 << 20, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for pos := 0; pos < b.N; pos += size {
				n := size
				if pos+n > b.N {
					n = b.N - pos
				}
				start := pos % len(tuples)
				if start+n > len(tuples) {
					start = 0
				}
				if err := db.InsertBatch(tuples[start : start+n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The durability legs: under ack-on-fsync a batch must cost one fsync
	// cohort, not one per tuple — reported as fsyncs/batch. The batch-1 leg
	// is the serial counterpart: a single client pays a full group-commit
	// round (one fsync latency) per tuple, which is where batching buys its
	// largest factor. Keep iteration counts modest; each op is an fsync.
	b.Run("db-fsync/batch-1", func(b *testing.B) {
		db, err := Open(Options{
			DataDir:             b.TempDir(),
			Durability:          "ack-on-fsync",
			IndexServersPerNode: 1,
			ChunkBytes:          256 << 20,
			Seed:                1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Insert(tuples[i%len(tuples)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("db-fsync/batch-256", func(b *testing.B) {
		db, err := Open(Options{
			DataDir:             b.TempDir(),
			Durability:          "ack-on-fsync",
			IndexServersPerNode: 1, // one partition: each batch is one append
			ChunkBytes:          256 << 20,
			Seed:                1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		const size = 256
		b.ResetTimer()
		batches := 0
		for pos := 0; pos < b.N; pos += size {
			n := size
			if pos+n > b.N {
				n = b.N - pos
			}
			start := pos % len(tuples)
			if start+n > len(tuples) {
				start = 0
			}
			if err := db.InsertBatch(tuples[start : start+n]); err != nil {
				b.Fatal(err)
			}
			batches++
		}
		b.StopTimer()
		var fsyncs float64
		for _, m := range db.c.Telemetry().Snapshot() {
			if m.Name == "waterwheel_wal_fsyncs_total" {
				fsyncs = m.Value
			}
		}
		b.ReportMetric(fsyncs/float64(batches), "fsyncs/batch")
		if fsyncs > float64(batches)*2 {
			b.Fatalf("%.0f fsyncs for %d batches: cohorts not amortized", fsyncs, batches)
		}
	})
}

// BenchmarkInsertBatchAckOnFsyncInterleaved is the batch shape that priced
// ack-on-fsync out of the ledger's mixed workload: 256 tuples whose keys
// alternate between two indexing servers, acked on fsync. Each op is ONE
// BATCH. It reports ms/batch — one fsync cohort per server, side by side —
// and appends/batch from waterwheel_wal_append_calls_total, which must be
// exactly one per server.
func BenchmarkInsertBatchAckOnFsyncInterleaved(b *testing.B) {
	db, err := Open(Options{
		DataDir:             b.TempDir(),
		Durability:          "ack-on-fsync",
		IndexServersPerNode: 2,
		ChunkBytes:          256 << 20,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	batch := make([]Tuple, 256)
	for i := range batch {
		key := Key(i)
		if i%2 == 1 {
			key += 1 << 63
		}
		batch[i] = Tuple{Key: key, Payload: make([]byte, 16)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Time = Timestamp(i*len(batch) + j)
		}
		if err := db.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var calls float64
	for _, m := range db.c.Telemetry().Snapshot() {
		if m.Name == "waterwheel_wal_append_calls_total" {
			calls = m.Value
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/batch")
	b.ReportMetric(calls/float64(b.N), "appends/batch")
	if calls != 2*float64(b.N) {
		b.Fatalf("%.0f WAL append calls for %d two-server batches, want one per server", calls, b.N)
	}
}

// --- end-to-end throughput of the public API ---

func BenchmarkDBInsert(b *testing.B) {
	db, err := Open(Options{ChunkBytes: 64 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 6})
	tuples := make([]Tuple, 100_000)
	for i := range tuples {
		tuples[i] = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Insert(tuples[i%len(tuples)])
	}
	db.c.Drain() // the consumers' share of the pipeline is part of the cost
}

func BenchmarkDBQueryRecent(b *testing.B) {
	db, err := Open(Options{ChunkBytes: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	g := workload.NewTDrive(workload.TDriveConfig{Seed: 7, EventsPerSecond: 10_000})
	for i := 0; i < 200_000; i++ {
		db.Insert(g.Next())
	}
	qg := workload.NewQueryGen(g.KeySpan(), 1)
	now := g.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(Query{
			Keys:  qg.KeyRange(0.1),
			Times: workload.Recent(now, 5_000),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the wire path: Client.* over loopback TCP ---

// netBench serves a fresh DB on loopback and dials it.
func netBench(b *testing.B) (*DB, *Client) {
	db, err := Open(Options{ChunkBytes: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ns.Close)
	cl, err := Dial(ns.Addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return db, cl
}

// netBenchTuples are n tuples one millisecond apart with 16-byte payloads,
// so a time range selects an exact count.
func netBenchTuples(n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		p := binary.BigEndian.AppendUint64(make([]byte, 0, 16), uint64(i))
		ts[i] = Tuple{Key: Key(uint64(i) * 0x9E3779B97F4A7C15), Time: Timestamp(i), Payload: p[:16]}
	}
	return ts
}

// BenchmarkNetQuery is a warm full-key-range query returning 150, 1 500
// and 15 000 tuples to a TCP client: what the result costs on the wire on
// top of the scan and merge that produce it (run with -benchmem).
func BenchmarkNetQuery(b *testing.B) {
	_, cl := netBench(b)
	if err := cl.InsertBatch(netBenchTuples(20_000)); err != nil {
		b.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{150, 1500, 15_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			q := Query{Keys: FullKeyRange(), Times: TimeRange{Lo: 0, Hi: Timestamp(n - 1)}}
			query := func() {
				res, err := cl.Query(q)
				if err != nil || len(res.Tuples) != n {
					b.Fatalf("%d tuples, %v", len(res.Tuples), err)
				}
			}
			query() // fills the leaf cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// BenchmarkNetInsertBatch256 is one 256-tuple batch from a TCP client to
// its ack.
func BenchmarkNetInsertBatch256(b *testing.B) {
	_, cl := netBench(b)
	ts := netBenchTuples(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.InsertBatch(ts); err != nil {
			b.Fatal(err)
		}
	}
}

// aggBenchCluster builds a flushed cluster whose tuples carry a big-endian
// uint64 at payload offset 0, the pre-aggregated field.
func aggBenchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	c := cluster.New(cluster.Config{
		Nodes:               1,
		IndexServersPerNode: 1,
		QueryServersPerNode: 2,
		DispatchersPerNode:  1,
		ChunkBytes:          64 << 10,
		CacheBytes:          1 << 30,
		Seed:                1,
		DFSLatency:          dfs.LatencyModel{OpenMin: 200 * time.Microsecond, OpenMax: 200 * time.Microsecond},
	})
	c.Start()
	for i := 0; i < 50_000; i++ {
		payload := make([]byte, 16)
		binary.BigEndian.PutUint64(payload, uint64(i))
		c.Insert(model.Tuple{
			Key:     model.Key(uint64(i) * 0x9E3779B97F4A7C15),
			Time:    model.Timestamp(1000 + i),
			Payload: payload,
		})
	}
	c.Drain()
	c.FlushAll()
	return c
}

// BenchmarkAggregatePushdown prices the pre-aggregate block end to end:
// the same full-range SUM with a predicate every tuple passes (no pushdown
// level takes a filtered aggregate, so every leaf body is read and
// scanned, caches cleared each iteration) and without one (the
// coordinator and query servers answer from chunk and leaf metadata).
func BenchmarkAggregatePushdown(b *testing.B) {
	const wantCount = 50_000
	for _, mode := range []struct {
		name   string
		filter *model.Filter
	}{{"scan", model.True()}, {"pushdown", nil}} {
		b.Run(mode.name, func(b *testing.B) {
			q := model.AggregateQuery{
				Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Kind: model.AggSum, Filter: mode.filter,
			}
			c := aggBenchCluster(b)
			defer c.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coldCaches(c)
				b.StartTimer()
				res, err := c.Aggregate(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != wantCount {
					b.Fatalf("count = %d, want %d", res.Count, wantCount)
				}
			}
		})
	}
}

// BenchmarkColumnarScan measures leaf decode+scan throughput of the chunk
// encoding over a T-Drive snapshot, in the two shapes that matter: "full"
// visits every tuple (the decode pays varint work on every column),
// "narrow" scans a thin key slice per leaf (binary search on the key
// column, non-matching tuples never touched).
func BenchmarkColumnarScan(b *testing.B) {
	g := workload.NewTDrive(workload.TDriveConfig{Taxis: 500, Seed: 11})
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: g.KeySpan(), Leaves: 64})
	const n = 50_000
	for i := 0; i < n; i++ {
		tree.Insert(g.Next())
	}
	data, _, err := chunk.Build(tree.FlushReset(), chunk.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := chunk.ParseHeader(data)
	if err != nil {
		b.Fatal(err)
	}
	scan := func(b *testing.B, kr model.KeyRange, wantAll bool) {
		var cols chunk.LeafColumns
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0
			for li, d := range h.Dir {
				err := h.ScanLeafColsWith(&cols, li, data[d.Offset:d.Offset+d.Length],
					kr, model.FullTimeRange(), nil,
					func(model.Key, model.Timestamp, []byte) bool { total++; return true })
				if err != nil {
					b.Fatal(err)
				}
			}
			if wantAll && total != n {
				b.Fatalf("scanned %d tuples, want %d", total, n)
			}
		}
	}
	b.Run("full", func(b *testing.B) {
		scan(b, model.FullKeyRange(), true)
	})
	b.Run("narrow", func(b *testing.B) {
		span := g.KeySpan()
		mid := span.Hi / 2
		scan(b, model.KeyRange{Lo: mid, Hi: mid + span.Hi/1000}, false)
	})
}
