package bench

import (
	"fmt"
	"os"

	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// batchSizes is the sweep of client-side insert batch sizes; mirrors the
// BenchmarkInsertBatchThroughput legs so `wwbench -experiment batchsweep`
// reproduces the EXPERIMENTS.md table without the Go test harness.
var batchSizes = []int{1, 16, 64, 256, 1024}

// runBatchSweep measures end-to-end ingest throughput of the vectorized
// batch pipeline (DESIGN.md §13) at increasing client batch sizes: the
// same T-Drive stream pushed through Cluster.InsertBatch, once against an
// in-memory WAL under the default ack-on-write policy and once against a
// disk WAL under ack-on-fsync, where each batch must park on exactly one
// group-commit fsync cohort. The fsyncs/batch column asserts that
// contract; the ack-on-fsync column is where batching buys its largest
// factor (one fsync latency amortized over the whole batch).
func runBatchSweep(opt Options) (*Report, error) {
	sizes := batchSizes
	if opt.Batch > 1 {
		sizes = []int{opt.Batch}
	}
	n := opt.n(100_000)
	// The fsync leg costs one fsync per batch; at batch=1 that is one
	// fsync per tuple, so it runs on a smaller stream.
	nFsync := opt.n(2_000)

	rep := &Report{
		ID:     "batchsweep",
		Title:  "Batch ingest throughput vs client batch size (tuples/s)",
		Header: []string{"batch", "ack-on-write", "ack-on-fsync", "fsyncs/batch"},
		Notes: []string{
			fmt.Sprintf("ack-on-write stream %d tuples (in-memory WAL); ack-on-fsync stream %d tuples (disk WAL)", n, nFsync),
			"one indexing server per node: every batch is one WAL append and, under ack-on-fsync, one fsync cohort",
			"batch=1 is the per-tuple path: a single client pays a full group-commit round per tuple",
		},
	}

	g := workload.NewTDrive(workload.TDriveConfig{Seed: opt.Seed})
	tuples := pregenerate(g, n)

	for _, size := range sizes {
		memRate, _, err := sweepLeg(cluster.Config{
			IndexServersPerNode: 1,
			ChunkBytes:          256 << 20,
			Seed:                opt.Seed,
		}, tuples[:n], size)
		if err != nil {
			return nil, err
		}

		dir, err := os.MkdirTemp("", "wwbatchsweep")
		if err != nil {
			return nil, err
		}
		fsRate, fsyncsPerBatch, err := sweepLeg(cluster.Config{
			IndexServersPerNode: 1,
			ChunkBytes:          256 << 20,
			Seed:                opt.Seed,
			DataDir:             dir,
			Durability:          "ack-on-fsync",
		}, tuples[:min(nFsync, n)], size)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}

		rep.Add(size,
			humanRate(memRate),
			humanRate(fsRate),
			fmt.Sprintf("%.2f", fsyncsPerBatch))
		opt.logf("batchsweep batch=%d done", size)
	}
	return rep, nil
}

// sweepLeg streams the tuples into a fresh cluster in batches of the
// given size and returns the ack throughput plus the observed WAL
// fsyncs per batch (0 for in-memory WALs, which never fsync).
func sweepLeg(cfg cluster.Config, tuples []model.Tuple, size int) (rate float64, fsyncsPerBatch float64, err error) {
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()

	batches := 0
	start := time.Now()
	for pos := 0; pos < len(tuples); pos += size {
		end := pos + size
		if end > len(tuples) {
			end = len(tuples)
		}
		if _, err := c.InsertBatch(tuples[pos:end]); err != nil {
			return 0, 0, err
		}
		batches++
	}
	elapsed := time.Since(start)

	var fsyncs float64
	for _, m := range c.Telemetry().Snapshot() {
		if m.Name == "waterwheel_wal_fsyncs_total" {
			fsyncs = m.Value
		}
	}
	if batches > 0 {
		fsyncsPerBatch = fsyncs / float64(batches)
	}
	return perSecond(int64(len(tuples)), elapsed), fsyncsPerBatch, nil
}

func init() {
	register("batchsweep", runBatchSweep)
}
