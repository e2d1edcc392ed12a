package cluster

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
)

func persistentConfig(dir string) Config {
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.Files = &durable.Files{}
	return cfg
}

func TestPersistentRestartRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(persistentConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 3000; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 45), Time: model.Timestamp(i), Payload: []byte{byte(i)}})
	}
	c.Drain()
	// Leave a mix of flushed chunks and unflushed memtable tail.
	if c.Metadata().ChunkCount() == 0 {
		c.IndexServers()[0].Flush()
	}
	memBefore := c.MemLen()
	chunksBefore := c.Metadata().ChunkCount()
	c.Stop()

	// "Restart the process": a new cluster over the same directory.
	c2, err := Open(persistentConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	c2.Drain() // replay the WAL tails
	if got := c2.Metadata().ChunkCount(); got != chunksBefore {
		t.Errorf("chunks after restart: %d, want %d", got, chunksBefore)
	}
	res, err := c2.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3000 {
		t.Fatalf("after restart query found %d/3000 (mem before stop: %d)", len(res.Tuples), memBefore)
	}
	// The restarted cluster keeps working.
	for i := 0; i < 100; i++ {
		c2.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(100_000 + i)})
	}
	c2.Drain()
	res, err = c2.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 100_000, Hi: 200_000}})
	if err != nil || len(res.Tuples) != 100 {
		t.Fatalf("post-restart inserts: %d, %v", len(res.Tuples), err)
	}
}

func TestPersistentSchemaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := persistentConfig(dir)
	cfg.Nodes = 4
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 10_000; i++ {
		c.Insert(model.Tuple{Key: model.Key(i % 1000), Time: model.Timestamp(i)}) // skewed
	}
	c.Drain()
	if !c.TickBalance() {
		t.Fatal("expected a rebalance")
	}
	version := c.Metadata().Schema().Version
	c.Stop()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	if got := c2.Metadata().Schema().Version; got != version {
		t.Errorf("schema version after restart: %d, want %d", got, version)
	}
}

// hardCrashSurvivors inserts n tuples from 8 concurrent inserters under
// the given durability policy, hard-crashes the cluster without a single
// checkpoint or flush (everything lives in the WAL), reopens it and
// returns how many acked tuples survived plus the reopened cluster.
func hardCrashSurvivors(t *testing.T, cfg Config, n int) (int, *Cluster) {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var wg sync.WaitGroup
	rejected := atomic.Int64{}
	per := n / 8
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(g*per + i)
				err := c.Insert(model.Tuple{
					Key: model.Key(seq << 45), Time: model.Timestamp(seq), Payload: []byte{byte(seq)},
				})
				if err != nil {
					rejected.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if rejected.Load() != 0 {
		t.Fatalf("%d inserts rejected with a healthy log", rejected.Load())
	}
	c.Drain()
	if got := c.Metadata().ChunkCount(); got != 0 {
		t.Fatalf("test premise broken: %d chunks flushed, tuples must live in the WAL only", got)
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	c2.Drain()
	res, err := c2.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Tuples), c2
}

// TestHardCrashAckOnFsyncLosesNothing: under "ack-on-fsync" every acked
// insert has paid for an fsync covering it, so a hard crash — WAL cut back
// to the fsync watermark, flushers aborted, no checkpoint — loses nothing.
func TestHardCrashAckOnFsyncLosesNothing(t *testing.T) {
	cfg := persistentConfig(t.TempDir())
	cfg.Durability = "ack-on-fsync"
	const n = 512
	got, c2 := hardCrashSurvivors(t, cfg, n)
	defer c2.Stop()
	if got != n {
		t.Fatalf("lost %d of %d fsync-acked tuples across a hard crash", n-got, n)
	}
}

// TestHardCrashAckOnWriteLosesTail documents the gap the fsync policy
// closes: with write-acked inserts and no flush or checkpoint forcing a
// sync, the whole acked workload sits in the page cache and dies with the
// host. The reopened cluster must still be fully usable.
func TestHardCrashAckOnWriteLosesTail(t *testing.T) {
	cfg := persistentConfig(t.TempDir())
	const n = 512
	got, c2 := hardCrashSurvivors(t, cfg, n)
	defer c2.Stop()
	if got >= n {
		t.Fatalf("ack-on-write hard crash lost nothing (%d/%d): the loss probe is inert", got, n)
	}
	// Survivor state stays sound: new inserts land and are queryable.
	for i := 0; i < 100; i++ {
		if err := c2.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(1_000_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	c2.Drain()
	res, err := c2.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 1_000_000, Hi: 2_000_000}})
	if err != nil || len(res.Tuples) != 100 {
		t.Fatalf("post-crash inserts: %d, %v", len(res.Tuples), err)
	}
}

// TestDurabilityRequiresDataDir: fsync-based ack policies are meaningless
// on the in-memory WAL and must be rejected at Open.
func TestDurabilityRequiresDataDir(t *testing.T) {
	cfg := testConfig()
	cfg.Durability = "ack-on-fsync"
	if _, err := Open(cfg); err == nil {
		t.Fatal("ack-on-fsync without DataDir accepted")
	}
	cfg.Durability = "no-such-policy"
	cfg.DataDir = t.TempDir()
	if _, err := Open(cfg); err == nil {
		t.Fatal("unknown durability policy accepted")
	}
}

// TestHardCrashRequiresDataDir: an in-memory cluster has no crash to
// simulate.
func TestHardCrashRequiresDataDir(t *testing.T) {
	c := New(testConfig())
	c.Start()
	defer c.Stop()
	if err := c.HardCrash(); err == nil {
		t.Fatal("HardCrash without DataDir accepted")
	}
}

func TestCheckpointWithoutDataDirIsNoop(t *testing.T) {
	c := New(testConfig())
	c.Start()
	defer c.Stop()
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("no-op checkpoint errored: %v", err)
	}
}

// TestReopenedDeploymentPinsNothing: a checkpoint taken while a query runs
// must not bring the query back. Restored, it would run forever in a process
// that never started it, pinning every later flush's in-memory copy
// (MinQueryAsOf) and keeping every retired chunk's file (OldestActiveQuery).
func TestReopenedDeploymentPinsNothing(t *testing.T) {
	cfg := persistentConfig(t.TempDir())
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 2000; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 45), Time: model.Timestamp(i)})
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	q := c.Metadata().RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	ms := c2.Metadata()
	if ms.OldestActiveQuery() != math.MaxUint64 || ms.MinQueryAsOf() != math.MaxUint64 {
		t.Fatalf("query %d of the previous process runs after the reopen: oldest %d, horizon %d",
			q.ID, ms.OldestActiveQuery(), ms.MinQueryAsOf())
	}
	chunks := ms.ChunksFor(model.FullRegion())
	if n := c2.DropChunksBefore(model.MaxTimestamp); n == 0 || n != len(chunks) {
		t.Fatalf("dropped %d of %d chunks", n, len(chunks))
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := c2.ret.pending(); got != 0 {
		t.Fatalf("%d dropped chunk files still wait after Flush with no query running", got)
	}
	for _, ci := range chunks {
		if _, err := c2.FS().Read(ci.Path); err == nil {
			t.Fatalf("dropped chunk %s was not unlinked", ci.Path)
		}
	}
}

// TestOpenRefusesALegacySnapshot: a data directory whose registry is the gob
// meta.snap of an older layout, with no metadata journal, is refused with a
// typed error instead of opened over a fresh registry, which would sweep
// every chunk the directory holds.
func TestOpenRefusesALegacySnapshot(t *testing.T) {
	cfg := walMemConfig(t, true)
	snap, err := os.ReadFile("../meta/testdata/pr13_format_field.snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.DataDir, "meta.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(cfg); !errors.Is(err, ErrLegacyLayout) {
		if c != nil {
			c.Stop()
		}
		t.Fatalf("Open over a legacy meta.snap: %v, want ErrLegacyLayout", err)
	}
}
