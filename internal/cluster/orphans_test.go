package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

func dfsDir(t *testing.T, dataDir string) map[string]int64 {
	t.Helper()
	return filesUnder(t, dataDir, "dfs")
}

// requireOnlyRegisteredChunks: the directory under the DFS holds the
// registered chunks — as many files, as many bytes — and nothing else.
func requireOnlyRegisteredChunks(t *testing.T, c *Cluster, dataDir, when string) {
	t.Helper()
	var registered int64
	for _, ci := range c.Metadata().ChunksFor(model.FullRegion()) {
		registered += ci.Size
	}
	var onDisk int64
	files := dfsDir(t, dataDir)
	for _, size := range files {
		onDisk += size
	}
	if chunks := c.Metadata().ChunkCount(); len(files) != chunks || len(c.FS().List()) != chunks || onDisk != registered {
		t.Fatalf("%s: dfs/ holds %d files (%d listed) and %d bytes; the registry names %d chunks of %d bytes",
			when, len(files), len(c.FS().List()), onDisk, chunks, registered)
	}
}

// orphanConfig is walMemConfig on disk under ack-on-fsync: every acked tuple
// must come back after a HardCrash.
func orphanConfig(t *testing.T) Config {
	cfg := walMemConfig(t, true)
	cfg.Durability = "ack-on-fsync"
	return cfg
}

func countStar(t *testing.T, c *Cluster) uint64 {
	t.Helper()
	res, err := c.Aggregate(model.AggregateQuery{Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Kind: model.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// TestHardCrashLosesUnsyncedChunkBytes: a host crash takes the page cache
// with it — a chunk written but not yet synced keeps its name and loses its
// bytes. The flusher syncs a chunk before it registers it, so the registry
// never named it and the log still holds its records: Open sweeps it (and
// counts it) instead of refusing, and replay returns every acked tuple
// exactly once.
func TestHardCrashLosesUnsyncedChunkBytes(t *testing.T) {
	const total = 1500 // two threshold flushes: the queue holds them
	cfg := orphanConfig(t)
	files, failing := failingChunkSyncs(cfg.DataDir)
	cfg.Files = files
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	failing.Store(true)
	seqBatch(t, c, 0, total, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	written := len(c.FS().List())
	if written < 1 || c.Metadata().ChunkCount() != 0 {
		t.Fatalf("test premise: %d chunks written and %d registered, want >= 1 and none", written, c.Metadata().ChunkCount())
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}
	dir := dfsDir(t, cfg.DataDir)
	for name, size := range dir {
		if size != 0 {
			t.Fatalf("%s kept %d bytes no fsync covered", name, size)
		}
	}
	if len(dir) != written {
		t.Fatalf("dfs/ holds %d names after the crash, want the %d chunks written", len(dir), written)
	}

	failing.Store(false)
	cfg.Telemetry = telemetry.NewRegistry()
	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen over chunk names without bytes, with every record still in the log: %v", err)
	}
	defer c2.Stop()
	if got := c2.OrphansSwept(); got != int64(written) {
		t.Fatalf("Open swept %d files, want the %d chunks written and never registered", got, written)
	}
	if got := metricValue(t, cfg.Telemetry, "waterwheel_dfs_orphans_swept_total"); got != float64(written) {
		t.Fatalf("waterwheel_dfs_orphans_swept_total = %v, want %d", got, written)
	}
	requireOnlyRegisteredChunks(t, c2, cfg.DataDir, "after the reopen")
	c2.Start()
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := recovered(c2)[0]; n != total {
		t.Fatalf("replayed %d records, want all %d: no chunk survived", n, total)
	}
	verifyExactlyOnce(t, c2, total)
	if got := countStar(t, c2); got != total {
		t.Fatalf("COUNT(*) = %d after the replay, want %d", got, total)
	}
}

// TestOrphansDoNotOutliveARestart: every crash that falls between a chunk's
// write and its registration leaves the chunk unregistered, and the replay
// writes the same tuples again under new names. After every Open the
// directory holds the registered chunks and nothing else, however many
// times that happens.
func TestOrphansDoNotOutliveARestart(t *testing.T) {
	const total = 4500
	cfg := orphanConfig(t)
	files, failing := failingChunkSyncs(cfg.DataDir)
	cfg.Files = files
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 3000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil { // the registered history
		t.Fatal(err)
	}
	failing.Store(true)
	seqBatch(t, c, 3000, total-3000, 100) // written by threshold, never registered
	for cycle := 1; cycle <= 5; cycle++ {
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		filesBefore := len(c.FS().List())
		if err := c.HardCrash(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(cfg); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		when := fmt.Sprintf("cycle %d, after Open", cycle)
		requireOnlyRegisteredChunks(t, c, cfg.DataDir, when)
		swept := int64(filesBefore - c.Metadata().ChunkCount())
		if swept < 1 || c.OrphansSwept() != swept {
			t.Fatalf("%s: swept %d files; %d were there and %d are registered (want a replay's worth, at least 1)",
				when, c.OrphansSwept(), filesBefore, c.Metadata().ChunkCount())
		}
		c.Start()
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		verifyExactlyOnce(t, c, total)
	}
	failing.Store(false)
	if err := c.FlushAll(); err != nil { // re-drives the parked unit
		t.Fatal(err)
	}
	c.Stop()
	requireOnlyRegisteredChunks(t, c, cfg.DataDir, "after Stop")
}

// TestAbandonedCompactionOutputIsSwept: a kill between a compaction's Write
// and its ReplaceChunks leaves the output file beside inputs that are still
// registered. Whether or not its bytes reached the disk, the reopened
// deployment sweeps it and serves the inputs: no row is counted twice.
func TestAbandonedCompactionOutputIsSwept(t *testing.T) {
	for _, synced := range []bool{true, false} {
		t.Run(fmt.Sprintf("synced=%v", synced), func(t *testing.T) {
			const total = 3000
			cfg := orphanConfig(t)
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			seqBatch(t, c, 0, total, 100)
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			inputs := c.Metadata().ChunksFor(model.FullRegion())
			// A whole, readable chunk under the name the compactor would
			// use: served, it would return its input's rows a second time.
			body, err := c.FS().Read(inputs[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			output := fmt.Sprintf("chunks/compact-is0-e%d-d0-1", c.Metadata().Epoch(0))
			if err := c.FS().Write(output, body); err != nil {
				t.Fatal(err)
			}
			if synced {
				if err := c.FS().Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.HardCrash(); err != nil {
				t.Fatal(err)
			}

			c2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Stop()
			if _, err := c2.FS().Size(output); !errors.Is(err, dfs.ErrNotFound) || c2.OrphansSwept() != 1 {
				t.Fatalf("the abandoned output after the reopen: %v, %d files swept; want it gone and 1", err, c2.OrphansSwept())
			}
			if got := c2.Metadata().ChunkCount(); got != len(inputs) {
				t.Fatalf("%d chunks registered after the reopen, want the %d inputs", got, len(inputs))
			}
			requireOnlyRegisteredChunks(t, c2, cfg.DataDir, "after the reopen")
			c2.Start()
			if err := c2.Drain(); err != nil {
				t.Fatal(err)
			}
			verifyExactlyOnce(t, c2, total)
			if got := countStar(t, c2); got != total {
				t.Fatalf("COUNT(*) = %d, want %d", got, total)
			}
		})
	}
}

// TestDirSizeMismatchIsTypedOpenError: the registry's copy of a chunk's size
// was fsynced behind the chunk's bytes, so a registered chunk whose file is
// short or long is damage no replay mends — Open fails with
// dfs.ErrSizeMismatch — and a missing one fails it with dfs.ErrNotFound.
func TestDirSizeMismatchIsTypedOpenError(t *testing.T) {
	cfg := orphanConfig(t)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 2000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := c.Metadata().ChunksFor(model.FullRegion())[0]
	c.Stop()
	path := filepath.Join(cfg.DataDir, "dfs", strings.ReplaceAll(victim.Path, "/", "%2F"))
	for what, size := range map[string]int64{"short": victim.Size / 2, "long": victim.Size + 1} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(cfg); !errors.Is(err, dfs.ErrSizeMismatch) {
			t.Fatalf("open over a %s registered chunk = %v, want dfs.ErrSizeMismatch", what, err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrSizeMismatch) {
		t.Fatalf("open over a missing registered chunk = %v, want dfs.ErrNotFound", err)
	}
}

// TestFailedOpenClosesTheLog: an Open that fails after the log is open —
// the orphan sweep finds a registered chunk's file gone, or the DFS
// directory cannot be loaded — closes every segment descriptor it opened.
func TestFailedOpenClosesTheLog(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts the process's descriptors in /proc/self/fd")
	}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	cfg := orphanConfig(t)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 2000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := c.Metadata().ChunksFor(model.FullRegion())[0]
	c.Stop()
	dfsPath := filepath.Join(cfg.DataDir, "dfs")
	if err := os.Remove(filepath.Join(dfsPath, strings.ReplaceAll(victim.Path, "/", "%2F"))); err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	if _, err := Open(cfg); !errors.Is(err, dfs.ErrNotFound) {
		t.Fatalf("open over a missing registered chunk = %v, want dfs.ErrNotFound", err)
	}
	if leaked := openFDs() - before; leaked != 0 {
		t.Errorf("the failed sweep left %d descriptors open", leaked)
	}
	if err := os.RemoveAll(dfsPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dfsPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before = openFDs()
	if _, err := Open(cfg); err == nil {
		t.Fatal("open with a file where the DFS directory should be succeeded")
	}
	if leaked := openFDs() - before; leaked != 0 {
		t.Errorf("the failed DFS open left %d descriptors open", leaked)
	}
}
