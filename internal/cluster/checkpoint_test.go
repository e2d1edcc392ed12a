package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"waterwheel/internal/dfs"
	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

var errInjectedFileOp = errors.New("injected file-operation fault")

// fatBatch inserts seqs [from, from+n) with pad-byte payloads (the seq
// first, as verifyExactlyOnce wants it) in batches of 64.
func fatBatch(t *testing.T, c *Cluster, from, n uint64, pad int) {
	t.Helper()
	ts := make([]model.Tuple, 0, 64)
	for seq := from; seq < from+n; seq++ {
		payload := make([]byte, pad)
		binary.BigEndian.PutUint64(payload, seq)
		ts = append(ts, model.Tuple{Key: model.Key(seq * 0x9E3779B97F4A7C15), Time: model.Timestamp(seq), Payload: payload})
		if len(ts) == cap(ts) || seq == from+n-1 {
			if _, err := c.InsertBatch(ts); err != nil {
				t.Fatal(err)
			}
			ts = ts[:0]
		}
	}
}

// filesUnder returns the size of every file under dataDir/sub, by path
// relative to it.
func filesUnder(t *testing.T, dataDir, sub string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	root := filepath.Join(dataDir, sub)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			rel, _ := filepath.Rel(root, path)
			out[rel] = info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func walFiles(t *testing.T, dataDir string) map[string]int64 {
	t.Helper()
	return filesUnder(t, dataDir, "wal")
}

func recovered(c *Cluster) (perSlot []int64) {
	for _, srv := range c.IndexServers() {
		perSlot = append(perSlot, srv.Stats().Recovered.Load())
	}
	return perSlot
}

// TestReplayBoundedByCheckpointCadence: nobody calls Checkpoint, and still
// what a hard crash replays — and what the log keeps on disk — is set by
// the checkpoint cadence, not by how much went through: at most
// (checkpointCommits + FlushQueueDepth + 1) chunks' worth of records per
// slot (on disk, plus the one segment the horizon falls in). At the parent
// commit both were everything since Open.
func TestReplayBoundedByCheckpointCadence(t *testing.T) {
	const pad, chunkBytes, flushQueueDepth = 1024, 512 << 10, 2
	cfg := testConfig()
	cfg.Nodes, cfg.IndexServersPerNode = 1, 2
	cfg.ChunkBytes = chunkBytes
	cfg.DataDir, cfg.Files = t.TempDir(), &durable.Files{}
	cfg.Durability = "ack-on-fsync"
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	perChunk := uint64(chunkBytes / (16 + pad)) // tuples a memtable holds at its threshold
	total := 2 * 42 * perChunk                  // >= 40 chunks for each of the two slots
	fatBatch(t, c, 0, total, pad)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, srv := range c.IndexServers() {
		if n := srv.Stats().Flushes.Load(); n < 40 {
			t.Fatalf("test premise: slot %d flushed %d chunks, want >= 40", i, n)
		}
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	boundRecords := int64(checkpointCommits+flushQueueDepth+1) * int64(perChunk)
	recordBytes := int64(12 + 20 + pad) // frame + encoded tuple
	bySlot := make(map[string]int64)
	for rel, size := range walFiles(t, cfg.DataDir) {
		bySlot[filepath.Dir(rel)] += size
	}
	for slot, size := range bySlot {
		if bound := boundRecords*recordBytes + wal.SegmentBytes; size > bound {
			t.Errorf("%s holds %d bytes after %d chunks; the cadence bounds it at %d", slot, size, 42, bound)
		}
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	c2.Start()
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	for slot, n := range recovered(c2) {
		t.Logf("slot %d replayed %d records (bound %d, ingested %d)", slot, n, boundRecords, total/2)
		if n > boundRecords {
			t.Errorf("slot %d replayed %d records, the cadence bounds it at %d", slot, n, boundRecords)
		}
	}
	verifyExactlyOnce(t, c2, total)
}

// TestFlushIsADurabilityPoint: when FlushAll returns, the log directory
// holds only empty active segments and a hard crash replays nothing — the
// flush ended with a synchronous checkpoint, not a race with a background
// one.
func TestFlushIsADurabilityPoint(t *testing.T) {
	cfg := walMemConfig(t, true)
	cfg.IndexServersPerNode = 2
	cfg.Durability = "ack-on-fsync"
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 5000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	files := walFiles(t, cfg.DataDir)
	if len(files) != 2 {
		t.Fatalf("log directory after a flush: %v, want one segment per partition", files)
	}
	for rel, size := range files {
		if size != 8 {
			t.Fatalf("%s holds %d bytes after a flush, want an empty segment (8)", rel, size)
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
	c2.Start()
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := recovered(c2); !slices.Equal(n, []int64{0, 0}) {
		t.Fatalf("replayed %v records after a flush, want none", n)
	}
	verifyExactlyOnce(t, c2, 5000)
}

// checkpointFixture is a one-slot deployment with everything flushed by the
// indexing server itself (no checkpoint yet): the next checkpoint has chunk
// files to sync and a whole log to let go of.
func checkpointFixture(t *testing.T, rec *fileOps) (*Cluster, Config) {
	t.Helper()
	cfg := walMemConfig(t, true)
	cfg.Files = rec.files(cfg.DataDir)
	c := startCluster(t, cfg)
	seqBatch(t, c, 0, 3000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.IndexServers()[0].FlushAll(); err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

// TestCheckpointOrdersDurability: nothing is unlinked until what replaces
// it is on stable storage. One checkpoint syncs the chunk files, then their
// directory, then meta.snap.tmp, renames it, syncs the data directory, then
// the log's — and only then removes a WAL segment; a failure at any of those
// steps leaves every segment in place.
func TestCheckpointOrdersDurability(t *testing.T) {
	rec := &fileOps{}
	c, cfg := checkpointFixture(t, rec)
	before := walFiles(t, cfg.DataDir)
	stop := rec.record("")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ops := stop()
	t.Logf("one checkpoint: %s", strings.Join(ops, " → "))
	chain := []string{opChunkSync, opDFSDirSync, opSnapSync, opSnapRename, opDataDirSync, opWALDirSync, opSegmentRm}
	// Up to the first unlink: the log directory is synced once more behind
	// the unlinks, and nothing waits for that.
	ops = ops[:slices.Index(ops, opSegmentRm)+1]
	pos := -1
	for _, class := range chain {
		first, last := slices.Index(ops, class), lastIndex(ops, class)
		if first < 0 {
			t.Fatalf("the checkpoint never did %q", class)
		}
		if first <= pos {
			t.Fatalf("%q at step %d, before the chain's previous link finished at step %d", class, first, pos)
		}
		pos = last
	}
	if after := walFiles(t, cfg.DataDir); len(after) != 1 || after[filepath.Join("p0.wal", segName(3000))] != 8 {
		t.Fatalf("log after the checkpoint: %v (before: %v), want one empty segment based at 3000", after, before)
	}

	for _, failAt := range chain {
		t.Run("failing at "+failAt, func(t *testing.T) {
			rec := &fileOps{}
			c, cfg := checkpointFixture(t, rec)
			before := walFiles(t, cfg.DataDir)
			stop := rec.record(failAt)
			err := c.Checkpoint()
			ops := stop()
			// The log's own steps end the chain without a report: the
			// segments they leave are retried by the next checkpoint.
			if failAt != opWALDirSync && failAt != opSegmentRm && !errors.Is(err, errInjectedFileOp) {
				t.Fatalf("checkpoint with %q failing: %v", failAt, err)
			}
			if failAt != opSegmentRm && slices.Contains(ops, opSegmentRm) {
				t.Fatalf("a segment was removed after %q failed: %v", failAt, ops)
			}
			after := walFiles(t, cfg.DataDir)
			for rel, size := range before {
				if after[rel] != size {
					t.Fatalf("%s: %d bytes before the failed checkpoint, %d after (%v)", rel, size, after[rel], ops)
				}
			}
			// The next one goes through and lets go of the log.
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if after := walFiles(t, cfg.DataDir); len(after) != 1 || after[filepath.Join("p0.wal", segName(3000))] != 8 {
				t.Fatalf("log after the retried checkpoint: %v", after)
			}
			verifyExactlyOnce(t, c, 3000)
		})
	}
}

func segName(base int64) string { return fmt.Sprintf("%020d.seg", base) }

func lastIndex(ops []string, class string) int {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i] == class {
			return i
		}
	}
	return -1
}

// metricValue reads one metric out of a registry's snapshot.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestCheckpointMetrics moves waterwheel_wal_disk_bytes,
// waterwheel_checkpoints_total and waterwheel_checkpoint_seconds: the log's
// size on disk follows the ingest up and falls to the empty segments at a
// flush, whose checkpoint is counted and timed.
func TestCheckpointMetrics(t *testing.T) {
	cfg := walMemConfig(t, true)
	cfg.ChunkBytes = 1 << 20 // nothing flushes by itself
	cfg.Telemetry = telemetry.NewRegistry()
	c := startCluster(t, cfg)
	read := func(name string) float64 { return metricValue(t, cfg.Telemetry, name) }
	if got := read("waterwheel_wal_disk_bytes"); got != 8 {
		t.Fatalf("fresh log: waterwheel_wal_disk_bytes = %v, want 8", got)
	}
	taken, timed := read("waterwheel_checkpoints_total"), read("waterwheel_checkpoint_seconds")
	if taken != 1 || timed != 1 {
		t.Fatalf("after Open's checkpoint: %v counted, %v timed, want 1 and 1", taken, timed)
	}
	seqBatch(t, c, 0, 1000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := read("waterwheel_wal_disk_bytes"), float64(8+1000*(12+seqTupleWALBytes)); got != want {
		t.Fatalf("1000 unflushed tuples: waterwheel_wal_disk_bytes = %v, want %v", got, want)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := read("waterwheel_wal_disk_bytes"); got != 8 {
		t.Fatalf("after a flush: waterwheel_wal_disk_bytes = %v, want 8", got)
	}
	if taken, timed := read("waterwheel_checkpoints_total"), read("waterwheel_checkpoint_seconds"); taken != 2 || timed != 2 {
		t.Fatalf("after the flush's checkpoint: %v counted, %v timed, want 2 and 2", taken, timed)
	}
}

// TestUnretryableFlushErrorSurfaces: a chunk name that is already taken
// fails the same way at every retry, so the flusher says so and ends —
// Drain and FlushAll return the error instead of parking behind it.
func TestUnretryableFlushErrorSurfaces(t *testing.T) {
	cfg := walMemConfig(t, false)
	cfg.ChunkBytes = 1 << 20
	c := startCluster(t, cfg)
	// Squat on the name the slot's first flush will use.
	if err := c.FS().Write("chunks/is0-e1-c1", []byte("squatter")); err != nil {
		t.Fatal(err)
	}
	seqBatch(t, c, 0, 500, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	within(t, "FlushAll over a taken chunk name", func() bool {
		if err := c.FlushAll(); !errors.Is(err, dfs.ErrExists) {
			t.Errorf("FlushAll: %v, want dfs.ErrExists", err)
		}
		return true
	})
	within(t, "Drain after the flusher ended", func() bool {
		if err := c.Drain(); !errors.Is(err, dfs.ErrExists) {
			t.Errorf("Drain: %v, want dfs.ErrExists", err)
		}
		return true
	})
	// The tuples are acked and still served from memory.
	verifyExactlyOnce(t, c, 500)
}

// TestChunkNamesSurviveAnUnsavedTakeover: a takeover moves the slot's epoch
// in memory, the successor writes chunks named by it, and a hard crash
// restores the snapshot from before. The reopened deployment claims its
// slots in a new epoch generation, so its flushes meet none of those names.
func TestChunkNamesSurviveAnUnsavedTakeover(t *testing.T) {
	cfg := walMemConfig(t, true)
	cfg.ChunkBytes = 1 << 20 // flushes are the test's to call
	cfg.Durability = "ack-on-fsync"
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 1000, 100)
	if err := c.CrashIndexServer(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// The successor's first chunk, registered in memory, in no snapshot.
	if err := c.IndexServers()[0].FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	c2.Start()
	// One takeover in this process too: same low half as the lost epoch.
	if err := c2.CrashIndexServer(0); err != nil {
		t.Fatal(err)
	}
	seqBatch(t, c2, 1000, 1000, 100)
	if err := c2.Drain(); err != nil {
		t.Fatal(err)
	}
	within(t, "FlushAll after an unsaved takeover", func() bool {
		if err := c2.FlushAll(); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
		return true
	})
	verifyExactlyOnce(t, c2, 2000)
}
