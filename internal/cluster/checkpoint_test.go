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

// TestReplayBoundedByFlushQueue: nobody calls Checkpoint, and still what a
// hard crash replays — and what the log keeps on disk — is set by the flush
// pipeline, not by how much went through: every flush commit is durable
// when it lands and cuts the log behind it, so at most (FlushQueueDepth + 1)
// chunks' worth of records per slot (on disk, plus the one segment the
// horizon falls in) are in no durable chunk. A kill's successor replays from
// the same committed offset, so the same bound holds for a takeover.
func TestReplayBoundedByFlushQueue(t *testing.T) {
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
	boundRecords := int64(flushQueueDepth+1) * int64(perChunk)

	for _, i := range c.ActiveSlots() {
		if err := c.KillIndexServer(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for slot, n := range recovered(c) {
		t.Logf("slot %d's successor replayed %d records (bound %d)", slot, n, boundRecords)
		if n > boundRecords {
			t.Errorf("slot %d's successor replayed %d records, the flush queue bounds it at %d", slot, n, boundRecords)
		}
	}
	verifyExactlyOnce(t, c, total)

	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	recordBytes := int64(12 + 20 + pad) // frame + encoded tuple
	bySlot := make(map[string]int64)
	for rel, size := range walFiles(t, cfg.DataDir) {
		bySlot[filepath.Dir(rel)] += size
	}
	for slot, size := range bySlot {
		if bound := boundRecords*recordBytes + wal.SegmentBytes; size > bound {
			t.Errorf("%s holds %d bytes after %d chunks; the flush queue bounds it at %d", slot, size, 42, bound)
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
			t.Errorf("slot %d replayed %d records, the flush queue bounds it at %d", slot, n, boundRecords)
		}
	}
	verifyExactlyOnce(t, c2, total)
}

// TestFlushIsADurabilityPoint: when FlushAll returns, the log directory
// holds only empty active segments and a hard crash replays nothing — a
// unit counts as flushed only once its commit is durable and the log is cut
// behind it.
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

// checkpointFixture is a one-slot deployment holding 3000 applied tuples in
// its memtable: the next flush has a chunk to write and sync, a log to sync
// and cut, and a commit to journal.
func checkpointFixture(t *testing.T, rec *fileOps) (*Cluster, Config) {
	t.Helper()
	cfg := walMemConfig(t, true)
	cfg.Files = rec.files(cfg.DataDir)
	c := startCluster(t, cfg)
	seqBatch(t, c, 0, 3000, 100)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

// flushCommitChain is the order a flush commit puts things on stable
// storage in before it unlinks the log behind it.
var flushCommitChain = []string{opChunkSync, opDFSDirSync, opJournalSync, opWALDirSync, opSegmentRm}

// requireChain fails unless ops, up to the first segment unlink, run chain
// in order: every step of a link after every step of the one before.
func requireChain(t *testing.T, ops, chain []string) {
	t.Helper()
	ops = ops[:slices.Index(ops, opSegmentRm)+1]
	pos := -1
	for _, class := range chain {
		first, last := slices.Index(ops, class), lastIndex(ops, class)
		if first < 0 {
			t.Fatalf("the flush commit never did %q: %v", class, ops)
		}
		if first <= pos {
			t.Fatalf("%q at step %d, before the chain's previous link finished at step %d: %v", class, first, pos, ops)
		}
		pos = last
	}
}

// TestCheckpointOrdersDurability: nothing is unlinked until what replaces
// it is on stable storage. A flush commit is the slot's checkpoint: it
// syncs the chunk files, then their directory, then (the log having been
// synced up to the unit's offset) the journal record that commits both —
// and only then syncs the log directory's fresh segment and removes a WAL
// segment. A
// failure at any of those steps removes nothing until the whole chain has
// run again; Checkpoint, after a retry or a restart, lets go of the log.
func TestCheckpointOrdersDurability(t *testing.T) {
	rec := &fileOps{}
	c, cfg := checkpointFixture(t, rec)
	before := walFiles(t, cfg.DataDir)
	stop := rec.record("")
	if err := c.IndexServers()[0].FlushAll(); err != nil {
		t.Fatal(err)
	}
	ops := stop()
	t.Logf("one flush commit: %s", strings.Join(ops, " → "))
	requireChain(t, ops, flushCommitChain)
	if after := walFiles(t, cfg.DataDir); len(after) != 1 || after[filepath.Join("p0.wal", segName(3000))] != 8 {
		t.Fatalf("log after the flush: %v (before: %v), want one empty segment based at 3000", after, before)
	}

	for _, failAt := range []string{opChunkSync, opDFSDirSync, opJournalSync, opWALDirSync, opSegmentRm} {
		t.Run("failing at "+failAt, func(t *testing.T) {
			rec := &fileOps{}
			c, cfg := checkpointFixture(t, rec)
			stop := rec.record(failAt)
			err := c.IndexServers()[0].FlushAll()
			ops := stop()
			// A broken journal takes every later commit with it: the flush
			// says so, and only a restart mends it.
			if failAt == opJournalSync && !errors.Is(err, errInjectedFileOp) {
				t.Fatalf("flush with %q failing: %v", failAt, err)
			}
			failed := slices.Index(ops, failAt)
			if failed < 0 {
				t.Fatalf("the flush never did %q: %v", failAt, ops)
			}
			if rm := slices.Index(ops[failed+1:], opSegmentRm); rm >= 0 {
				k := slices.Index(flushCommitChain, failAt)
				requireChain(t, ops[failed+1:], flushCommitChain[k:])
			}
			if failAt == opJournalSync {
				c.Stop()
				var err error
				if c, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
				defer c.Stop()
				c.Start()
			} else if err := c.IndexServers()[0].FlushAll(); err != nil {
				t.Fatal(err) // re-drives a unit parked on the failure
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if after := walFiles(t, cfg.DataDir); len(after) != 1 || after[filepath.Join("p0.wal", segName(3000))] != 8 {
				t.Fatalf("log after the checkpoint: %v (%v)", after, ops)
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
// flush; the journal's compactions are counted and timed — the one Open's
// claim brings about (its record outnumbers the registry's zero chunks),
// none behind one registration, and one a Checkpoint asks for.
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
		t.Fatalf("after Open's claim: %v counted, %v timed, want 1 and 1", taken, timed)
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
	if taken, timed := read("waterwheel_checkpoints_total"), read("waterwheel_checkpoint_seconds"); taken != 1 || timed != 1 {
		t.Fatalf("after one registration: %v counted, %v timed, want 1 and 1", taken, timed)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if taken, timed := read("waterwheel_checkpoints_total"), read("waterwheel_checkpoint_seconds"); taken != 2 || timed != 2 {
		t.Fatalf("after a Checkpoint: %v counted, %v timed, want 2 and 2", taken, timed)
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

// TestChunkNamesSurviveAnUnsavedTakeover: a takeover moves the slot's epoch,
// the successor writes chunks named by it, and the host crashes. The
// reopened deployment claims its slots one epoch up, after sweeping every
// file the replayed registry does not name, and takes a slot over once more:
// its flushes meet none of the names the lost process used.
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
	// The successor's first chunk.
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
	// One takeover in this process too.
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
