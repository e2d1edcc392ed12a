package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
)

func undoName(undo int) string {
	if undo == math.MaxInt {
		return "all"
	}
	return fmt.Sprint(undo)
}

// requireAckedOnce fails unless every seq in acked is stored exactly once, no
// other seq is stored twice, and the registry counts no chunk twice (its
// COUNT(*), answered from chunk metadata, is what a scan returns).
func requireAckedOnce(t *testing.T, c *Cluster, acked map[uint64]bool, when string) {
	t.Helper()
	seqs := storedSeqs(t, c)
	if n := countStar(t, c); n != uint64(len(seqs)) {
		t.Fatalf("%s: COUNT(*) = %d over %d stored tuples", when, n, len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] == seqs[i-1] {
			t.Fatalf("%s: seq %d stored twice", when, seqs[i])
		}
	}
	stored := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		stored[seq] = true
	}
	lost := 0
	for seq := range acked {
		if !stored[seq] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%s: %d of %d acked seqs lost", when, lost, len(acked))
	}
}

// crashWorkload is an ack-on-fsync workload over orphanConfig's one slot —
// threshold flushes with their journal records, a FlushAll halfway, a
// Checkpoint (a journal compaction) at the end — whose durable operations
// fail from the failFrom-th on (counted from 0 once the cluster is open; -1:
// none fails). It returns the cluster, still running, the seqs it acked, and
// how many operations it counted.
func crashWorkload(t *testing.T, cfg *Config, failFrom int64) (*Cluster, map[uint64]bool, int64) {
	t.Helper()
	var ops atomic.Int64
	var armed atomic.Bool
	cfg.Files = &durable.Files{Hook: func(durable.Op, string) error {
		if armed.Load() && ops.Add(1)-1 >= failFrom && failFrom >= 0 {
			return errInjectedFileOp
		}
		return nil
	}}
	c, err := Open(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	armed.Store(true)
	const total, batch = 3000, 100
	acked := make(map[uint64]bool, total)
	for from := uint64(0); from < total; from += batch {
		ts := make([]model.Tuple, batch)
		for i := range ts {
			seq := from + uint64(i)
			ts[i] = model.Tuple{Key: model.Key(seq * 0x9E3779B97F4A7C15), Time: model.Timestamp(seq), Payload: binary.BigEndian.AppendUint64(nil, seq)}
		}
		rejected, err := c.InsertBatch(ts)
		no := make(map[int]bool, len(rejected))
		for _, i := range rejected {
			no[i] = true
		}
		for i := range ts {
			if err == nil || !no[i] {
				acked[from+uint64(i)] = true
			}
		}
		if from == total/2 {
			within(t, "FlushAll", func() error { return c.FlushAll() })
		}
	}
	within(t, "Checkpoint", func() error { return c.Checkpoint() })
	armed.Store(false)
	return c, acked, ops.Load()
}

// TestCrashAtEveryDurableStep: a host crash at any durable operation of an
// ack-on-fsync workload — that operation and every later one failing, then
// none, the newest or every directory entry change no fsync covered undone
// — loses no acked tuple and stores none twice after the reopen.
func TestCrashAtEveryDurableStep(t *testing.T) {
	cfg := orphanConfig(t)
	c, acked, n := crashWorkload(t, &cfg, -1)
	c.Stop()
	if len(acked) != 3000 || n < 20 {
		t.Fatalf("test premise: %d acked, %d durable operations; want 3000 and a chain's worth", len(acked), n)
	}
	t.Logf("%d durable operations", n)
	for k := int64(0); k <= n; k++ {
		for _, undo := range []int{0, 1, math.MaxInt} {
			cfg := orphanConfig(t)
			c, acked, _ := crashWorkload(t, &cfg, k)
			if err := c.crash(undo); err != nil {
				t.Fatalf("crash at operation %d, undo %s: %v", k, undoName(undo), err)
			}
			c2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen after a crash at operation %d, undo %s: %v", k, undoName(undo), err)
			}
			c2.Start()
			if err := c2.Drain(); err != nil {
				t.Fatal(err)
			}
			requireAckedOnce(t, c2, acked, fmt.Sprintf("crash at operation %d, undo %s", k, undoName(undo)))
			c2.Stop()
		}
	}
}

// TestCheckpointCrashBeforeDirSync: a checkpoint compacted the metadata
// journal — its first part opened a fresh segment, and the segments behind
// it were unlinked — and the host died before the journal directory's fsync.
// Whether the unlinks survive (undo 0) or not (the newest undone; every
// change undone), the reopen replays the same registry — the older records
// first, then the parts that put every live chunk again — and returns every
// tuple exactly once.
func TestCheckpointCrashBeforeDirSync(t *testing.T) {
	for _, undo := range []int{0, 1, math.MaxInt} {
		t.Run("undo="+undoName(undo), func(t *testing.T) {
			cfg := orphanConfig(t)
			journal := filepath.Join(cfg.DataDir, "meta.wal")
			var armed, removed, failed atomic.Bool
			cfg.Files = &durable.Files{Hook: func(op durable.Op, path string) error {
				switch {
				case !armed.Load():
				case op == durable.OpRemove && filepath.Dir(path) == journal:
					removed.Store(true)
				case op == durable.OpSync && path == journal && removed.Load() && failed.CompareAndSwap(false, true):
					return errInjectedFileOp
				}
				return nil
			}}
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			seqBatch(t, c, 0, 2000, 100)
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			seqBatch(t, c, 2000, 1000, 100)
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := c.IndexServers()[0].FlushAll(); err != nil {
				t.Fatal(err)
			}
			segs := func() int {
				entries, err := os.ReadDir(journal)
				if err != nil {
					t.Fatal(err)
				}
				return len(entries)
			}
			armed.Store(true)
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if !failed.Load() || segs() != 1 {
				t.Fatalf("test premise: the compaction's unlinks ran (%v) and left %d journal segments, want 1", failed.Load(), segs())
			}
			chunks, offset := c.Metadata().ChunkCount(), c.Metadata().Offset(0)
			if err := c.crash(undo); err != nil {
				t.Fatal(err)
			}
			if got := segs(); (undo == 0) != (got == 1) {
				t.Fatalf("undo %s left %d journal segments", undoName(undo), got)
			}
			c2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Stop()
			if c2.Metadata().ChunkCount() != chunks || c2.Metadata().Offset(0) != offset {
				t.Fatalf("replayed %d chunks and offset %d, want %d and %d", c2.Metadata().ChunkCount(), c2.Metadata().Offset(0), chunks, offset)
			}
			c2.Start()
			if err := c2.Drain(); err != nil {
				t.Fatal(err)
			}
			verifyExactlyOnce(t, c2, 3000)
		})
	}
}

// TestFailedChunkUnlinkIsRetried: a retired chunk whose unlink fails stays in
// the file table and in the retirer's queue, so the sweep behind the next
// checkpoint removes it — the directory holds only registered chunks again
// with no restart to sweep it.
func TestFailedChunkUnlinkIsRetried(t *testing.T) {
	cfg := orphanConfig(t)
	var armed, failed atomic.Bool
	dfsDir := filepath.Join(cfg.DataDir, "dfs") + string(filepath.Separator)
	cfg.Files = &durable.Files{Hook: func(op durable.Op, path string) error {
		if op == durable.OpRemove && strings.HasPrefix(path, dfsDir) && armed.Load() && failed.CompareAndSwap(false, true) {
			return errInjectedFileOp
		}
		return nil
	}}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	seqBatch(t, c, 0, 3000, 100)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if n := c.DropChunksBefore(1500); n == 0 {
		t.Fatal("test premise: no chunk ends before 1500")
	}
	if !failed.Load() {
		t.Fatal("test premise: the drop's sweep unlinked no chunk")
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requireOnlyRegisteredChunks(t, c, cfg.DataDir, "after the next checkpoint")
}

// retentionHorizon cuts retentionWorkload's chunks: those wholly before it
// are dropped, the one that straddles it stays.
const retentionHorizon = 1500

// retentionWorkload flushes 3000 tuples (seq = time) into one slot's
// chunks and drops those that end before retentionHorizon, with every
// durable operation of the drop and its sweep failing from the failFrom-th
// on (-1: none). It returns the cluster, still running, how many chunks
// were dropped and how many operations the drop counted.
func retentionWorkload(t *testing.T, cfg *Config, failFrom int64) (*Cluster, int, int64) {
	t.Helper()
	var ops atomic.Int64
	var armed atomic.Bool
	cfg.Files = &durable.Files{Hook: func(durable.Op, string) error {
		if armed.Load() && ops.Add(1)-1 >= failFrom && failFrom >= 0 {
			return errInjectedFileOp
		}
		return nil
	}}
	c, err := Open(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 3000, 100)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	dropped := c.DropChunksBefore(retentionHorizon)
	armed.Store(false)
	return c, dropped, ops.Load()
}

// TestCrashAtEveryRetentionStep: a host crash at any durable operation of a
// DropChunksBefore — the drop's journal fsync, the journal compaction it
// can set off, each retired file's unlink — with none, the newest or every
// unsynced directory entry change undone, reopens to a registry that returns
// every tuple at or after the horizon exactly once and every tuple before it
// at most once, and to a dfs/ that holds exactly the chunks the registry
// names.
func TestCrashAtEveryRetentionStep(t *testing.T) {
	cfg := orphanConfig(t)
	c, dropped, n := retentionWorkload(t, &cfg, -1)
	c.Stop()
	if dropped == 0 {
		t.Fatal("test premise: no chunk ends before the horizon")
	}
	t.Logf("%d durable operations in a drop of %d chunks", n, dropped)
	for k := int64(0); k <= n; k++ {
		for _, undo := range []int{0, 1, math.MaxInt} {
			when := fmt.Sprintf("crash at operation %d, undo %s", k, undoName(undo))
			cfg := orphanConfig(t)
			c, _, _ := retentionWorkload(t, &cfg, k)
			if err := c.crash(undo); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			c2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen after a %s: %v", when, err)
			}
			c2.Start()
			if err := c2.Drain(); err != nil {
				t.Fatal(err)
			}
			seqs := storedSeqs(t, c2)
			kept := 0
			for i, seq := range seqs {
				if seq >= 3000 || i > 0 && seqs[i-1] == seq {
					t.Fatalf("%s: seq %d returned (unknown or twice)", when, seq)
				}
				if seq >= retentionHorizon {
					kept++
				}
			}
			if kept != 3000-retentionHorizon {
				t.Fatalf("%s: %d tuples at or after the horizon returned, want %d", when, kept, 3000-retentionHorizon)
			}
			requireOnlyRegisteredChunks(t, c2, cfg.DataDir, when)
			c2.Stop()
		}
	}
}

// TestRetentionWaitsOnTheJournalOnce: a DropChunksBefore of several chunks
// is one journal edit, made durable by one fsync of the metadata journal,
// not one edit and one fsync wait per chunk.
func TestRetentionWaitsOnTheJournalOnce(t *testing.T) {
	cfg := orphanConfig(t)
	cfg.ChunkBytes = 4 << 10 // several chunks before the horizon
	journal := filepath.Join(cfg.DataDir, "meta.wal")
	var armed atomic.Bool
	var syncs atomic.Int64
	cfg.Files = &durable.Files{Hook: func(op durable.Op, path string) error {
		if armed.Load() && op == durable.OpSync && strings.HasPrefix(path, journal) {
			syncs.Add(1)
		}
		return nil
	}}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	seqBatch(t, c, 0, 3000, 100)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A fresh compaction, so the drop's wait sets off none of its own.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	dropped := c.DropChunksBefore(retentionHorizon)
	armed.Store(false)
	if dropped < 3 {
		t.Fatalf("test premise: %d chunks end before the horizon, want at least 3", dropped)
	}
	if n := syncs.Load(); n != 1 {
		t.Fatalf("a drop of %d chunks fsynced the metadata journal %d times, want once", dropped, n)
	}
}
