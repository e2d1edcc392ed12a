package cluster

import (
	"bytes"
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

// requireAckedOnce fails unless every seq in acked is stored exactly once and
// no other seq is stored twice.
func requireAckedOnce(t *testing.T, c *Cluster, acked map[uint64]bool, when string) {
	t.Helper()
	seqs := storedSeqs(t, c)
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
// threshold flushes, a FlushAll with its checkpoint halfway, a checkpoint at
// the end — whose durable operations fail from the failFrom-th on (counted
// from 0 once the cluster is open; -1: none fails). It returns the cluster,
// still running, the seqs it acked, and how many operations it counted.
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

// TestCheckpointCrashBeforeDirSync: a checkpoint renamed the new meta.snap
// into place and the host died before the data directory's fsync. Whether
// the rename survives (undo 0) or not (the rename undone; every change
// undone), the reopen finds an image it can trust — the new one or,
// byte for byte, the one before — and returns every tuple exactly once.
func TestCheckpointCrashBeforeDirSync(t *testing.T) {
	for _, undo := range []int{0, 1, math.MaxInt} {
		t.Run("undo="+undoName(undo), func(t *testing.T) {
			rec := &fileOps{}
			cfg := orphanConfig(t)
			cfg.Files = rec.files(cfg.DataDir)
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			seqBatch(t, c, 0, 2000, 100)
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			snap := metaSnapPath(cfg.DataDir)
			old, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			seqBatch(t, c, 2000, 1000, 100)
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := c.IndexServers()[0].FlushAll(); err != nil {
				t.Fatal(err)
			}
			stop := rec.record(opDataDirSync)
			if err := c.Checkpoint(); err == nil {
				t.Fatal("a checkpoint whose data directory fsync failed succeeded")
			}
			stop()
			renamed, err := os.ReadFile(snap)
			if err != nil || bytes.Equal(renamed, old) {
				t.Fatalf("test premise: meta.snap after the failed checkpoint (%v) is the image from before it", err)
			}
			if err := c.crash(undo); err != nil {
				t.Fatal(err)
			}
			want := old
			if undo == 0 {
				want = renamed
			}
			if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("meta.snap after the crash: %d bytes, %v; want the %d of the image the surviving rename names", len(got), err, len(want))
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
	if n := c.DropChunksBefore(1500); n == 0 {
		t.Fatal("test premise: no chunk ends before 1500")
	}
	armed.Store(true)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !failed.Load() {
		t.Fatal("test premise: the checkpoint's sweep unlinked no chunk")
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requireOnlyRegisteredChunks(t, c, cfg.DataDir, "after the next checkpoint")
}
