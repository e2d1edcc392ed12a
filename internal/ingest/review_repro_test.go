package ingest

import (
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// Repro 1: DFS outage fills the flush queue and the only inserter waits on
// backpressure, so nothing swaps and nothing steps the parked flusher.
// After the DFS recovers, only the flusher's own backoff can retry.
func TestReproBackpressureDeadlock(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	fw := &flakyWriter{inner: fs}
	fw.fail.Store(true)
	srv := NewServer(Config{ID: 0, ChunkBytes: 16 * 100, Leaves: 16, FlushQueueDepth: 1, SideThresholdMillis: -1}, fw, ms, 0)

	var inserted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
			inserted.Add(1)
		}
	}()

	// Wait until the pipeline is provably wedged: the flusher is parked on
	// the failed write and an inserter has hit backpressure on the full
	// queue — deterministic state, not a wall-clock stall heuristic.
	waitFor(t, func() bool {
		return srv.parked.Load() && srv.stats.Backpressure.Load() > 0
	})

	// DFS recovers.
	fw.fail.Store(false)
	select {
	case <-done:
		t.Log("inserter finished after recovery — no deadlock")
		srv.Close()
	case <-time.After(3 * time.Second):
		t.Fatalf("DEADLOCK: inserter stuck at %d/1000 tuples 3s after DFS recovery", inserted.Load())
	}
}

// Repro 2: after Close no flusher goroutine exists. A Flush that finds an
// earlier failed snapshot (memtable empty) once waited for a retry nobody
// would make; a closed server now flushes nothing, so Flush returns at once
// and registers nothing, and the snapshot's tuples are left to the log.
func TestReproPostCloseFlushRetryHang(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	fw := &flakyWriter{inner: fs}
	fw.fail.Store(true)
	srv := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 16, SideThresholdMillis: -1}, fw, ms, 0)
	for i := 0; i < 100; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	if _, ok := srv.Flush(); ok {
		t.Fatal("flush should fail while DFS is down")
	}
	srv.Close() // the parked flusher abandons the failed snapshot and exits
	fw.fail.Store(false)
	if _, ok := returnsWithin(t, srv.Flush); ok {
		t.Fatal("a flush after Close reported success")
	}
	if n := ms.ChunkCount(); n != 0 {
		t.Fatalf("a flush after Close registered %d chunks", n)
	}
	if n := srv.PendingFlushes(); n != 1 {
		t.Fatalf("%d snapshots unpersisted after Close, want the failed one", n)
	}
}
