package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// gatedWriter holds every Write until the gate opens — injected DFS
// latency, arbitrarily long.
type gatedWriter struct {
	inner   ChunkWriter
	gate    chan struct{}
	entered chan string // receives each path as its Write begins
}

func (w *gatedWriter) Write(name string, data []byte) error {
	w.entered <- name
	<-w.gate
	return w.inner.Write(name, data)
}

// flakyWriter fails every Write while fail is set.
type flakyWriter struct {
	inner ChunkWriter
	fail  atomic.Bool
}

func (w *flakyWriter) Write(name string, data []byte) error {
	if w.fail.Load() {
		return errors.New("injected DFS failure")
	}
	return w.inner.Write(name, data)
}

func newPipelineEnv(t *testing.T, w func(ChunkWriter) ChunkWriter, cfg Config) (*Server, *meta.Server) {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	cfg.ID = 0
	if cfg.Leaves == 0 {
		cfg.Leaves = 16
	}
	srv := NewServer(cfg, w(fs), ms, 0)
	t.Cleanup(srv.Close)
	return srv, ms
}

// TestQueryableWhileFlushInFlight is the tentpole's visibility guarantee:
// with DFS write latency injected, a query issued while the flush is in
// flight still returns every tuple of the pending snapshot — there is no
// blind window between FlushReset and RegisterChunk.
func TestQueryableWhileFlushInFlight(t *testing.T) {
	gw := &gatedWriter{gate: make(chan struct{}), entered: make(chan string, 16)}
	srv, ms := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { gw.inner = fs; return gw }, Config{ChunkBytes: 1 << 30})
	for i := 0; i < 300; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(1000 + i)})
	}
	go srv.Flush()
	<-gw.entered // the flusher is now inside the DFS write

	// Mid-flight: chunk not registered, every tuple still visible, and the
	// live region still covers the snapshot.
	if n := ms.ChunkCount(); n != 0 {
		t.Fatalf("chunk registered before DFS write finished: %d", n)
	}
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 300 {
		t.Fatalf("mid-flight query saw %d tuples, want 300", len(got))
	}
	if min, _, ok := srv.MemBounds(); !ok || min != 1000 {
		t.Fatalf("live region dropped the pending snapshot: min=%d ok=%v", min, ok)
	}
	if n := srv.PendingFlushes(); n != 1 {
		t.Fatalf("PendingFlushes = %d, want 1", n)
	}

	close(gw.gate)
	srv.DrainFlushes()
	waitFor(t, func() bool { return ms.ChunkCount() == 1 })
	// Registered: a horizon-less query (memtable only) no longer sees the
	// snapshot — the tuples' home is the chunk now.
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 0 {
		t.Fatalf("tuples duplicated after registration: %d", len(got))
	}
	if min, _, ok := srv.MemBounds(); ok {
		t.Fatalf("live region should be empty after flush, got min=%d", min)
	}
}

// TestPendingSnapshotServedForPlannedQuery covers the horizon rule: a
// query whose plan predates the chunk registration (AsOfChunk at or below
// the chunk's ID) is still served the snapshot from memory, while a query
// planned afterwards is not.
func TestPendingSnapshotServedForPlannedQuery(t *testing.T) {
	gw := &gatedWriter{gate: make(chan struct{}), entered: make(chan string, 16)}
	srv, ms := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { gw.inner = fs; return gw }, Config{ChunkBytes: 1 << 30})
	for i := 0; i < 100; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	// Plan "a query" now: its horizon is the next chunk ID. Register it so
	// the snapshot stays pinned past its registration.
	q := ms.RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	_, horizon := ms.ChunksForWithWatermark(model.FullRegion())
	defer ms.CompleteQuery(q.ID)

	go srv.Flush()
	<-gw.entered
	close(gw.gate)
	srv.DrainFlushes()
	waitFor(t, func() bool { return ms.ChunkCount() == 1 })

	planned := &model.SubQuery{
		Region:    model.Region{Keys: model.FullKeyRange(), Times: model.FullTimeRange()},
		AsOfChunk: horizon,
	}
	if got := srv.ExecuteSubQuery(planned); got.Len() != 100 {
		t.Fatalf("pre-registration plan got %d tuples from memory, want 100", got.Len())
	}
	_, after := ms.ChunksForWithWatermark(model.FullRegion())
	late := &model.SubQuery{
		Region:    model.Region{Keys: model.FullKeyRange(), Times: model.FullTimeRange()},
		AsOfChunk: after,
	}
	if got := srv.ExecuteSubQuery(late); got.Len() != 0 {
		t.Fatalf("post-registration plan got %d tuples from memory, want 0 (chunk serves them)", got.Len())
	}
}

// TestBackpressureBoundsQueue pins the bound exactly: with a write stalled,
// FlushQueueDepth units queue behind it and the swap of one more blocks its
// inserter (and is counted), so PendingFlushes reaches FlushQueueDepth+2
// and no more; no insert returns with more than FlushQueueDepth+1 pending.
// Releasing the DFS drains everything.
func TestBackpressureBoundsQueue(t *testing.T) {
	const depth = 1
	gw := &gatedWriter{gate: make(chan struct{}), entered: make(chan string, 16)}
	srv, ms := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { gw.inner = fs; return gw },
		Config{ChunkBytes: 16 * 100, FlushQueueDepth: depth, SideThresholdMillis: -1})
	// Opened on every way out, so a failure reports instead of hanging the
	// cleanup's Close on a gated write.
	release := sync.OnceFunc(func() { close(gw.gate) })
	defer release()
	var over atomic.Int64 // pending units an insert returned with, past the bound
	done := make(chan struct{})
	go func() {
		defer close(done)
		// ~16 B per payload-less tuple: crosses the threshold 5 times. One
		// unit stalls in the gated write, `depth` queue behind it, and the
		// next crossing blocks the inserter.
		for i := 0; i < 550; i++ {
			srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
			if n := srv.PendingFlushes(); n > depth+1 {
				over.Store(int64(n))
			}
		}
	}()
	waitFor(t, func() bool { return srv.Stats().Backpressure.Load() > 0 })
	if n := srv.PendingFlushes(); n != depth+2 {
		t.Fatalf("PendingFlushes = %d with the write stalled and an inserter blocked, want FlushQueueDepth+2 = %d", n, depth+2)
	}
	select {
	case <-done:
		t.Fatal("the inserter finished with the write stalled")
	default:
	}
	release()
	<-done
	srv.DrainFlushes()
	if n := over.Load(); n != 0 {
		t.Fatalf("an insert returned with %d units pending, want at most FlushQueueDepth+1 = %d", n, depth+1)
	}
	waitFor(t, func() bool { return ms.ChunkCount() == 5 })
}

// TestFlusherExitReleasesBackpressure: an inserter blocked on backpressure
// is let go whenever the flusher exits, however it exits, and Abort ends the
// flusher wherever it is parked.
func TestFlusherExitReleasesBackpressure(t *testing.T) {
	cfg := Config{ChunkBytes: 16 * 100, FlushQueueDepth: 1, SideThresholdMillis: -1}
	insert := func(srv *Server, n int) {
		for i := 0; i < n; i++ {
			srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
		}
	}
	// Abort during an outage: the flusher is parked on a failing write and
	// an inserter on backpressure; Abort takes no lock the inserter holds.
	t.Run("abort", func(t *testing.T) {
		fw := &flakyWriter{}
		fw.fail.Store(true)
		srv, _ := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { fw.inner = fs; return fw }, cfg)
		inserted := make(chan struct{})
		go func() { defer close(inserted); insert(srv, 1000) }()
		waitFor(t, func() bool { return srv.parked.Load() && srv.Stats().Backpressure.Load() > 0 })
		within(t, "Abort", srv.Abort)
		within(t, "the inserter blocked on backpressure", func() { <-inserted })
	})
	// Abort on an idle server: a flusher parked with nothing to do has no
	// backoff timer, so Abort's own step is the only thing that wakes it.
	t.Run("idle", func(t *testing.T) {
		srv, _ := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { return fs }, cfg)
		insert(srv, 150)
		if err := srv.DrainFlushes(); err != nil {
			t.Fatal(err)
		}
		within(t, "Abort", srv.Abort)
	})
	// Fenced: the first registration deposes the flusher. The swaps after it
	// must not wait for a flusher that is gone, and neither may Close.
	t.Run("fenced", func(t *testing.T) {
		srv, ms := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { return fs }, cfg)
		defer srv.Abort() // lets a wedged inserter go, so a failure reports
		if _, _, err := ms.TransferOwnership(0); err != nil {
			t.Fatal(err)
		}
		within(t, "four threshold crossings", func() { insert(srv, 450) })
		within(t, "Close", srv.Close)
	})
}

// within fails the test unless fn returns within 5 s.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("HANG: %s did not return within 5 s", what)
	}
}

// TestOffsetsCommitInSnapshotOrder is the crash-safety half of the
// pipeline: a failed DFS write must hold back the WAL offset commit of
// every later snapshot, so a restart replays no gap — at most the
// uncommitted tail, never a hole.
func TestOffsetsCommitInSnapshotOrder(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	fw := &flakyWriter{inner: fs}
	fw.fail.Store(true)
	p := wal.NewPartition()
	for i := 0; i < 350; i++ {
		p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}))
	}
	// Threshold every ~100 tuples: three snapshots swap out while every
	// DFS write fails.
	srv := NewServer(Config{ID: 0, ChunkBytes: 16 * 100, Leaves: 16, FlushQueueDepth: 8, SideThresholdMillis: -1}, fw, ms, 0)
	defer srv.Close()
	stop := make(chan struct{})
	consDone := make(chan struct{})
	go func() { srv.Consume(p, stop); close(consDone) }()
	// Consumed, not Stats().Ingested: the counter moves before the batch is
	// in the tree, the offset after.
	waitFor(t, func() bool { return srv.Consumed() == p.Next() })
	waitFor(t, func() bool { return srv.Stats().FlushFailures.Load() >= 1 && srv.PendingFlushes() >= 3 })

	// Nothing may commit while the oldest snapshot is unpersisted: no
	// chunk, no offset — even though later snapshots are queued behind it.
	if got := ms.Offset(0); got != 0 {
		t.Fatalf("offset advanced to %d past an unpersisted snapshot", got)
	}
	if n := ms.ChunkCount(); n != 0 {
		t.Fatalf("chunks registered out of order during outage: %d", n)
	}
	// Everything remains queryable from the pending snapshots meanwhile.
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 350 {
		t.Fatalf("tuples lost during outage: %d, want 350", len(got))
	}

	// DFS recovers: Flush drives the retry and the tail, strictly in
	// order; offsets then cover the whole prefix.
	fw.fail.Store(false)
	if _, ok := srv.Flush(); !ok {
		t.Fatal("flush retry failed after DFS recovery")
	}
	srv.DrainFlushes()
	if got, want := ms.Offset(0), srv.Consumed(); got != want {
		t.Fatalf("offset = %d after full drain, want %d", got, want)
	}
	if srv.MemLen() != 0 {
		t.Fatalf("MemLen = %d after full drain, want 0", srv.MemLen())
	}
	close(stop)
	p.Append(model.AppendTuple(nil, &model.Tuple{Key: 999, Time: 999})) // wake the blocked read
	<-consDone

	// "Crash" and restart: the replacement replays only the post-offset
	// tail (the wake tuple), and chunks + memtable account for every tuple
	// exactly once.
	srv2 := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 16}, fs, ms, 0)
	defer srv2.Close()
	stop2 := make(chan struct{})
	go srv2.Consume(p, stop2)
	waitFor(t, func() bool { return srv2.Consumed() == p.Next() })
	close(stop2)
	total := srv2.MemLen()
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		total += ci.Count
	}
	if total != 351 {
		t.Fatalf("chunks+memtable hold %d tuples after restart, want 351 (no gap, no duplicates)", total)
	}
	if rec := srv2.Stats().Recovered.Load(); rec != 1 {
		t.Fatalf("replayed %d records, want 1 (only the uncommitted tail)", rec)
	}
}

// TestSyncWALGatesOffsetCommit is the durability barrier of the flush
// path: a flush unit must not register its chunk or commit its WAL offset
// until the log is fsynced up to the unit's offset. A failing SyncWAL
// fails the flush attempt (stop the line, tuples stay queryable from the
// pending snapshot); once the log heals, the retry commits as usual and
// the fsync provably covered the committed offset.
func TestSyncWALGatesOffsetCommit(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	var syncFail atomic.Bool
	syncFail.Store(true)
	var syncedTo atomic.Int64
	cfg := Config{
		ID: 0, ChunkBytes: 16 * 100, Leaves: 16, FlushQueueDepth: 8,
		SideThresholdMillis: -1,
		SyncWAL: func(upTo int64) error {
			if syncFail.Load() {
				return errors.New("injected fsync failure")
			}
			if upTo > syncedTo.Load() {
				syncedTo.Store(upTo)
			}
			return nil
		},
	}
	p := wal.NewPartition()
	for i := 0; i < 150; i++ {
		p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}))
	}
	srv := NewServer(cfg, fs, ms, 0)
	defer srv.Close()
	stop := make(chan struct{})
	consDone := make(chan struct{})
	go func() { srv.Consume(p, stop); close(consDone) }()
	// Consumed, not Stats().Ingested: the counter moves when a block enters
	// insertBatchAt, the offset once the block is in a tree — and the
	// consumer cuts these 150 records into a block of 100 and one of 50.
	waitFor(t, func() bool { return srv.Consumed() == 150 })
	waitFor(t, func() bool { return srv.Stats().FlushFailures.Load() >= 1 })

	// The unsynced snapshot must hold everything back: no chunk, no offset.
	if got := ms.Offset(0); got != 0 {
		t.Fatalf("offset advanced to %d past an unsynced WAL prefix", got)
	}
	if n := ms.ChunkCount(); n != 0 {
		t.Fatalf("chunk registered before its WAL prefix was synced: %d", n)
	}
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 150 {
		t.Fatalf("tuples lost during the fsync outage: %d, want 150", len(got))
	}

	// Log heals: the retry syncs, registers and commits.
	syncFail.Store(false)
	if _, ok := srv.Flush(); !ok {
		t.Fatal("flush retry failed after the WAL healed")
	}
	srv.DrainFlushes()
	waitFor(t, func() bool { return ms.ChunkCount() >= 1 })
	if got, want := ms.Offset(0), srv.Consumed(); got != want {
		t.Fatalf("offset = %d after drain, want %d", got, want)
	}
	if got := syncedTo.Load(); got < ms.Offset(0) {
		t.Fatalf("offset %d committed beyond the last synced offset %d", ms.Offset(0), got)
	}
	close(stop)
	p.Append(model.AppendTuple(nil, &model.Tuple{Key: 999, Time: 999})) // wake the blocked read
	<-consDone
}

// TestCloseDrainsQueue: shutdown waits for queued snapshots instead of
// dropping them, and post-Close flushes still work (inline).
func TestCloseDrainsQueue(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	srv := NewServer(Config{ID: 0, ChunkBytes: 16 * 100, Leaves: 16, SideThresholdMillis: -1}, fs, ms, 0)
	for i := 0; i < 250; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	srv.Close()
	srv.DrainFlushes()
	// Close drained the queued snapshots: every full memtable is a chunk.
	chunks, tail := ms.ChunkCount(), srv.MemLen()
	if chunks < 2 || tail == 0 || tail >= 250 {
		t.Fatalf("after Close: %d chunks, %d tuples buffered; want >= 2 chunks and the tail buffered", chunks, tail)
	}
	// A closed server flushes nothing more: Flush returns at once, and the
	// ~50-tuple tail stays in the memtable (and in the log, for a replay).
	if _, ok := returnsWithin(t, srv.Flush); ok {
		t.Fatal("a flush after Close reported success")
	}
	if got := ms.ChunkCount(); got != chunks {
		t.Fatalf("a flush after Close registered %d chunks", got-chunks)
	}
	if got := srv.MemLen(); got != tail {
		t.Fatalf("MemLen = %d after Close + Flush, want the %d-tuple tail", got, tail)
	}
	srv.Close() // idempotent
}

// returnsWithin runs flush and fails the test unless it returns within 5 s.
func returnsWithin(t *testing.T, flush func() (meta.ChunkInfo, bool)) (info meta.ChunkInfo, ok bool) {
	t.Helper()
	within(t, "Flush on a closed server", func() { info, ok = flush() })
	return info, ok
}

// TestSwapBetweenBoundsAndInsertKeepsLiveRegion is the regression test for
// the race behind chaos seed 01's "57 acked tuples missing at barrier": a
// flush swap that lands after a batch has updated the live bounds but
// before it is in a tree resets hasData while the batch goes into the
// fresh tree, and once the swapped snapshot registers MemBounds reads an
// empty memtable over a non-empty one — no query plans a mem-subquery for
// it, and the acked tuples stay invisible until a later insert moves the
// bounds again. The test forces that order: it holds
// pendMu as a reader, queues the swap behind it as a writer, starts the
// batch while the writer is pending, and then lets both go.
func TestSwapBetweenBoundsAndInsertKeepsLiveRegion(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	defer srv.Close()
	srv.Insert(model.Tuple{Key: 1, Time: 5000})

	srv.pendMu.RLock()
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		srv.Flush()
	}()
	// A writer waiting on an RWMutex turns new readers away: TryRLock
	// fails from the moment the swap is queued behind our read lock.
	waitFor(t, func() bool {
		if srv.pendMu.TryRLock() {
			srv.pendMu.RUnlock()
			return false
		}
		return true
	})
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		srv.InsertBatch([]model.Tuple{{Key: 7, Time: 4000}, {Key: 9, Time: 4001}})
	}()
	waitFor(t, func() bool { return srv.stats.Ingested.Load() == 3 })
	// The batch is now inside insertBatchAt, headed for pendMu. The pause
	// only gives a wrong ordering time to do its damage (bounds updated
	// ahead of the lock); the right one passes with or without it.
	time.Sleep(5 * time.Millisecond)
	srv.pendMu.RUnlock()
	<-flushed
	<-inserted
	srv.DrainFlushes()

	if got := srv.MemLen(); got != 2 {
		t.Fatalf("memtable holds %d tuples after the swap, want the batch's 2", got)
	}
	min, keys, ok := srv.MemBounds()
	if !ok {
		t.Fatal("MemBounds empty over a non-empty memtable: the batch is invisible to query planning")
	}
	if min > 4000 || !keys.Contains(7) || !keys.Contains(9) {
		t.Fatalf("MemBounds (min %d, keys %v) does not cover the batch (keys 7, 9 from time 4000)", min, keys)
	}
}

// squattedWriter refuses every Write the way the DFS refuses a taken name.
type squattedWriter struct{ inner ChunkWriter }

func (w squattedWriter) Write(name string, data []byte) error {
	return fmt.Errorf("%w: %s", dfs.ErrExists, name)
}

// TestUnretryableWriteEndsTheFlusher: dfs.ErrExists fails the same way at
// every retry. The flusher gives up after one attempt instead of parking:
// Flush and DrainFlushes return, DrainFlushes with the error, an inserter
// blocked on the full queue is let go, and the tuples stay queryable from
// memory — uncommitted, for whoever replays the log.
func TestUnretryableWriteEndsTheFlusher(t *testing.T) {
	srv, ms := newPipelineEnv(t, func(fs ChunkWriter) ChunkWriter { return squattedWriter{fs} },
		Config{ChunkBytes: 4 << 10, FlushQueueDepth: 1})
	done := make(chan error, 1)
	go func() {
		// Several thresholds' worth: without the release the second or third
		// crossing would block on the one-slot queue for good.
		for i := 0; i < 2000; i++ {
			srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(1000 + i), Payload: make([]byte, 16)})
		}
		done <- srv.FlushAll()
	}()
	select {
	case err := <-done:
		if !errors.Is(err, dfs.ErrExists) {
			t.Fatalf("FlushAll: %v, want dfs.ErrExists", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inserts or FlushAll parked behind a write that cannot succeed")
	}
	if err := srv.DrainFlushes(); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("DrainFlushes: %v, want dfs.ErrExists", err)
	}
	if n := srv.Stats().FlushFailures.Load(); n != 1 {
		t.Fatalf("%d flush attempts failed, want the one that ended the flusher", n)
	}
	if ms.ChunkCount() != 0 || ms.Offset(0) != 0 {
		t.Fatalf("%d chunks registered, offset %d committed, by a flusher that wrote nothing", ms.ChunkCount(), ms.Offset(0))
	}
	res := srv.ExecuteSubQuery(&model.SubQuery{Region: model.FullRegion()})
	if res.Len() != 2000 {
		t.Fatalf("%d of 2000 tuples still served from memory", res.Len())
	}
}
