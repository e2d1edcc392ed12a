package ingest

import (
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

func newTestEnv(chunkBytes int64) (*Server, *dfs.FS, *meta.Server) {
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	srv := NewServer(Config{
		ID: 0, ChunkBytes: chunkBytes, Leaves: 16,
		SideThresholdMillis: 60_000,
	}, fs, ms, 0)
	return srv, fs, ms
}

func memQuery(s *Server, kr model.KeyRange, tr model.TimeRange) []model.Tuple {
	res := s.ExecuteSubQuery(&model.SubQuery{
		Region: model.Region{Keys: kr, Times: tr},
	})
	var out []model.Tuple
	for _, run := range res.Runs {
		ts, err := model.DecodeTuples(run.Buf)
		if err != nil {
			panic(err)
		}
		out = append(out, ts...)
	}
	return out
}

func TestInsertImmediatelyVisible(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	srv.Insert(model.Tuple{Key: 42, Time: 1000, Payload: []byte("p")})
	got := memQuery(srv, model.KeyRange{Lo: 42, Hi: 42}, model.FullTimeRange())
	if len(got) != 1 || string(got[0].Payload) != "p" {
		t.Fatalf("tuple not visible: %v", got)
	}
}

func TestFlushAtThreshold(t *testing.T) {
	// ~36-byte tuples; threshold 10 KB → flush after ~280 inserts.
	srv, fs, ms := newTestEnv(10 << 10)
	for i := 0; i < 2000; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i), Payload: make([]byte, 20)})
	}
	srv.DrainFlushes() // flushes are asynchronous; settle before asserting
	if srv.Stats().Flushes.Load() == 0 {
		t.Fatal("no flush happened")
	}
	if len(fs.List()) == 0 {
		t.Fatal("no chunk files written")
	}
	if ms.ChunkCount() == 0 {
		t.Fatal("no chunks registered")
	}
	// Registered chunk regions cover exactly the flushed tuples.
	total := 0
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		total += ci.Count
	}
	total += srv.MemLen()
	if total != 2000 {
		t.Fatalf("chunks+memtable hold %d tuples, want 2000", total)
	}
}

func TestFlushRegistersTightRegion(t *testing.T) {
	srv, _, ms := newTestEnv(1 << 30)
	for i := 100; i < 200; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(5000 + i)})
	}
	info, ok := srv.Flush()
	if !ok {
		t.Fatal("flush declined")
	}
	if info.Region.Keys != (model.KeyRange{Lo: 100, Hi: 199}) {
		t.Errorf("key region %v", info.Region.Keys)
	}
	if info.Region.Times != (model.TimeRange{Lo: 5100, Hi: 5199}) {
		t.Errorf("time region %v", info.Region.Times)
	}
	if info.Count != 100 {
		t.Errorf("count %d", info.Count)
	}
	if _, ok := ms.Chunk(info.ID); !ok {
		t.Error("chunk not in metadata")
	}
	// Memtable now empty; live region empty.
	if srv.MemLen() != 0 {
		t.Errorf("memtable holds %d after flush", srv.MemLen())
	}
	if min, keys, ok := srv.MemBounds(); ok {
		t.Errorf("MemBounds not empty after flush: min %d, keys %v", min, keys)
	}
	// Flushing again is a no-op.
	if _, ok := srv.Flush(); ok {
		t.Error("empty flush succeeded")
	}
}

func TestLateTuplesGoToSideStore(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	// Advance the watermark to t=200 000.
	srv.Insert(model.Tuple{Key: 1, Time: 200_000})
	// 30 s late: within threshold, stays in the main tree.
	srv.Insert(model.Tuple{Key: 2, Time: 170_000})
	if srv.Stats().SideRouted.Load() != 0 {
		t.Error("mildly late tuple routed to side store")
	}
	// 100 s late: beyond the 60 s threshold → side store.
	srv.Insert(model.Tuple{Key: 3, Time: 100_000})
	if srv.Stats().SideRouted.Load() != 1 {
		t.Error("very late tuple not routed to side store")
	}
	// Both are still visible to memtable subqueries.
	got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange())
	if len(got) != 3 {
		t.Fatalf("visible %d, want 3", len(got))
	}
	// Live min time covers the late tuple.
	min, _, ok := srv.MemBounds()
	if !ok || min != 100_000 {
		t.Errorf("MemMinTime = %d, %v", min, ok)
	}
}

func TestSideStoreKeepsMainRegionTight(t *testing.T) {
	srv, _, ms := newTestEnv(1 << 30)
	for i := 0; i < 100; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(1_000_000 + i)})
	}
	// One catastrophically late tuple.
	srv.Insert(model.Tuple{Key: 50, Time: 5})
	srv.FlushAll()
	chunks := ms.ChunksFor(model.FullRegion())
	if len(chunks) != 2 {
		t.Fatalf("want 2 chunks (main+side), got %d", len(chunks))
	}
	// The main chunk's temporal region must not be stretched to t=5.
	var mainTight bool
	for _, c := range chunks {
		if c.Count == 100 && c.Region.Times.Lo == 1_000_000 {
			mainTight = true
		}
	}
	if !mainTight {
		t.Errorf("main chunk region stretched by the late tuple: %+v", chunks)
	}
}

func TestSideStoreDisabled(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	srv := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, SideThresholdMillis: -1}, fs, ms, 0)
	srv.Insert(model.Tuple{Key: 1, Time: 1_000_000})
	srv.Insert(model.Tuple{Key: 2, Time: 5}) // very late, but side store off
	if srv.Stats().SideRouted.Load() != 0 {
		t.Error("side store used despite being disabled")
	}
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 2 {
		t.Errorf("visible %d", len(got))
	}
}

func TestMemtableSubQueryFilters(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	for i := 0; i < 100; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i * 10)})
	}
	res := srv.ExecuteSubQuery(&model.SubQuery{
		Region: model.Region{
			Keys:  model.KeyRange{Lo: 10, Hi: 50},
			Times: model.TimeRange{Lo: 200, Hi: 400},
		},
		Filter: model.KeyMod(2, 0),
	})
	// Keys 20..40 even → 11 tuples.
	if res.Len() != 11 {
		t.Fatalf("got %d tuples, want 11", res.Len())
	}
}

func TestConsumeAndRecovery(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	p := wal.NewPartition()

	// Producer appends 500 tuples.
	for i := 0; i < 500; i++ {
		p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}))
	}

	// First server consumes 500, flushes at ~300 via threshold.
	srv1 := NewServer(Config{ID: 0, ChunkBytes: 16 * 300}, fs, ms, 0) // payload-less tuples are 16 B
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { srv1.Consume(p, stop); close(done) }()
	waitFor(t, func() bool { return srv1.Stats().Ingested.Load() == 500 })
	close(stop)
	p.Append(model.AppendTuple(nil, &model.Tuple{Key: 999, Time: 999})) // wake the blocked read
	<-done
	srv1.DrainFlushes() // let the threshold flush commit its offset

	flushedOffset := ms.Offset(0)
	if flushedOffset == 0 {
		t.Fatal("no offset recorded at flush")
	}
	memBefore := srv1.MemLen()
	if memBefore == 0 {
		t.Fatal("expected unflushed tail in memtable")
	}

	// "Crash": srv1 vanishes. A new server recovers from the WAL.
	srv2 := NewServer(Config{ID: 0, ChunkBytes: 1 << 30}, fs, ms, 0)
	stop2 := make(chan struct{})
	done2 := make(chan struct{})
	go func() { srv2.Consume(p, stop2); close(done2) }()
	waitFor(t, func() bool {
		return srv2.Consumed() == p.Next()
	})
	close(stop2)
	p.Append(model.AppendTuple(nil, &model.Tuple{Key: 0, Time: 0}))
	<-done2

	// srv2 replayed everything from the stored offset: its memtable holds
	// the tuples srv1 had not flushed (501 total appended after offset,
	// minus the wake-up tuple consumed too).
	wantReplayed := p.Next() - flushedOffset - 1 // exclude the final wake-up append
	if got := srv2.Stats().Recovered.Load(); got < wantReplayed {
		t.Errorf("recovered %d records, want >= %d", got, wantReplayed)
	}
	// No flushed data was replayed twice: chunks + srv2 memtable == all.
	total := srv2.MemLen()
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		total += ci.Count
	}
	if total < 501 { // 500 + wake-up tuple
		t.Errorf("chunks+memtable = %d, want >= 501", total)
	}
}

func TestSetKeys(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	srv.SetKeys(model.KeyRange{Lo: 100, Hi: 200})
	// Tuples outside the new nominal range still land (overlap window).
	srv.Insert(model.Tuple{Key: 50, Time: 1})
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 1 {
		t.Errorf("tuple lost after SetKeys: %d", len(got))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestSideStoreFlushesIndependently(t *testing.T) {
	// A flood of very late tuples fills the side store to its quarter-of-
	// chunk threshold and flushes as its own chunk.
	srv, _, ms := newTestEnv(16 << 10) // side threshold = 4 KiB ≈ 256 tuples
	srv.Insert(model.Tuple{Key: 1, Time: 10_000_000})
	for i := 0; i < 500; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}) // ~10^7 ms late
	}
	if srv.Stats().SideRouted.Load() != 500 {
		t.Fatalf("side routed %d, want 500", srv.Stats().SideRouted.Load())
	}
	srv.DrainFlushes() // side flushes ride the same async pipeline
	if ms.ChunkCount() == 0 {
		t.Fatal("side store never flushed")
	}
	// Every tuple remains visible across memtables and chunks... memtable
	// only here; chunk visibility is the query servers' job, so just check
	// accounting.
	total := srv.MemLen()
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		total += ci.Count
	}
	if total != 501 {
		t.Fatalf("accounted %d, want 501", total)
	}
}

func TestWatermarkMonotone(t *testing.T) {
	srv, _, _ := newTestEnv(1 << 30)
	times := []model.Timestamp{100, 50, 200, 150, 90, 300}
	for i, ts := range times {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: ts})
	}
	// All tuples visible regardless of arrival order.
	got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange())
	if len(got) != len(times) {
		t.Fatalf("visible %d, want %d", len(got), len(times))
	}
	min, _, ok := srv.MemBounds()
	if !ok || min != 50 {
		t.Fatalf("MemMinTime = %d, %v; want 50", min, ok)
	}
}

func TestFlushSurvivesDFSOutage(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	srv := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 8}, fs, ms, 0)
	for i := 0; i < 200; i++ {
		srv.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	fs.KillNode(0) // no live datanodes: writes must fail
	if _, ok := srv.Flush(); ok {
		t.Fatal("flush claimed success during DFS outage")
	}
	// Data still queryable from the memtable and nothing was registered.
	if got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange()); len(got) != 200 {
		t.Fatalf("tuples lost during failed flush: %d", len(got))
	}
	if ms.ChunkCount() != 0 {
		t.Fatal("phantom chunk registered")
	}
	// Recovery of the datanode lets the retry succeed. The parked flusher
	// retries on its own (capped backoff), so Flush may race it: either the
	// snapshot is already durable (head gone → ok=false) or a final
	// pre-revive attempt fails after Flush sampled the attempt counter. Both
	// converge — wait for the pipeline to drain instead of trusting ok.
	fs.ReviveNode(0)
	if _, ok := srv.Flush(); !ok {
		waitFor(t, func() bool { return srv.PendingFlushes() == 0 })
	}
	if srv.MemLen() != 0 || ms.ChunkCount() != 1 {
		t.Fatalf("retry state: mem=%d chunks=%d", srv.MemLen(), ms.ChunkCount())
	}
}

// TestConsumeRefusesReplayGap: a consumer whose replay offset fell below
// the log's horizon must not carry on from the horizon — the records in
// between were acked and are in no chunk. It counts the gap and returns a
// typed error. (The old code clamped the start up to the horizon in
// silence; no test depended on that.)
func TestConsumeRefusesReplayGap(t *testing.T) {
	srv, _, ms := newTestEnv(1 << 30)
	p := wal.NewPartition()
	for i := 0; i < 10; i++ {
		p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}))
	}
	ms.RegisterFlushOwned(0, ms.Epoch(0), nil, 3)
	p.Truncate(6) // retention ran past the committed offset: a bug elsewhere
	err := srv.Consume(p, make(chan struct{}))
	if !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("Consume over a replay gap returned %v, want an error wrapping wal.ErrCompacted", err)
	}
	if n := srv.Stats().ReplayGaps.Load(); n != 1 {
		t.Fatalf("ReplayGaps = %d, want 1", n)
	}
	if n := srv.Stats().Ingested.Load(); n != 0 {
		t.Fatalf("consumer applied %d tuples past a gap", n)
	}
}

// TestFlushCommitReleasesWAL: every flush commit hands the committed
// offset to TruncateWAL — after the commit is in the metadata server and
// with no server lock held (the callback reads server state) — and wired
// to Partition.Truncate it leaves exactly the uncommitted suffix resident.
func TestFlushCommitReleasesWAL(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	p := wal.NewPartition()
	var srv *Server
	var released []int64
	srv = NewServer(Config{
		ID: 0, ChunkBytes: 16 * 100, // payload-less tuples are 16 B
		TruncateWAL: func(committed int64) {
			if got := ms.Offset(0); got != committed {
				t.Errorf("TruncateWAL(%d) while the metadata server holds offset %d", committed, got)
			}
			srv.MemLen() // takes pendMu: deadlocks if the callback ran under it
			released = append(released, committed)
			p.Truncate(committed)
		},
	}, fs, ms, 0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { srv.Consume(p, stop); close(done) }()
	for i := 0; i < 1000; i++ {
		p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}))
	}
	waitFor(t, func() bool { return srv.Consumed() == p.Next() })
	close(stop)
	<-done
	srv.Close() // the flusher has exited: its last release happened-before this
	if len(released) == 0 {
		t.Fatal("no flush commit reached TruncateWAL")
	}
	for i := 1; i < len(released); i++ {
		if released[i] <= released[i-1] {
			t.Fatalf("released offsets not increasing: %v", released)
		}
	}
	committed := ms.Offset(0)
	if last := released[len(released)-1]; last != committed {
		t.Fatalf("last release %d, committed offset %d", last, committed)
	}
	if p.Base() != committed || int64(p.Len()) != p.Next()-committed || p.Len() != srv.MemLen() {
		t.Fatalf("base=%d resident=%d memtable=%d, want base=%d and the %d uncommitted records resident",
			p.Base(), p.Len(), srv.MemLen(), committed, p.Next()-committed)
	}
}

// TestConsumeBlockAllocsDoNotGrowWithLength: a consumer applies a block of
// its log from scratch it owns — the records its read fills, the tuples they
// decode to (payloads aliasing the records: the one copy between the WAL
// window and a leaf arena is the tree's, on insert), the split into main
// and side tuples — so a block allocates nothing beyond what the trees
// allocate to hold it, however long the block. The trees' share is measured
// on a twin pair of trees fed the same tuples in the same order, and taken
// off. Once applied, the scratch holds no alias of the block.
func TestConsumeBlockAllocsDoNotGrowWithLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops entries at random")
	}
	for _, n := range []int{64, 1024} {
		b := consumeBlockOverhead(t, n)
		t.Logf("a %d-record block: %.0f bytes beyond its trees' growth", n, b)
		if b > 256 {
			t.Errorf("a %d-record block allocates %.0f bytes beyond its trees' growth, want none", n, b)
		}
	}
}

// consumeBlockOverhead returns the median bytes one applied block of n
// records allocates beyond what the same tuples cost two bare trees. (The
// median: a goroutine that changes Ps between the two measurements finds the
// trees' pooled scratch on the other one, once in a while.)
func consumeBlockOverhead(t *testing.T, n int) float64 {
	const late = 1000
	cfg := Config{Keys: model.KeyRange{Lo: 0, Hi: 1<<32 - 1}, ChunkBytes: 1 << 40, Leaves: 64, SideThresholdMillis: late}
	srv := NewServer(cfg, nil, meta.NewServer(1), 0)
	defer srv.Abort()
	main := core.NewTemplateTree(core.TemplateConfig{Keys: cfg.Keys, Leaves: cfg.Leaves})
	side := core.NewTemplateTree(core.TemplateConfig{Keys: cfg.Keys, Leaves: 64})
	p := wal.NewPartition()
	sc := consumeScratch{recs: make([]wal.Record, n)}
	payload := []byte("0123456789abcdef")
	ts := make([]model.Tuple, n)
	var mains, sides []model.Tuple
	seq := uint64(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the collector empties pools
	var m0, m1, m2, m3 runtime.MemStats
	var over []float64
	const warm, rounds = 20, 41
	for r := 0; r < warm+rounds; r++ {
		for i := range ts {
			tm := model.Timestamp(1_000_000 + 10*seq)
			if i%8 == 7 {
				tm -= 5 * late // past the side threshold: the block is mixed
			}
			ts[i] = model.Tuple{Key: model.Key((seq * 2654435761) % (1 << 32)), Time: tm, Payload: payload}
			seq++
		}
		if _, err := p.StartAppend(model.AppendRecords(nil, model.AppendTuples(nil, ts))); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		recs, err := p.ReadBlocking(srv.Consumed(), sc.recs, nil)
		if err == nil {
			err = srv.applyBlock(recs, 0, &sc, nil)
		}
		runtime.ReadMemStats(&m1)
		if err != nil || len(recs) != n || srv.Consumed() != p.Next() {
			t.Fatalf("block of %d: applied %d records up to %d of %d, %v", n, len(recs), srv.Consumed(), p.Next(), err)
		}
		for i := range sc.recs {
			if sc.recs[i].Data != nil {
				t.Fatalf("block of %d: the read buffer still aliases record %d once applied", n, i)
			}
		}
		for _, tp := range append(sc.batch[:cap(sc.batch)], sc.split...) {
			if tp.Payload != nil {
				t.Fatalf("block of %d: the decode or split scratch still aliases a payload once applied", n)
			}
		}
		cut := srv.Watermark() - late
		mains, sides = mains[:0], sides[:0]
		for _, tp := range ts {
			if tp.Time < cut {
				sides = append(sides, tp)
			} else {
				mains = append(mains, tp)
			}
		}
		runtime.ReadMemStats(&m2)
		main.InsertBatch(mains)
		side.InsertBatch(sides)
		runtime.ReadMemStats(&m3)
		p.Truncate(p.Next())
		if r >= warm {
			over = append(over, float64(m1.TotalAlloc-m0.TotalAlloc)-float64(m3.TotalAlloc-m2.TotalAlloc))
		}
	}
	if sides := srv.Stats().SideRouted.Load(); sides == 0 {
		t.Fatalf("block of %d: no tuple went to the side store; the split went unmeasured", n)
	}
	slices.Sort(over)
	return over[len(over)/2]
}

// TestSuccessorAfterFenceReplaysExactlyOnce is a takeover at the ingest
// layer: the owner flushes part of what it consumed and is fenced out; its
// successor replays the partition from the committed offset, so every
// record lands exactly once — in the owner's chunk or in the successor's
// memtable.
func TestSuccessorAfterFenceReplaysExactlyOnce(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	p := wal.NewPartition()
	appendN := func(lo, n int) {
		for i := lo; i < lo+n; i++ {
			if _, err := p.Append(model.AppendTuple(nil, &model.Tuple{Key: model.Key(i), Time: model.Timestamp(1000 + i)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	consume := func(srv *Server) (stop func()) {
		ch, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); srv.Consume(p, ch) }()
		return func() { close(ch); <-done }
	}

	owner := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 16}, fs, ms, 0)
	stopOwner := consume(owner)
	appendN(0, 30)
	waitFor(t, func() bool { return owner.Consumed() == p.Next() })
	if _, ok := owner.Flush(); !ok {
		t.Fatal("owner flush did not happen")
	}
	appendN(30, 10)
	waitFor(t, func() bool { return owner.Consumed() == p.Next() })
	stopOwner()
	epoch, _, err := ms.TransferOwnership(0)
	if err != nil {
		t.Fatal(err)
	}
	owner.Abort()

	succ := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 16, Epoch: epoch}, fs, ms, 0)
	stopSucc := consume(succ)
	waitFor(t, func() bool { return succ.Consumed() == p.Next() })
	appendN(40, 5)
	waitFor(t, func() bool { return succ.Consumed() == p.Next() })
	stopSucc()
	defer succ.Close()
	if got := succ.Stats().Recovered.Load(); got != 10 {
		t.Fatalf("successor recovered %d records, want the 10 past the commit", got)
	}
	seen := map[model.Key]int{}
	for _, tu := range memQuery(succ, model.FullKeyRange(), model.FullTimeRange()) {
		seen[tu.Key]++
	}
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		for k := ci.Region.Keys.Lo; k <= ci.Region.Keys.Hi; k++ {
			seen[k]++
		}
	}
	for k := model.Key(0); k < 45; k++ {
		if seen[k] != 1 {
			t.Fatalf("key %d held %d times, want once", k, seen[k])
		}
	}
}

func TestFencedOwnerCannotRegister(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	owner := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Epoch: ms.Epoch(0)}, fs, ms, 0)
	for i := 0; i < 20; i++ {
		owner.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i), Payload: []byte("x")})
	}
	if _, _, err := ms.TransferOwnership(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := owner.Flush(); ok {
		t.Fatal("deposed owner's flush reported success")
	}
	if !owner.fenced.Load() {
		t.Fatal("owner not marked fenced")
	}
	if ms.ChunkCount() != 0 {
		t.Fatal("fenced flush registered chunks")
	}
	if ms.Offset(0) != 0 {
		t.Fatal("fenced flush committed an offset")
	}
	owner.Close()
}
