package queryexec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// TestPlannerProperty holds every query class to the one plan: over random
// regions, filters and time windows on a store whose tuples sit in chunks, in
// a pending flush snapshot (swapped out, its DFS write failing) and in live
// leaves, a tuple query, an aggregate COUNT and the oracle agree; the
// aggregate's subqueries are the tuple plan's minus the chunks it answered
// from metadata; and Explain reports that same plan, chunk metadata
// included. The plan itself is held to its definition: the chunks are
// exactly the R-tree candidates whose part of the query some instant of the
// window falls in, and the mem-subqueries exactly the serving slots whose
// MemBounds key box the query's keys meet and whose Δt-widened time span the
// query reaches. The time ranges include
// empty and inverted ones, MinInt64/MaxInt64 bounds and ends just inside a
// live region's Δt widening; the windows wrap past their period's end,
// match everything (L ≥ P), repeat more than 100 000 times in the range, or
// meet a chunk in its last instant only.
func TestPlannerProperty(t *testing.T) {
	const nIdx = 2
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(nIdx)
	var is []*ingest.Server
	coord := NewCoordinator(CoordinatorConfig{MemExecutors: func() []MemExecutor { return memExecs(is...) }}, ms, fs)
	for i := 0; i < nIdx; i++ {
		srv := ingest.NewServer(ingest.Config{
			ID: i, Keys: ms.Schema().IntervalOf(i), ChunkBytes: 1 << 30, Leaves: 16,
		}, fs, ms, i)
		t.Cleanup(srv.Close)
		is = append(is, srv)
	}
	for i := 0; i < 2; i++ {
		coord.AddQueryServer(NewServer(ServerConfig{ID: i, Node: i, CacheBytes: 1 << 20}, fs, ms))
	}

	rng := rand.New(rand.NewSource(15))
	var all []model.Tuple
	insert := func(tp model.Tuple) {
		tp.Payload = []byte{byte(len(all))}
		all = append(all, tp)
		is[ms.Schema().ServerFor(tp.Key)].Insert(tp)
	}
	ingestWindow := func(n int, t0 int64) {
		for i := 0; i < n; i++ {
			insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: model.Timestamp(t0 + rng.Int63n(1000))})
		}
	}
	// Three flushed windows, one window swapped out behind a failing DFS,
	// one live — with a late tuple from the far past at the bottom of the
	// time domain, whose Δt-widened live bound falls below MinInt64.
	for w := int64(0); w < 3; w++ {
		ingestWindow(300, w*1000)
		for _, srv := range is {
			srv.FlushAll()
		}
	}
	ingestWindow(300, 3000)
	fs.SetWriteFailRate(1) // the DFS is down
	for _, srv := range is {
		if _, ok := srv.Flush(); ok {
			t.Fatal("flush succeeded with the DFS down")
		}
		if srv.PendingFlushes() != 1 {
			t.Fatalf("server holds %d pending snapshots, want 1", srv.PendingFlushes())
		}
	}
	ingestWindow(300, 4000)
	insert(model.Tuple{Key: 5, Time: math.MinInt64 + 7})
	if n := ms.ChunkCount(); n != 3*nIdx {
		t.Fatalf("%d chunks registered, want %d", n, 3*nIdx)
	}

	span := func(max uint64) (lo, hi uint64) {
		a, b := rng.Uint64()%max, rng.Uint64()%max
		if a > b {
			a, b = b, a
		}
		return a, b
	}
	times := func() model.TimeRange {
		lo, hi := span(5000)
		tr := model.TimeRange{Lo: model.Timestamp(lo), Hi: model.Timestamp(hi)}
		switch rng.Intn(6) {
		case 0: // empty or inverted
			tr.Lo, tr.Hi = tr.Hi+1, tr.Lo
		case 1: // from the bottom of the time domain
			tr.Lo = math.MinInt64
		case 2: // to its top
			tr.Hi = math.MaxInt64
		case 3: // ending inside a live region's Δt widening, before its data
			min, _, _ := is[rng.Intn(nIdx)].MemBounds()
			tr.Hi = min - 1 - model.Timestamp(rng.Int63n(lateDelta))
			tr.Lo = tr.Hi - model.Timestamp(rng.Int63n(3000))
		}
		return tr
	}
	chunks := ms.ChunksFor(model.FullRegion())
	recurrence := func() *model.Filter {
		switch rng.Intn(7) {
		case 0:
			return nil
		case 1: // wraps past its period's end
			return model.TimeWindow(1000, 700+rng.Int63n(300), 200+rng.Int63n(400))
		case 2: // at least a period long: matches everything
			return model.TimeWindow(700, rng.Int63n(1400)-700, 700+rng.Int63n(700))
		case 3: // short periods: a full-domain range spans far more than 100 000
			return model.TimeWindow(10, rng.Int63n(10), 1+rng.Int63n(3))
		case 4: // a window opening on a chunk's last instant, a period longer than the chunk
			hi := chunks[rng.Intn(len(chunks))].Region.Times.Hi
			return model.TimeWindow(2000+rng.Int63n(3000), int64(hi), 1+rng.Int63n(20))
		}
		p := 1 + rng.Int63n(3000)
		return model.TimeWindow(p, rng.Int63n(2*p)-p, 1+rng.Int63n(p))
	}
	// meets is MayMatchTimes of a window by its definition: some instant of
	// tr the window contains. Chunk spans are under 1000 ms.
	meets := func(w *model.Filter, tr model.TimeRange) bool {
		for ts := tr.Lo; ts <= tr.Hi; ts++ {
			if w.MatchesCols(0, ts, nil) {
				return true
			}
		}
		return false
	}
	filters := []*model.Filter{nil, nil, model.KeyMod(3, 1), model.TimeCmp(model.CmpGE, 2500)}
	metaAnswered, pruned := 0, 0
	for round := 0; round < 300; round++ {
		q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
		if round%4 != 0 { // every fourth region is the full one: all chunks covered
			klo, khi := span(uint64(model.MaxKey))
			q.Keys = model.KeyRange{Lo: model.Key(klo), Hi: model.Key(khi)}
			q.Times = times()
		}
		q.Filter = filters[rng.Intn(len(filters))]
		window := recurrence()
		if window != nil {
			q.Filter = model.And(q.Filter, window)
		}
		want := 0
		for i := range all {
			if q.Keys.Contains(all[i].Key) && q.Times.Contains(all[i].Time) && q.Filter.Matches(&all[i]) {
				want++
			}
		}

		res, err := coord.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := coord.ExecuteAggregate(model.AggregateQuery{Keys: q.Keys, Times: q.Times, Filter: q.Filter, Kind: model.AggCount})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != want || int(agg.Count) != want {
			t.Fatalf("round %d %v filter %+v: tuple query %d, aggregate COUNT %d (oracle %d)",
				round, &q, q.Filter, len(res.Tuples), agg.Count, want)
		}
		if q.Filter != nil && agg.MetaChunks != 0 {
			t.Fatalf("round %d: filtered aggregate answered %d chunks from metadata", round, agg.MetaChunks)
		}
		metaAnswered += agg.MetaChunks

		// The plan, by its definition.
		var wantChunks []model.ChunkID
		for _, ci := range ms.ChunksFor(q.Region()) {
			if r, ok := q.Region().Intersect(ci.Region); ok {
				if window == nil || meets(window, r.Times) {
					wantChunks = append(wantChunks, ci.ID)
				} else {
					pruned++
				}
			}
		}
		var wantMem []int
		for i, srv := range is {
			min, keys, ok := srv.MemBounds()
			lo := max(min, math.MinInt64+lateDelta) - lateDelta
			if ok && keys.Overlaps(q.Keys) && q.Times.Hi >= lo {
				wantMem = append(wantMem, i)
			}
		}
		info := coord.Explain(q)
		var gotChunks []model.ChunkID
		for i, ci := range info.Chunks {
			if ci.ID != info.ChunkSubQueries[i].Chunk || ci.Path == "" || ci.Path != info.ChunkSubQueries[i].ChunkPath {
				t.Fatalf("round %d: explain chunk %d is %+v for subquery %v", round, i, ci, &info.ChunkSubQueries[i])
			}
			gotChunks = append(gotChunks, ci.ID)
		}
		var gotMem []int
		for _, sq := range info.MemSubQueries {
			gotMem = append(gotMem, sq.IndexServer)
		}
		if !slices.Equal(gotChunks, wantChunks) || !slices.Equal(gotMem, wantMem) {
			t.Fatalf("round %d %v filter %+v: planned chunks %v and live regions %v, want %v and %v",
				round, &q, q.Filter, gotChunks, gotMem, wantChunks, wantMem)
		}
		if len(info.MemSubQueries)+len(info.ChunkSubQueries) != res.SubQueries {
			t.Fatalf("round %d: explain lists %d mem + %d chunk subqueries, the query ran %d",
				round, len(info.MemSubQueries), len(info.ChunkSubQueries), res.SubQueries)
		}
		// The aggregate plans what the tuple query plans.
		if agg.SubQueries+agg.MetaChunks != len(info.MemSubQueries)+len(info.ChunkSubQueries) {
			t.Fatalf("round %d: aggregate ran %d subqueries + %d chunks from metadata, its plan had %d mem + %d chunk subqueries",
				round, agg.SubQueries, agg.MetaChunks, len(info.MemSubQueries), len(info.ChunkSubQueries))
		}
	}
	if metaAnswered == 0 {
		t.Fatal("no round answered a chunk from metadata: the pushdown loop was never exercised")
	}
	if pruned == 0 {
		t.Fatal("no round pruned a chunk: the window test was never exercised")
	}
}

// takeoverExec is slot 0's serving incarnation as a test drives it: the
// first MemBounds call runs takeover before it answers.
type takeoverExec struct {
	*ingest.Server
	takeover func()
}

func (e *takeoverExec) MemBounds() (model.Timestamp, model.KeyRange, bool) {
	if f := e.takeover; f != nil {
		e.takeover = nil
		f()
	}
	return e.Server.MemBounds()
}

// TestPlanReadsOneSlotTable: a plan's executors, their bounds and the chunk
// list are one moment's. Here a takeover lands between the bounds read and
// the chunk list: the successor replays the deposed incarnation's memtable
// and flushes it. A plan that paired the deposed incarnation (whose
// memtable still holds the tuples) with a chunk list holding the
// successor's chunk would return every tuple twice; Decompose sees the slot
// table change under it and plans again.
func TestPlanReadsOneSlotTable(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	cfg := ingest.Config{ID: 0, Keys: model.FullKeyRange(), ChunkBytes: 1 << 30, Leaves: 16}
	deposed := ingest.NewServer(cfg, fs, ms, 0)
	t.Cleanup(deposed.Close)
	tuples := seqTuples(100, 1<<50, 1000)
	deposed.InsertBatch(tuples)

	var serving MemExecutor
	serving = &takeoverExec{Server: deposed, takeover: func() {
		epoch, _, err := ms.TransferOwnership(0)
		if err != nil {
			t.Fatal(err)
		}
		succ := cfg
		succ.Epoch = epoch
		successor := ingest.NewServer(succ, fs, ms, 0)
		t.Cleanup(successor.Close)
		successor.InsertBatch(tuples) // the replay from the committed offset
		if err := successor.FlushAll(); err != nil {
			t.Fatal(err)
		}
		serving = successor
	}}
	coord := NewCoordinator(CoordinatorConfig{MemExecutors: func() []MemExecutor { return []MemExecutor{serving} }}, ms, fs)
	coord.AddQueryServer(NewServer(ServerConfig{ID: 0, Node: 0, CacheBytes: 1 << 20}, fs, ms))

	res, err := coord.Execute(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(tuples) {
		t.Fatalf("query across a takeover returned %d tuples, want %d", len(res.Tuples), len(tuples))
	}
}
