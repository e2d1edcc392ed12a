package queryexec

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// TestPlannerProperty holds every query class to the one plan: over random
// regions and filters on a store whose tuples sit in chunks, in a pending
// flush snapshot (swapped out, its DFS write failing) and in live leaves, a
// tuple query, an aggregate COUNT and the oracle agree; the aggregate's
// subqueries are the tuple plan's minus the chunks it answered from
// metadata; and Explain reports that same plan, chunk metadata included.
func TestPlannerProperty(t *testing.T) {
	const nIdx = 2
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(nIdx)
	execs := memExecs{}
	coord := NewCoordinator(CoordinatorConfig{LateDeltaMillis: 1000, MemExecutor: execs.lookup}, ms, fs)
	var dfsDown atomic.Bool
	var is []*ingest.Server
	for i := 0; i < nIdx; i++ {
		srv := ingest.NewServer(ingest.Config{
			ID: i, Keys: ms.Schema().IntervalOf(i), ChunkBytes: 1 << 30, Leaves: 16,
			FlushFailHook: func(int, int, int32) error {
				if dfsDown.Load() {
					return errors.New("dfs down")
				}
				return nil
			},
		}, fs, ms, i)
		t.Cleanup(srv.Close)
		is = append(is, srv)
		execs[i] = srv
	}
	for i := 0; i < 2; i++ {
		coord.AddQueryServer(NewServer(ServerConfig{ID: i, Node: i, CacheBytes: 1 << 20, UseBloom: true}, fs, ms))
	}

	rng := rand.New(rand.NewSource(15))
	var all []model.Tuple
	ingestWindow := func(n int, t0 int64) {
		for i := 0; i < n; i++ {
			tp := model.Tuple{
				Key:     model.Key(rng.Uint64()),
				Time:    model.Timestamp(t0 + rng.Int63n(1000)),
				Payload: []byte{byte(i)},
			}
			all = append(all, tp)
			is[ms.Schema().ServerFor(tp.Key)].Insert(tp)
		}
	}
	// Three flushed windows, one window swapped out behind a failing DFS,
	// one live.
	for w := int64(0); w < 3; w++ {
		ingestWindow(300, w*1000)
		for _, srv := range is {
			srv.FlushAll()
		}
	}
	ingestWindow(300, 3000)
	dfsDown.Store(true)
	for _, srv := range is {
		if _, ok := srv.Flush(); ok {
			t.Fatal("flush succeeded with the DFS down")
		}
		if srv.PendingFlushes() != 1 {
			t.Fatalf("server holds %d pending snapshots, want 1", srv.PendingFlushes())
		}
	}
	ingestWindow(300, 4000)
	for _, srv := range is {
		srv.PublishLive()
	}
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
	filters := []*model.Filter{nil, nil, model.KeyMod(3, 1), model.TimeCmp(model.CmpGE, 2500)}
	metaAnswered := 0
	for round := 0; round < 200; round++ {
		q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
		if round%4 != 0 { // every fourth region is the full one: all chunks covered
			klo, khi := span(uint64(model.MaxKey))
			tlo, thi := span(5000)
			q.Keys = model.KeyRange{Lo: model.Key(klo), Hi: model.Key(khi)}
			q.Times = model.TimeRange{Lo: model.Timestamp(tlo), Hi: model.Timestamp(thi)}
		}
		q.Filter = filters[rng.Intn(len(filters))]
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
			t.Fatalf("round %d %v: tuple query %d, aggregate COUNT %d, oracle %d", round, q, len(res.Tuples), agg.Count, want)
		}
		if agg.SubQueries+agg.MetaChunks != res.SubQueries {
			t.Fatalf("round %d: aggregate ran %d subqueries + %d chunks from metadata, tuple plan had %d subqueries",
				round, agg.SubQueries, agg.MetaChunks, res.SubQueries)
		}
		if q.Filter != nil && agg.MetaChunks != 0 {
			t.Fatalf("round %d: filtered aggregate answered %d chunks from metadata", round, agg.MetaChunks)
		}
		metaAnswered += agg.MetaChunks

		info := coord.Explain(q)
		if len(info.MemSubQueries)+len(info.ChunkSubQueries) != res.SubQueries || len(info.Chunks) != len(info.ChunkSubQueries) {
			t.Fatalf("round %d: explain lists %d mem + %d chunk subqueries over %d chunks, the query ran %d",
				round, len(info.MemSubQueries), len(info.ChunkSubQueries), len(info.Chunks), res.SubQueries)
		}
		for i, ci := range info.Chunks {
			if ci.ID != info.ChunkSubQueries[i].Chunk || ci.Path == "" || ci.Path != info.ChunkSubQueries[i].ChunkPath {
				t.Fatalf("round %d: explain chunk %d is %+v for subquery %v", round, i, ci, &info.ChunkSubQueries[i])
			}
		}
	}
	if metaAnswered == 0 {
		t.Fatal("no round answered a chunk from metadata: the pushdown loop was never exercised")
	}
}
