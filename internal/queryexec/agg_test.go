package queryexec

import (
	"encoding/binary"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// aggTuples makes n tuples whose 8-byte payload is the big-endian value
// 3i+1, so every aggregate has a closed-form expected answer.
func aggTuples(n int, t0 int64) []model.Tuple {
	out := make([]model.Tuple, n)
	for i := range out {
		p := make([]byte, 8)
		binary.BigEndian.PutUint64(p, uint64(3*i+1))
		out[i] = model.Tuple{Key: model.Key(i), Time: model.Timestamp(t0 + int64(i)), Payload: p}
	}
	return out
}

func runAgg(t *testing.T, c *testCluster, q model.AggregateQuery) *model.AggResult {
	t.Helper()
	res, err := c.coord.ExecuteAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAggregatePushdownNoLeafReads is the acceptance check for the
// pre-aggregate block: an aggregate over fully covered leaves must be
// answered from header metadata alone — zero leaf-body DFS reads — which
// the pushdown telemetry makes observable. The tree's key interval is
// pinned to [0,1023] over 16 leaves, so leaf boundaries sit at multiples
// of 63 and a key range ending at 692 covers leaves 0..10 exactly: the
// chunk's data region [0,1023] is not covered (no whole-chunk metadata
// shortcut) while every selected leaf is, so all of them must be
// answered from their pre-aggregate buckets.
func TestAggregatePushdownNoLeafReads(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 2, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	c := &testCluster{fs: fs, ms: ms}
	c.coord = NewCoordinator(CoordinatorConfig{MemExecutors: c.memExecs}, ms, fs)
	srv := ingest.NewServer(ingest.Config{
		ID: 0, Keys: model.KeyRange{Lo: 0, Hi: 1023}, ChunkBytes: 1 << 30, Leaves: 16,
	}, fs, ms, 0)
	c.is = append(c.is, srv)
	qs := NewServer(ServerConfig{
		ID: 0, Node: 0, CacheBytes: 1 << 20,
		Metrics: NewServerMetrics(telemetry.NewRegistry()),
	}, fs, ms)
	c.qs = append(c.qs, qs)
	c.coord.AddQueryServer(qs)

	const n = 1024
	c.ingest(aggTuples(n, 1000))
	c.flushAll()

	q := model.AggregateQuery{
		Keys:  model.KeyRange{Lo: 0, Hi: 692},
		Times: model.FullTimeRange(),
		Kind:  model.AggSum,
	}
	res := runAgg(t, c, q)

	var wantSum uint64
	for i := 0; i <= 692; i++ {
		wantSum += uint64(3*i + 1)
	}
	if v, ok := res.Value(); !ok || v != wantSum {
		t.Fatalf("sum = %d,%v want %d", v, ok, wantSum)
	}
	if res.Count != 693 || res.Values != 693 {
		t.Fatalf("count=%d values=%d want 693", res.Count, res.Values)
	}
	if res.MetaChunks != 0 {
		t.Fatalf("meta pushdown fired (%d chunks); the test must exercise the leaf path", res.MetaChunks)
	}
	if res.PushdownLeaves == 0 {
		t.Fatal("no leaves answered from pre-aggregates")
	}
	if res.LeavesRead != 0 {
		t.Fatalf("read %d leaf bodies; fully covered leaves must not touch the DFS", res.LeavesRead)
	}
	// The same must be visible in the query server's telemetry.
	if got := qs.m.AggPushdownLeaves.Value(); got == 0 {
		t.Error("agg_pushdown_leaves_total stayed zero")
	}
	if got := qs.m.AggScannedLeaves.Value(); got != 0 {
		t.Errorf("agg_scanned_leaves_total = %d, want 0", got)
	}
	if qs.m.AggBytesSaved.Value() <= 0 {
		t.Error("agg_pushdown_bytes_saved_total stayed zero")
	}
}

// TestAggregateMetaPushdown: a query region enclosing a chunk's whole
// declared region is answered by the coordinator from the chunk's
// registered aggregate, with no subquery dispatched for it.
func TestAggregateMetaPushdown(t *testing.T) {
	c := newCluster(t, 1, 1, 2)
	const n = 500
	c.ingest(aggTuples(n, 1000))
	c.flushAll()

	res := runAgg(t, c, model.AggregateQuery{
		Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Kind: model.AggCount,
	})
	if res.Count != n {
		t.Fatalf("count = %d want %d", res.Count, n)
	}
	if res.MetaChunks == 0 {
		t.Error("fully covered chunk was not answered from metadata")
	}
	if res.LeavesRead != 0 || res.PushdownLeaves != 0 {
		t.Errorf("meta-answered chunk still touched leaves: read=%d pushdown=%d",
			res.LeavesRead, res.PushdownLeaves)
	}
}

// TestAggregateKindsMatchTupleFold cross-checks every aggregate kind
// against folding the tuple query's results, over a partial region that
// spans fresh and historical data and cuts leaves mid-range.
func TestAggregateKindsMatchTupleFold(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	c.ingest(aggTuples(600, 1000))
	c.flushAll()
	c.ingest(aggTuples(200, 5000)) // same keys, later times, unflushed

	q := model.Query{
		Keys:  model.KeyRange{Lo: 37, Hi: 411},
		Times: model.TimeRange{Lo: 1100, Hi: 5150},
	}
	tup, err := c.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	var want model.AggPartial
	for i := range tup.Tuples {
		want.AddTuple(&tup.Tuples[i], 0)
	}
	if want.Count == 0 || want.Count == want.Sum {
		t.Fatalf("degenerate reference fold: %+v", want)
	}
	for _, kind := range []model.AggKind{model.AggCount, model.AggSum, model.AggMin, model.AggMax} {
		res := runAgg(t, c, model.AggregateQuery{Keys: q.Keys, Times: q.Times, Kind: kind})
		if res.Count != want.Count {
			t.Errorf("%s: count %d want %d", kind, res.Count, want.Count)
		}
		v, ok := res.Value()
		if !ok {
			t.Fatalf("%s: undefined over non-empty region", kind)
		}
		var wantV uint64
		switch kind {
		case model.AggCount:
			wantV = want.Count
		case model.AggSum:
			wantV = want.Sum
		case model.AggMin:
			wantV = want.Min
		case model.AggMax:
			wantV = want.Max
		}
		if v != wantV {
			t.Errorf("%s = %d want %d", kind, v, wantV)
		}
	}
}

// TestAggregateWithFilterScansLeaves: a predicate disables every
// pre-aggregate shortcut (buckets have no predicate resolution), and the
// result still matches the filtered tuple fold.
func TestAggregateWithFilterScansLeaves(t *testing.T) {
	c := newCluster(t, 1, 1, 2)
	c.ingest(aggTuples(400, 1000))
	c.flushAll()

	f := model.KeyMod(4, 0)
	q := model.AggregateQuery{
		Keys: model.FullKeyRange(), Times: model.FullTimeRange(),
		Kind: model.AggSum, Filter: f,
	}
	res := runAgg(t, c, q)
	var wantSum, wantCount uint64
	for i := 0; i < 400; i += 4 {
		wantSum += uint64(3*i + 1)
		wantCount++
	}
	if res.Count != wantCount {
		t.Fatalf("count = %d want %d", res.Count, wantCount)
	}
	if v, _ := res.Value(); v != wantSum {
		t.Fatalf("sum = %d want %d", v, wantSum)
	}
	if res.MetaChunks != 0 || res.PushdownLeaves != 0 {
		t.Errorf("filtered aggregate used pre-aggregates: meta=%d leaves=%d",
			res.MetaChunks, res.PushdownLeaves)
	}
	if res.LeavesRead == 0 {
		t.Error("filtered aggregate read no leaves")
	}
}

// TestAggregateEmptyRegion: an aggregate over a region with no tuples is
// defined for COUNT (zero) and undefined for MIN/MAX.
func TestAggregateEmptyRegion(t *testing.T) {
	c := newCluster(t, 1, 1, 2)
	c.ingest(aggTuples(50, 1000))
	c.flushAll()

	q := model.AggregateQuery{
		Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 900_000, Hi: 900_100},
		Kind: model.AggCount,
	}
	res := runAgg(t, c, q)
	if v, ok := res.Value(); !ok || v != 0 {
		t.Fatalf("count over empty region = %d,%v want 0,true", v, ok)
	}
	q.Kind = model.AggMin
	res = runAgg(t, c, q)
	if _, ok := res.Value(); ok {
		t.Fatal("min over empty region is defined")
	}
}
