package queryexec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// memExecs is a test's own slot table: slot i is served by is[i].
func memExecs(is ...*ingest.Server) []MemExecutor {
	out := make([]MemExecutor, len(is))
	for i, srv := range is {
		out[i] = srv
	}
	return out
}

// testCluster wires indexing servers, query servers, a DFS and a
// coordinator in-process.
type testCluster struct {
	fs    *dfs.FS
	ms    *meta.Server
	is    []*ingest.Server
	qs    []*Server
	coord *Coordinator
}

func newCluster(t *testing.T, nIdx, nQry, nNodes int) *testCluster {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: nNodes, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(nIdx)
	c := &testCluster{fs: fs, ms: ms}
	c.coord = NewCoordinator(CoordinatorConfig{MemExecutors: c.memExecs}, ms, fs)
	for i := 0; i < nIdx; i++ {
		srv := ingest.NewServer(ingest.Config{
			ID: i, Keys: ms.Schema().IntervalOf(i), ChunkBytes: 1 << 30, Leaves: 16,
		}, fs, ms, i%nNodes)
		c.is = append(c.is, srv)
	}
	for i := 0; i < nQry; i++ {
		qs := NewServer(ServerConfig{ID: i, Node: i % nNodes, CacheBytes: 1 << 20}, fs, ms)
		c.qs = append(c.qs, qs)
		c.coord.AddQueryServer(qs)
	}
	return c
}

// memExecs is the cluster's slot table as the coordinator reads it.
func (c *testCluster) memExecs() []MemExecutor { return memExecs(c.is...) }

// ingest pushes tuples through the schema router.
func (c *testCluster) ingest(tuples []model.Tuple) {
	schema := c.ms.Schema()
	for _, tp := range tuples {
		c.is[schema.ServerFor(tp.Key)].Insert(tp)
	}
}

func (c *testCluster) flushAll() {
	for _, srv := range c.is {
		srv.FlushAll()
	}
}

func seqTuples(n int, keyStep uint64, t0 int64) []model.Tuple {
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.Tuple{
			Key:     model.Key(uint64(i) * keyStep),
			Time:    model.Timestamp(t0 + int64(i)),
			Payload: []byte{byte(i)},
		}
	}
	return out
}

func TestQueryFreshDataOnly(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	c.ingest(seqTuples(100, 1<<57, 1000)) // spread across both servers
	res, err := c.coord.Execute(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.FullTimeRange(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("got %d tuples, want 100", len(res.Tuples))
	}
	// Fresh-only queries touch no chunks.
	if res.BytesRead != 0 {
		t.Errorf("read %d chunk bytes for fresh data", res.BytesRead)
	}
}

func TestQueryHistoricalOnly(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	c.ingest(seqTuples(200, 1<<56, 1000))
	c.flushAll()
	res, err := c.coord.Execute(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.FullTimeRange(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 200 {
		t.Fatalf("got %d tuples, want 200", len(res.Tuples))
	}
	if res.BytesRead == 0 {
		t.Error("historical query read no chunk bytes")
	}
}

func TestQuerySpansFreshAndHistorical(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	c.ingest(seqTuples(100, 1<<56, 1000))
	c.flushAll()
	c.ingest(seqTuples(50, 1<<56, 5000)) // same keys, later times, unflushed
	res, err := c.coord.Execute(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.FullTimeRange(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 150 {
		t.Fatalf("got %d tuples, want 150", len(res.Tuples))
	}
	// Results sorted by (key, time).
	for i := 1; i < len(res.Tuples); i++ {
		a, b := &res.Tuples[i-1], &res.Tuples[i]
		if b.Key < a.Key || (b.Key == a.Key && b.Time < a.Time) {
			t.Fatal("results not sorted")
		}
	}
}

func TestQueryRangesRespected(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	tuples := seqTuples(300, 1000, 1000)
	c.ingest(tuples)
	c.flushAll()
	c.ingest(seqTuples(100, 1000, 10_000))
	kr := model.KeyRange{Lo: 50_000, Hi: 150_000}
	tr := model.TimeRange{Lo: 1100, Hi: 1250}
	res, err := c.coord.Execute(model.Query{Keys: kr, Times: tr, Filter: model.KeyMod(2000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tp := range tuples {
		if kr.Contains(tp.Key) && tr.Contains(tp.Time) && tp.Key%2000 == 0 {
			want++
		}
	}
	if len(res.Tuples) != want || want == 0 {
		t.Fatalf("got %d tuples, want %d (>0)", len(res.Tuples), want)
	}
	for _, tp := range res.Tuples {
		if !kr.Contains(tp.Key) || !tr.Contains(tp.Time) {
			t.Fatalf("out-of-range tuple %v", tp)
		}
	}
}

func TestDecomposePrunesChunks(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	// Three temporally disjoint chunks.
	for w := 0; w < 3; w++ {
		c.ingest(seqTuples(50, 100, int64(w*100_000)))
		c.flushAll()
	}
	q := model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 100_000, Hi: 100_049}}
	mem, _, chunks, _, _ := c.coord.Decompose(c.ms.RegisterQuery(q), nil)
	if len(chunks) != 1 {
		t.Fatalf("decomposed into %d chunk subqueries, want 1", len(chunks))
	}
	if len(mem) != 0 {
		t.Fatalf("memtable subqueries for drained servers: %d", len(mem))
	}
}

func TestLateVisibilityWindow(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest([]model.Tuple{{Key: 1, Time: 100_000}})
	// Live region min=100 000, Δt=10 000 → presumed left bound 90 000.
	q := model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 0, Hi: 100_000 - lateDelta/2}}
	mem, _, _, _, _ := c.coord.Decompose(c.ms.RegisterQuery(q), nil)
	if len(mem) != 1 {
		t.Fatalf("query inside Δt window skipped the memtable: %d", len(mem))
	}
	q2 := model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 0, Hi: 50_000}}
	mem, _, _, _, _ = c.coord.Decompose(c.ms.RegisterQuery(q2), nil)
	if len(mem) != 0 {
		t.Fatalf("query far below the window still hit the memtable")
	}
}

func TestLateTupleWithinDeltaIsVisible(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest([]model.Tuple{{Key: 1, Time: 100_000}})
	// A tuple 500 ms late (inside Δt).
	c.ingest([]model.Tuple{{Key: 2, Time: 99_500}})
	res, err := c.coord.Execute(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.TimeRange{Lo: 99_000, Hi: 99_900},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Key != 2 {
		t.Fatalf("late tuple invisible: %v", res.Tuples)
	}
}

func TestAllPoliciesReturnSameResults(t *testing.T) {
	c := newCluster(t, 2, 4, 4)
	for w := 0; w < 5; w++ {
		c.ingest(seqTuples(200, 1<<55, int64(w*10_000)))
		c.flushAll()
	}
	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	var want int
	for _, p := range []Policy{LADA{}, RoundRobin{}, Hashing{}, SharedQueue{}} {
		c.coord.SetPolicy(p)
		res, err := c.coord.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if want == 0 {
			want = len(res.Tuples)
		}
		if len(res.Tuples) != want || want == 0 {
			t.Fatalf("%s returned %d tuples, want %d", p.Name(), len(res.Tuples), want)
		}
	}
}

func TestLADAPrefersColocatedServers(t *testing.T) {
	sqs := []*model.SubQuery{
		{Chunk: 10}, {Chunk: 20}, {Chunk: 30},
	}
	locations := [][]int{{0}, {1}, {2}}
	servers := []ServerPlacement{{ID: 0, Node: 0}, {ID: 1, Node: 1}, {ID: 2, Node: 2}}
	pref, owner := LADA{}.Plan(sqs, locations, servers)
	for s := range servers {
		if len(pref[s]) != 3 {
			t.Fatalf("server %d pref has %d entries", s, len(pref[s]))
		}
		// The first preference of each server must be its co-located chunk,
		// which it owns.
		if pref[s][0] != s {
			t.Errorf("server %d first pref = subquery %d, want %d", s, pref[s][0], s)
		}
		if owner[s] != s {
			t.Errorf("subquery %d owned by server %d, want %d", s, owner[s], s)
		}
	}
}

func TestLADAConsistentAcrossQueries(t *testing.T) {
	// Preference order for the same chunk is a function of the chunk ID:
	// two plans with the same chunks agree.
	sqs := []*model.SubQuery{{Chunk: 7}, {Chunk: 8}}
	locations := [][]int{{0, 1}, {1, 2}}
	servers := []ServerPlacement{{ID: 0, Node: 0}, {ID: 1, Node: 1}, {ID: 2, Node: 2}}
	a, ownerA := LADA{}.Plan(sqs, locations, servers)
	b, ownerB := LADA{}.Plan(sqs, locations, servers)
	if fmt.Sprint(ownerA) != fmt.Sprint(ownerB) {
		t.Errorf("owners differ across identical plans: %v, %v", ownerA, ownerB)
	}
	for s := range servers {
		if fmt.Sprint(a[s]) != fmt.Sprint(b[s]) {
			t.Errorf("server %d preferences differ across identical plans", s)
		}
	}
}

// TestLADAPlanAllocatesNoSourcePerSubquery: planning costs a fixed handful
// of allocations per server, however many subqueries it ranks — no random
// source (a 4.9 KB allocation) and no replica map per subquery.
func TestLADAPlanAllocatesNoSourcePerSubquery(t *testing.T) {
	servers := []ServerPlacement{{ID: 0, Node: 0}, {ID: 1, Node: 1}}
	const runs = 20
	plan := func(n int) (allocs, bytes float64) {
		sqs := make([]*model.SubQuery, n)
		locations := make([][]int, n)
		for i := range sqs {
			sqs[i] = &model.SubQuery{Chunk: model.ChunkID(i + 1)}
			locations[i] = []int{i % 2, 2}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { LADA{}.Plan(sqs, locations, servers) })
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	fewAllocs, fewBytes := plan(10)
	manyAllocs, manyBytes := plan(410)
	t.Logf("Plan: %.0f allocations, %.0f B for 10 subqueries; %.0f, %.0f B for 410", fewAllocs, fewBytes, manyAllocs, manyBytes)
	if manyAllocs != fewAllocs || manyAllocs > 4*float64(len(servers))+4 {
		t.Errorf("Plan allocates %.0f times for 10 subqueries and %.0f for 410, want the same few", fewAllocs, manyAllocs)
	}
	if perSub := (manyBytes - fewBytes) / 400; perSub > 128 {
		t.Errorf("Plan allocates %.0f B per subquery, want only its share of the preference lists", perSub)
	}
}

// TestLADASpreadsFirstPreference: with a replica on every server's node,
// the chunk-seeded shuffle puts each of three servers first for a third of
// 1 000 consecutive chunk IDs, within ±20 %.
func TestLADASpreadsFirstPreference(t *testing.T) {
	servers := []ServerPlacement{{ID: 0, Node: 0}, {ID: 1, Node: 1}, {ID: 2, Node: 2}}
	var first [3]int
	var vec []int
	for id := 1; id <= 1000; id++ {
		vec = ladaVector(vec, model.ChunkID(id), []int{0, 1, 2}, servers)
		first[vec[0]]++
	}
	for s, n := range first {
		if n < 267 || n > 400 {
			t.Errorf("server %d ranks first for %d of 1000 chunks, want 333 ± 20 %% (all: %v)", s, n, first)
		}
	}
}

func TestRoundRobinAndHashingDisjoint(t *testing.T) {
	sqs := make([]*model.SubQuery, 10)
	for i := range sqs {
		sqs[i] = &model.SubQuery{Chunk: model.ChunkID(i + 1)}
	}
	servers := []ServerPlacement{{ID: 0}, {ID: 1}, {ID: 2}}
	for _, p := range []Policy{RoundRobin{}, Hashing{}} {
		pref, owner := p.Plan(sqs, nil, servers)
		if owner != nil {
			// Baselines name no owner: any server may take what is pending.
			t.Fatalf("%s: owners %v, want none", p.Name(), owner)
		}
		seen := map[int]int{}
		for s := range pref {
			for _, idx := range pref[s] {
				seen[idx]++
			}
		}
		if len(seen) != 10 {
			t.Fatalf("%s: %d subqueries assigned, want 10", p.Name(), len(seen))
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("%s: subquery %d assigned %d times", p.Name(), idx, n)
			}
		}
	}
}

func TestCacheHitsAcrossRepeatedQueries(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(500, 100, 1000))
	c.flushAll()
	q := model.Query{Keys: model.KeyRange{Lo: 0, Hi: 20_000}, Times: model.FullTimeRange()}
	r1, err := c.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHits != 0 {
		t.Errorf("first query had %d cache hits", r1.CacheHits)
	}
	if r2.CacheHits == 0 {
		t.Error("repeat query had no cache hits")
	}
	if r2.BytesRead != 0 {
		t.Errorf("repeat query still read %d bytes", r2.BytesRead)
	}
	if len(r1.Tuples) != len(r2.Tuples) {
		t.Errorf("cached result differs: %d vs %d", len(r1.Tuples), len(r2.Tuples))
	}
}

func TestBloomSkipsLeaves(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	// Keys spread across the template's leaves, times correlate with keys →
	// most leaves prunable for narrow windows.
	tuples := make([]model.Tuple, 1000)
	for i := range tuples {
		tuples[i] = model.Tuple{Key: model.Key(uint64(i) << 54), Time: model.Timestamp(i * 1000)}
	}
	c.ingest(tuples)
	c.flushAll()
	res, err := c.coord.Execute(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.TimeRange{Lo: 0, Hi: 10_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesSkipped == 0 {
		t.Error("no leaves pruned on a highly selective time window")
	}
	if len(res.Tuples) != 11 {
		t.Errorf("got %d tuples, want 11", len(res.Tuples))
	}
}

func TestQueryServerFailureRedispatch(t *testing.T) {
	c := newCluster(t, 1, 3, 3)
	for w := 0; w < 4; w++ {
		c.ingest(seqTuples(200, 100, int64(w*10_000)))
		c.flushAll()
	}
	c.qs[0].Fail()
	c.qs[1].Fail()
	res, err := c.coord.Execute(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatalf("query failed despite a live server: %v", err)
	}
	if len(res.Tuples) != 800 {
		t.Fatalf("got %d tuples, want 800", len(res.Tuples))
	}
	if c.qs[2].Executed() == 0 {
		t.Error("surviving server executed nothing")
	}
}

func TestAllQueryServersDown(t *testing.T) {
	c := newCluster(t, 1, 2, 2)
	c.ingest(seqTuples(100, 100, 0))
	c.flushAll()
	c.qs[0].Fail()
	c.qs[1].Fail()
	_, err := c.coord.Execute(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if !errors.Is(err, ErrNoQueryServers) {
		t.Fatalf("err = %v, want ErrNoQueryServers", err)
	}
	// Recovery restores service.
	c.qs[0].Recover()
	if _, err := c.coord.Execute(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestFailureDuringQuery(t *testing.T) {
	// A server that fails between queries: its claimed subqueries return to
	// the pending set and complete elsewhere. The second half fails one in
	// the middle of a query instead.
	c := newCluster(t, 1, 2, 2)
	for w := 0; w < 6; w++ {
		c.ingest(seqTuples(100, 100, int64(w*10_000)))
		c.flushAll()
	}
	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	res1, err := c.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	c.qs[0].Fail()
	res2, err := c.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Tuples) != len(res2.Tuples) {
		t.Fatalf("results differ across failure: %d vs %d", len(res1.Tuples), len(res2.Tuples))
	}

	// Mid-query, with every other worker parked: the first chunk read is
	// held until the other five subqueries completed and their workers ran
	// out of work, then the held subquery's next read fails. Nothing but the
	// redispatch itself can wake a parked sweeper to take it over.
	var armed atomic.Bool
	gate, held := make(chan struct{}), make(chan struct{})
	m := newMetricCluster(t, 1, 2, 2, ServerConfig{}, dfs.LatencyModel{}, func(time.Duration) {
		if armed.CompareAndSwap(true, false) {
			close(held)
			<-gate
		}
	})
	for w := 0; w < 6; w++ {
		m.ingest(seqTuples(100, 100, int64(w*10_000)))
		m.flushAll()
	}
	armed.Store(true)
	var res3 *model.Result
	done := make(chan error, 1)
	go func() {
		var err error
		res3, err = m.coord.Execute(q)
		done <- err
	}()
	<-held
	// Every worker but the held one parks on the dispatch's progress, which
	// also means the other five subqueries completed.
	parked := func() (n int) {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "runChunkSubqueries") && strings.Contains(g, "(*Watermark).Wait") {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); parked() < m.qs[0].Workers()+m.qs[1].Workers()-1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the idle workers never parked")
		}
	}
	m.fs.FailNextReads(1)
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a subquery redispatched while every other worker was parked was never taken over")
	}
	if len(res3.Tuples) != len(res1.Tuples) || m.cm.Redispatches.Value() != 1 {
		t.Fatalf("mid-query failure: %d tuples, want %d; %d redispatches, want 1", len(res3.Tuples), len(res1.Tuples), m.cm.Redispatches.Value())
	}
}

func TestCoordinatorFailover(t *testing.T) {
	// §V: a new coordinator re-initializes from the metadata server's
	// active-query registry.
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(100, 100, 0))
	c.flushAll()
	q := c.ms.RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	// "Coordinator crash": the query is still registered (it still pins its
	// plan horizon; internal/meta tests the registry's read-back and its
	// snapshot), and a replacement over the same metadata re-runs it.
	replacement := NewCoordinator(CoordinatorConfig{}, c.ms, c.fs)
	replacement.AddQueryServer(c.qs[0])
	if c.ms.MinQueryAsOf() == math.MaxUint64 {
		t.Fatal("the registered query left the registry with its coordinator")
	}
	res, err := replacement.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("failover query returned %d tuples", len(res.Tuples))
	}
}

func TestPolicyByName(t *testing.T) {
	cases := map[string]string{
		"lada":         "lada",
		"":             "lada",
		"anything":     "lada",
		"rr":           "round-robin",
		"round-robin":  "round-robin",
		"hash":         "hashing",
		"hashing":      "hashing",
		"shared":       "shared-queue",
		"shared-queue": "shared-queue",
	}
	for in, want := range cases {
		if got := PolicyByName(in).Name(); got != want {
			t.Errorf("PolicyByName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCoordinatorExplain(t *testing.T) {
	c := newCluster(t, 2, 2, 2)
	c.ingest(seqTuples(200, 1<<56, 1000))
	c.flushAll()
	c.ingest(seqTuples(50, 1<<56, 9000))
	info := c.coord.Explain(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if len(info.ChunkSubQueries) == 0 || len(info.MemSubQueries) == 0 {
		t.Fatalf("explain: %d chunk, %d mem", len(info.ChunkSubQueries), len(info.MemSubQueries))
	}
	for i, ci := range info.Chunks {
		if ci.ID != info.ChunkSubQueries[i].Chunk {
			t.Fatalf("chunk alignment broken at %d", i)
		}
		if ci.Path == "" {
			t.Fatalf("chunk %d missing metadata", i)
		}
	}
}

func TestSubQueryLimitOnChunks(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(500, 100, 0))
	c.flushAll()
	res, err := c.coord.Execute(model.Query{
		Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Limit: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 7 {
		t.Fatalf("limit returned %d", len(res.Tuples))
	}
	for i, tp := range res.Tuples {
		if tp.Key != model.Key(uint64(i)*100) {
			t.Fatalf("not the lowest keys: %v", tp)
		}
	}
}

// TestChunkSubQueryRunIsExactlySized: a chunk subquery encodes its matches
// into pooled scratch and hands them over as one run of exactly their
// encoded size — across several leaves, with and without a limit — and the
// scratch it gives back holds nothing.
func TestChunkSubQueryRunIsExactlySized(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(5000, 1<<50, 0)) // keys spread over all 16 leaves
	c.flushAll()
	chunks := c.ms.ChunksFor(model.FullRegion())
	if len(chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(chunks))
	}
	for _, limit := range []int{0, 1234} {
		res, err := c.qs[0].ExecuteSubQuery(&model.SubQuery{
			Chunk:  chunks[0].ID,
			Region: model.Region{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 100, Hi: 4099}},
			Limit:  limit,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 4000
		if limit > 0 {
			want = limit
		}
		if len(res.Runs) != 1 {
			t.Fatalf("limit %d: %d runs, want 1", limit, len(res.Runs))
		}
		run := res.Runs[0]
		if size := want * (model.EncodedSize(&model.Tuple{}) + 1); run.N != want || len(run.Buf) != size || cap(run.Buf) != size {
			t.Fatalf("limit %d: %d tuples in %d bytes of a %d-byte buffer, want %d in exactly %d", limit, run.N, len(run.Buf), cap(run.Buf), want, size)
		}
		if res.LeavesRead < 2 {
			t.Fatalf("limit %d: %d leaves read: the result did not come from several leaves", limit, res.LeavesRead)
		}
		ts, err := model.DecodeTuples(run.Buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, tp := range ts {
			if len(tp.Payload) != 1 || tp.Payload[0] != byte(tp.Time) || tp.Time != model.Timestamp(100+i) {
				t.Fatalf("limit %d: tuple %d carries payload %v at time %d", limit, i, tp.Payload, tp.Time)
			}
		}
	}
	app := model.BorrowRunAppender()
	defer model.ReturnRunAppender(app)
	if app.Len() != 0 {
		t.Fatalf("recycled scratch still holds %d records", app.Len())
	}
	// A subquery that matches nothing returns no run at all.
	res, err := c.qs[0].ExecuteSubQuery(&model.SubQuery{
		Chunk:  chunks[0].ID,
		Region: model.Region{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 1 << 40, Hi: 1 << 41}},
	})
	if err != nil || res.Runs != nil {
		t.Fatalf("empty subquery = %v, %v", res.Runs, err)
	}
}

// TestRunsDoNotAliasCachedLeaves: what a chunk subquery and a memtable
// subquery return, and the tuples a query decodes from their merge, are
// copies — writing over every byte of them changes nothing a re-query
// returns, however warm the leaf cache.
func TestRunsDoNotAliasCachedLeaves(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(2000, 1<<52, 0))
	c.flushAll()
	c.ingest(seqTuples(300, 1<<52+1, 5000)) // stays in the memtable
	chunks := c.ms.ChunksFor(model.FullRegion())
	if len(chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(chunks))
	}
	concat := func(r *model.SubResult) []byte {
		var b []byte
		for _, run := range r.Runs {
			b = append(b, run.Buf...)
		}
		return b
	}
	for _, e := range []struct {
		name string
		exec func() *model.SubResult
	}{
		{"chunk", func() *model.SubResult {
			r, err := c.qs[0].ExecuteSubQuery(&model.SubQuery{Chunk: chunks[0].ID, Region: model.FullRegion()})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"memtable", func() *model.SubResult { return c.is[0].ExecuteSubQuery(&model.SubQuery{Region: model.FullRegion()}) }},
	} {
		first := e.exec()
		want := concat(first)
		if len(want) == 0 {
			t.Fatalf("%s: nothing matched", e.name)
		}
		for _, run := range first.Runs {
			for i := range run.Buf {
				run.Buf[i] ^= 0xff
			}
		}
		if got := concat(e.exec()); !bytes.Equal(got, want) {
			t.Fatalf("%s: writing over a returned run changed what a re-query returns", e.name)
		}
	}
	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	res, err := c.coord.Execute(q)
	if err != nil || len(res.Tuples) != 2300 {
		t.Fatalf("query: %d tuples, %v", len(res.Tuples), err)
	}
	want := model.AppendTuples(nil, res.Tuples)
	for _, tp := range res.Tuples {
		for i := range tp.Payload {
			tp.Payload[i] ^= 0xff
		}
	}
	if again, err := c.coord.Execute(q); err != nil || !bytes.Equal(model.AppendTuples(nil, again.Tuples), want) {
		t.Fatalf("writing over a result's payloads changed what a re-query returns (%v)", err)
	}
}
