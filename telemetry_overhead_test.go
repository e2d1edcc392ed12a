package waterwheel

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/telemetry"
)

// skipAllocGuardUnderRace skips a testing.AllocsPerRun guard in race
// builds: the race detector makes sync.Pool drop puts at random, so pooled
// paths allocate a run-dependent amount and the budgets below do not hold.
func skipAllocGuardUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
}

// insertAllocs measures the average allocations of one DB.Insert through
// the whole ingest pipeline — dispatch, WAL append, consume, memtable
// merge — with a chunk threshold high enough that the measured inserts
// never flush. The count is the process's, and the consumers run on their
// own goroutines, so the unit measured is a block of inserts closed by a
// Drain: what the consumers allocate per read and per idle poll is then
// spread over the block instead of landing on whichever insert it raced.
// insertAllocBudget is insertAllocs' measured 1.27 with room for the
// jitter of amortized slice growth.
const insertAllocBudget = 1.5

func insertAllocs(t *testing.T) float64 {
	t.Helper()
	db, err := Open(Options{ChunkBytes: 256 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	n := uint64(0)
	payload := []byte("12345678")
	const block = 1000
	insertBlock := func() {
		for i := 0; i < block; i++ {
			db.Insert(Tuple{Key: Key(n * 2654435761), Time: Timestamp(1000 + n), Payload: payload})
			n++
		}
		db.c.Drain()
	}
	// Warm the memtables and samplers past their initial growth so the
	// measurement window sees steady-state behavior.
	for i := 0; i < 20; i++ {
		insertBlock()
	}
	return testing.AllocsPerRun(20, insertBlock) / block
}

// TestTelemetryInsertOverhead guards the instrumented insert path's
// allocation budget: the counters are plain atomics and the latency sample
// reuses the ingest counter, so telemetry adds nothing to what dispatch,
// the WAL append and the memtable merge allocate. The budget is the
// measured count plus the jitter of amortized slice growth.
func TestTelemetryInsertOverhead(t *testing.T) {
	skipAllocGuardUnderRace(t)
	allocs := insertAllocs(t)
	t.Logf("allocations per insert: %.2f", allocs)
	if allocs > insertAllocBudget {
		t.Errorf("an insert allocates %.2f times, want at most %.1f", allocs, insertAllocBudget)
	}
}

// untracedQueryAllocBudget is the 91 allocations measured on
// TestOnlyTracedQueriesAreTraced's query (two subqueries, 161 tuples) with
// room for jitter; a span tree per query made it 137.
const untracedQueryAllocBudget = 100

// TestOnlyTracedQueriesAreTraced: a query builds its span tree only when
// its caller asks for one. Untraced queries leave the trace ring empty and
// stay inside an allocation budget that a span tree per query (a span for
// the decomposition, the dispatch, each of the chunk subqueries and the
// merge) would blow; one QueryTraced call is then what db.Traces() and
// /debug/waterwheel show.
func TestOnlyTracedQueriesAreTraced(t *testing.T) {
	db := openTestDB(t, Options{})
	batch := make([]Tuple, 256)
	for i := 0; i < 40; i++ {
		for j := range batch {
			n := uint64(i*len(batch) + j)
			batch[j] = Tuple{Key: Key(n * 0x9E3779B97F4A7C15), Time: Timestamp(1000 + n), Payload: []byte("12345678")}
		}
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	q := Query{Keys: KeyRange{Lo: 0, Hi: MaxKey / 64}, Times: FullTimeRange()}
	query := func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	query() // fills the cache
	if !raceEnabled {
		allocs := testing.AllocsPerRun(50, query)
		t.Logf("allocations per untraced query: %.1f", allocs)
		if allocs > untracedQueryAllocBudget {
			t.Errorf("an untraced query allocates %.1f times, want at most %d", allocs, untracedQueryAllocBudget)
		}
	} else {
		for i := 0; i < 50; i++ {
			query()
		}
	}
	if trs := db.Traces(); len(trs) != 0 {
		t.Fatalf("untraced queries left %d traces", len(trs))
	}

	_, tr, err := db.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if trs := db.Traces(); len(trs) != 1 || trs[0] != tr {
		t.Fatalf("db.Traces() = %v after one traced query, want its trace", trs)
	}
	rec := httptest.NewRecorder()
	db.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/waterwheel", nil))
	var snap struct {
		Traces []string `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Traces) != 1 || snap.Traces[0] != tr.Format() {
		t.Errorf("/debug/waterwheel traces = %q, want the traced query's", snap.Traces)
	}
}

// subQueryAllocs measures the average allocations of one fully-cached
// chunk subquery: a single flushed chunk, a warm header + leaf cache,
// and a narrow key range so the result stays small.
func subQueryAllocs(t *testing.T, instrument bool) float64 {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	is := ingest.NewServer(ingest.Config{
		ID: 0, ChunkBytes: 1 << 30, Leaves: 16,
	}, fs, ms, 0)
	t.Cleanup(is.Close)
	for i := 0; i < 2000; i++ {
		is.Insert(model.Tuple{
			Key:     model.Key(uint64(i) * 2654435761),
			Time:    model.Timestamp(1000 + i),
			Payload: []byte{byte(i)},
		})
	}
	info, ok := is.Flush()
	if !ok {
		t.Fatal("flush produced no chunk")
	}
	var m *queryexec.ServerMetrics
	if instrument {
		m = queryexec.NewServerMetrics(telemetry.NewRegistry())
	}
	qs := queryexec.NewServer(queryexec.ServerConfig{
		ID: 0, Node: 0, CacheBytes: 64 << 20, Metrics: m,
	}, fs, ms)
	sq := &model.SubQuery{
		Region: model.Region{
			Keys:  model.KeyRange{Lo: info.Region.Keys.Lo, Hi: info.Region.Keys.Lo + 100},
			Times: info.Region.Times,
		},
		Chunk: info.ID,
	}
	// Warm the caches: the first execution faults in the header and the
	// leaves the region touches; every later execution is pure cache hits.
	if _, err := qs.ExecuteSubQuery(sq); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(2000, func() {
		if _, err := qs.ExecuteSubQuery(sq); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTelemetryCacheHitSubQueryOverhead extends the hot-path alloc guard
// to the query side: a cache-hit subquery must not allocate more with
// telemetry enabled, and its absolute allocation count must stay bounded
// (this is what keeps strconv-built cache keys from regressing back to
// fmt.Sprintf).
func TestTelemetryCacheHitSubQueryOverhead(t *testing.T) {
	skipAllocGuardUnderRace(t)
	off := subQueryAllocs(t, false)
	on := subQueryAllocs(t, true)
	if delta := on - off; delta > 0.5 {
		t.Errorf("telemetry adds %.2f allocations per cache-hit subquery (on=%.2f off=%.2f), want 0",
			delta, on, off)
	}
	t.Logf("cache-hit subquery allocs: on=%.2f off=%.2f", on, off)
	// ~8 today; headroom for slice-growth jitter, but tight enough that a
	// fmt.Sprintf cache key (several allocs per lookup) fails the guard.
	if on > 20 {
		t.Errorf("cache-hit subquery allocates %.2f times, want <= 20", on)
	}
}

// TestMemSubQueryAllocBudget guards the memtable scan path against the
// same budget as the cache-hit chunk subquery: result assembly (the
// Result value, the tuple slice, one payload arena per source) is all a
// mem-scan may allocate. The columnar read path hands payloads out as
// arena aliases, so per-tuple payload copies — which would blow the
// budget immediately at this result size — must never come back.
func TestMemSubQueryAllocBudget(t *testing.T) {
	skipAllocGuardUnderRace(t)
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	is := ingest.NewServer(ingest.Config{
		ID: 0, ChunkBytes: 1 << 30, Leaves: 16,
	}, fs, ms, 0)
	t.Cleanup(is.Close)
	for i := 0; i < 2000; i++ {
		is.Insert(model.Tuple{
			Key:     model.Key(uint64(i) * 2654435761),
			Time:    model.Timestamp(1000 + i),
			Payload: []byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)},
		})
	}
	// No flush: every tuple is resident in the memtable. A narrow key
	// window keeps the result small, as in the chunk-side guard.
	sq := &model.SubQuery{
		Region: model.Region{
			Keys:  model.KeyRange{Lo: 0, Hi: 1 << 24},
			Times: model.FullTimeRange(),
		},
	}
	if res := is.ExecuteSubQuery(sq); res.Len() == 0 {
		t.Fatal("mem subquery matched no tuples; key window too narrow")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		is.ExecuteSubQuery(sq)
	})
	t.Logf("mem subquery allocs: %.2f", allocs)
	if allocs > 20 {
		t.Errorf("mem subquery allocates %.2f times, want <= 20", allocs)
	}
}

// TestCachedRangeSubQueryAllocsAreConstant: a cache-hit range subquery on a
// 16-leaf chunk allocates the same small number of times whether it reads
// one leaf or all of them and returns a few tuples or thousands. Its
// matches are encoded into pooled scratch and leave as one exactly sized
// run; nothing is allocated per leaf or per tuple.
func TestCachedRangeSubQueryAllocsAreConstant(t *testing.T) {
	skipAllocGuardUnderRace(t)
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	is := ingest.NewServer(ingest.Config{ID: 0, ChunkBytes: 1 << 30, Leaves: 16}, fs, ms, 0)
	t.Cleanup(is.Close)
	for i := 0; i < 8000; i++ {
		is.Insert(model.Tuple{
			Key:     model.Key(uint64(i) * 0x9E3779B97F4A7C15),
			Time:    model.Timestamp(1000 + i),
			Payload: []byte{byte(i), byte(i >> 8), 0, 0, 0, 0, 0, 0},
		})
	}
	info, ok := is.Flush()
	if !ok {
		t.Fatal("flush produced no chunk")
	}
	qs := queryexec.NewServer(queryexec.ServerConfig{ID: 0, Node: 0, CacheBytes: 64 << 20}, fs, ms)
	var base float64
	for i, c := range []struct {
		name           string
		region         model.Region
		leaves, tuples int // at least
	}{
		{"one leaf, a few tuples", model.Region{Keys: model.KeyRange{Lo: 0, Hi: 1 << 52}, Times: model.FullTimeRange()}, 1, 1},
		{"every leaf, every tuple", model.FullRegion(), 16, 8000},
		{"many leaves, a few tuples", model.Region{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 1000, Hi: 1009}}, 8, 10},
	} {
		sq := &model.SubQuery{Region: c.region, Chunk: info.ID}
		res, err := qs.ExecuteSubQuery(sq) // fills the cache
		if err != nil {
			t.Fatal(err)
		}
		if res.LeavesRead < c.leaves || res.Len() < c.tuples || (c.leaves == 1 && res.LeavesRead != 1) {
			t.Fatalf("%s: %d leaves read, %d tuples", c.name, res.LeavesRead, res.Len())
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := qs.ExecuteSubQuery(sq); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d leaves, %d tuples, %.0f allocations", c.name, res.LeavesRead, res.Len(), allocs)
		if i == 0 {
			base = allocs
		}
		if allocs != base || allocs > 8 {
			t.Errorf("%s allocates %.0f times, the one-leaf subquery %.0f; want the same, at most 8", c.name, allocs, base)
		}
	}
}
