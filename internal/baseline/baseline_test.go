package baseline

import (
	"math/rand"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
)

func testFS() *dfs.FS {
	return dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
}

// refQuery is the linear-scan ground truth.
func refQuery(tuples []model.Tuple, q model.Query) int {
	n := 0
	for i := range tuples {
		t := &tuples[i]
		if q.Keys.Contains(t.Key) && q.Times.Contains(t.Time) && q.Filter.Matches(t) {
			n++
		}
	}
	return n
}

func randTuples(n int, rng *rand.Rand) []model.Tuple {
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.Tuple{
			Key:     model.Key(rng.Intn(100_000)),
			Time:    model.Timestamp(i), // in arrival order
			Payload: []byte{byte(i), byte(i >> 8)},
		}
	}
	return out
}

func randQueries(n int, rng *rand.Rand) []model.Query {
	out := make([]model.Query, n)
	for i := range out {
		k0 := model.Key(rng.Intn(100_000))
		t0 := model.Timestamp(rng.Intn(20_000))
		out[i] = model.Query{
			Keys:  model.KeyRange{Lo: k0, Hi: k0 + model.Key(rng.Intn(20_000))},
			Times: model.TimeRange{Lo: t0, Hi: t0 + model.Timestamp(rng.Intn(5_000))},
		}
	}
	return out
}

// Runs returns the total number of persisted runs.
func (l *LSM) Runs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, lvl := range l.levels {
		n += len(lvl)
	}
	return n
}

func TestLSMCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	store := NewLSM(LSMConfig{MemBytes: 8 << 10, MaxRunsPerLevel: 3}, testFS())
	defer store.Close()
	tuples := randTuples(10_000, rng)
	for _, tp := range tuples {
		store.Insert(tp)
	}
	if store.Runs() == 0 {
		t.Fatal("no runs flushed — threshold never tripped")
	}
	for _, q := range randQueries(30, rng) {
		res, err := store.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refQuery(tuples, q); len(res.Tuples) != want {
			t.Fatalf("query %v: got %d, want %d", q, len(res.Tuples), want)
		}
	}
}

func TestLSMCompactionBounds(t *testing.T) {
	store := NewLSM(LSMConfig{MemBytes: 4 << 10, MaxRunsPerLevel: 2}, testFS())
	rng := rand.New(rand.NewSource(2))
	for _, tp := range randTuples(20_000, rng) {
		store.Insert(tp)
	}
	// Size-tiered compaction keeps the run count bounded well below the
	// flush count (20k tuples / ~200 per memtable ≈ 100 flushes).
	if r := store.Runs(); r > 12 {
		t.Errorf("compaction not bounding runs: %d", r)
	}
}

func TestLSMMemtableVisibleBeforeFlush(t *testing.T) {
	store := NewLSM(LSMConfig{MemBytes: 1 << 30}, testFS())
	store.Insert(model.Tuple{Key: 7, Time: 9})
	res, err := store.Query(model.Query{Keys: model.KeyRange{Lo: 7, Hi: 7}, Times: model.FullTimeRange()})
	if err != nil || len(res.Tuples) != 1 {
		t.Fatalf("memtable read: %v, %v", res, err)
	}
}

func TestLSMQueryAfterExplicitFlush(t *testing.T) {
	store := NewLSM(LSMConfig{MemBytes: 1 << 30}, testFS())
	for i := 0; i < 500; i++ {
		store.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	store.Flush()
	if store.mem.Len() != 0 {
		t.Fatal("memtable not drained")
	}
	res, err := store.Query(model.Query{
		Keys:  model.KeyRange{Lo: 100, Hi: 199},
		Times: model.TimeRange{Lo: 0, Hi: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 51 { // keys 100..150
		t.Fatalf("got %d, want 51", len(res.Tuples))
	}
}

func TestTSCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := NewTS(TSConfig{SegmentBytes: 8 << 10}, testFS())
	defer store.Close()
	tuples := randTuples(10_000, rng)
	for _, tp := range tuples {
		store.Insert(tp)
	}
	if len(store.segments) == 0 {
		t.Fatal("no segments sealed")
	}
	for _, q := range randQueries(30, rng) {
		res, err := store.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refQuery(tuples, q); len(res.Tuples) != want {
			t.Fatalf("query %v: got %d, want %d", q, len(res.Tuples), want)
		}
	}
}

func TestTSLiveSegmentVisible(t *testing.T) {
	store := NewTS(TSConfig{SegmentBytes: 1 << 30}, testFS())
	store.Insert(model.Tuple{Key: 5, Time: 100})
	res, err := store.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 50, Hi: 150}})
	if err != nil || len(res.Tuples) != 1 {
		t.Fatalf("live read: %v, %v", res, err)
	}
}

func TestTSTimePruning(t *testing.T) {
	fs := testFS()
	store := NewTS(TSConfig{SegmentBytes: 1 << 10}, fs)
	// Three temporally disjoint batches → multiple segments.
	for w := 0; w < 3; w++ {
		for i := 0; i < 200; i++ {
			store.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(w*100_000 + i)})
		}
	}
	store.Flush()
	reads0 := fs.Metrics().Reads.Load()
	res, err := store.Query(model.Query{
		Keys:  model.FullKeyRange(),
		Times: model.TimeRange{Lo: 100_000, Hi: 100_050},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 51 {
		t.Fatalf("got %d, want 51", len(res.Tuples))
	}
	readsPerSegment := int64(3) // footer + index + data
	if got := fs.Metrics().Reads.Load() - reads0; got > readsPerSegment*2 {
		t.Errorf("time pruning ineffective: %d reads for a 1-window query", got)
	}
}

func TestTSOutOfOrderWithinSegment(t *testing.T) {
	store := NewTS(TSConfig{SegmentBytes: 1 << 30}, testFS())
	times := []model.Timestamp{50, 10, 90, 30, 70}
	for i, ts := range times {
		store.Insert(model.Tuple{Key: model.Key(i), Time: ts})
	}
	store.Flush()
	res, err := store.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 20, Hi: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 { // times 50, 30
		t.Fatalf("got %d, want 2", len(res.Tuples))
	}
}

func TestStoresWithFilters(t *testing.T) {
	for name, mk := range map[string]func() Store{
		"lsm": func() Store { return NewLSM(LSMConfig{MemBytes: 4 << 10}, testFS()) },
		"ts":  func() Store { return NewTS(TSConfig{SegmentBytes: 4 << 10}, testFS()) },
	} {
		store := mk()
		for i := 0; i < 1000; i++ {
			store.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
		}
		res, err := store.Query(model.Query{
			Keys:   model.FullKeyRange(),
			Times:  model.FullTimeRange(),
			Filter: model.KeyMod(10, 0),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tuples) != 100 {
			t.Fatalf("%s: filtered %d, want 100", name, len(res.Tuples))
		}
		store.Close()
	}
}
