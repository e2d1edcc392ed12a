package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"waterwheel/internal/dispatcher"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

func testConfig() Config {
	return Config{
		Nodes:               2,
		IndexServersPerNode: 1,
		QueryServersPerNode: 2,
		DispatchersPerNode:  1,
		ChunkBytes:          1 << 20,
		CacheBytes:          4 << 20,
		TemplateLeaves:      32,
		Seed:                1,
	}
}

func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestInsertQueryRoundTrip(t *testing.T) {
	c := startCluster(t, testConfig())
	for i := 0; i < 1000; i++ {
		c.Insert(model.Tuple{
			Key:     model.Key(uint64(i) << 50),
			Time:    model.Timestamp(1000 + i),
			Payload: []byte{byte(i)},
		})
	}
	c.Drain()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1000 {
		t.Fatalf("got %d tuples, want 1000", len(res.Tuples))
	}
	if c.Ingested() != 1000 {
		t.Errorf("Ingested = %d", c.Ingested())
	}
}

func TestQueryAcrossFlushBoundary(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 4 << 10 // force frequent flushes
	c := startCluster(t, cfg)
	for i := 0; i < 3000; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 44), Time: model.Timestamp(i)})
	}
	c.Drain()
	if c.Metadata().ChunkCount() == 0 {
		t.Fatal("no chunks were flushed")
	}
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3000 {
		t.Fatalf("got %d tuples, want 3000 (chunks=%d, mem=%d)",
			len(res.Tuples), c.Metadata().ChunkCount(), c.MemLen())
	}
}

func TestSelectiveQueries(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 16 << 10
	c := startCluster(t, cfg)
	tuples := make([]model.Tuple, 5000)
	for i := range tuples {
		tuples[i] = model.Tuple{Key: model.Key(uint64(i%1000) << 50), Time: model.Timestamp(i)}
		c.Insert(tuples[i])
	}
	c.Drain()
	kr := model.KeyRange{Lo: 100 << 50, Hi: 200 << 50}
	tr := model.TimeRange{Lo: 1000, Hi: 2000}
	res, err := c.Query(model.Query{Keys: kr, Times: tr})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tp := range tuples {
		if kr.Contains(tp.Key) && tr.Contains(tp.Time) {
			want++
		}
	}
	if len(res.Tuples) != want || want == 0 {
		t.Fatalf("got %d, want %d (>0)", len(res.Tuples), want)
	}
}

// countAll returns the size of the full-region query result.
func countAll(t *testing.T, c *Cluster) int {
	t.Helper()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Tuples)
}

// TestDrainIsBarrier holds Drain to its contract: whatever was acked
// before the call is returned by a query issued after it. Concurrent
// writers mix Insert with InsertBatch sizes that cross the flush threshold
// inside one batch, so every round has consumers mid-merge and snapshots
// mid-flush when Drain starts polling; the count after Drain must equal
// the count acked, every round — starting with the first tuple into an
// empty server, where the bounds have to appear from nothing.
func TestDrainIsBarrier(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 8 << 10 // a 300-tuple batch crosses it on its own
	c := startCluster(t, cfg)

	if err := c.Insert(model.Tuple{Key: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if got := countAll(t, c); got != 1 {
		t.Fatalf("first tuple into an empty server: %d visible after Drain, want 1", got)
	}

	var acked atomic.Int64
	acked.Store(1)
	const writers, rounds = 4, 25
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				tuple := func() model.Tuple {
					return model.Tuple{
						Key:     model.Key(rng.Uint64()),
						Time:    model.Timestamp(1000 + rng.Intn(100_000)),
						Payload: make([]byte, 8),
					}
				}
				for i := 0; i < 8; i++ {
					if rng.Intn(2) == 0 {
						if err := c.Insert(tuple()); err != nil {
							t.Error(err)
							return
						}
						acked.Add(1)
						continue
					}
					batch := make([]model.Tuple, 1+rng.Intn(300))
					for j := range batch {
						batch[j] = tuple()
					}
					rejected, err := c.InsertBatch(batch)
					acked.Add(int64(len(batch) - len(rejected)))
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(round*writers + w))
		}
		wg.Wait()
		c.Drain()
		if got, want := countAll(t, c), int(acked.Load()); got != want {
			t.Fatalf("round %d: %d tuples visible after Drain, %d acked", round, got, want)
		}
	}
	if c.Metadata().ChunkCount() == 0 {
		t.Fatal("no batch crossed the flush threshold; the test lost its flush leg")
	}
}

// TestQueryIsBarrier holds every query to the insert→query contract: it
// returns whatever was acked before it was issued, with no Drain anywhere.
// The writers are TestDrainIsBarrier's — Insert mixed with InsertBatch sizes
// that cross the flush threshold inside one batch — and two readers query
// the whole region while they write, one with tuple queries and one with
// COUNT(*), each query checked against the tuples acked before it was
// issued and those submitted by the time it returned. Every round ends with
// one more query, which must see exactly what was acked.
func TestQueryIsBarrier(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 8 << 10 // a 300-tuple batch crosses it on its own
	c := startCluster(t, cfg)

	if err := c.Insert(model.Tuple{Key: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, c); got != 1 {
		t.Fatalf("first tuple into an empty server: %d visible, want 1", got)
	}

	// submitted moves before each insert call, acked after its ack.
	var submitted, acked atomic.Int64
	submitted.Store(1)
	acked.Store(1)
	const writers, readers, rounds = 4, 2, 10
	for round := 0; round < rounds; round++ {
		var wg, rg sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func(count bool) {
				defer rg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					before := acked.Load()
					var got int64
					if count {
						res, err := c.Aggregate(model.AggregateQuery{Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Kind: model.AggCount})
						if err != nil {
							t.Error(err)
							return
						}
						got = int64(res.Count)
					} else {
						res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
						if err != nil {
							t.Error(err)
							return
						}
						got = int64(len(res.Tuples))
					}
					if after := submitted.Load(); got < before || got > after {
						t.Errorf("round %d: a query returned %d tuples; %d were acked before it was issued, %d submitted by its end", round, got, before, after)
						return
					}
				}
			}(r%2 == 1)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				tuple := func() model.Tuple {
					return model.Tuple{
						Key:     model.Key(rng.Uint64()),
						Time:    model.Timestamp(1000 + rng.Intn(100_000)),
						Payload: make([]byte, 8),
					}
				}
				for i := 0; i < 8; i++ {
					if rng.Intn(2) == 0 {
						submitted.Add(1)
						if err := c.Insert(tuple()); err != nil {
							t.Error(err)
							return
						}
						acked.Add(1)
						continue
					}
					batch := make([]model.Tuple, 1+rng.Intn(300))
					for j := range batch {
						batch[j] = tuple()
					}
					submitted.Add(int64(len(batch)))
					rejected, err := c.InsertBatch(batch)
					acked.Add(int64(len(batch) - len(rejected)))
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(round*writers + w))
		}
		wg.Wait()
		close(done)
		rg.Wait()
		if t.Failed() {
			return
		}
		if got, want := countAll(t, c), int(acked.Load()); got != want {
			t.Fatalf("round %d: %d tuples visible to the next query, %d acked", round, got, want)
		}
	}
	if c.Metadata().ChunkCount() == 0 {
		t.Fatal("no batch crossed the flush threshold; the test lost its flush leg")
	}
}

// TestQueryWaitsForEverySlot: a query waits for every serving slot, not only
// those whose nominal interval meets it. A tuple routed under an older
// schema sits in the log of a slot that no longer owns its key; the test
// plants that state directly — a record of slot 1's key range appended to
// slot 0's partition, as a dispatcher still holding the schema before a
// split would have — because no hook can hold a consumer across a real
// TickBalance. A point query on the key, issued right after the append, must
// find it in slot 0's memtable.
func TestQueryWaitsForEverySlot(t *testing.T) {
	c := startCluster(t, testConfig())
	schema := c.ms.Schema()
	if schema.Servers < 2 {
		t.Fatal("the test needs two slots")
	}
	owned := schema.IntervalOf(1)
	for r := 0; r < 200; r++ {
		tp := model.Tuple{Key: owned.Lo + model.Key(r), Time: model.Timestamp(1000 + r), Payload: []byte{byte(r)}}
		if schema.ServerFor(tp.Key) != 1 {
			t.Fatalf("key %d is not slot 1's", tp.Key)
		}
		if _, err := c.log.Partition(0).Append(model.AppendTuple(nil, &tp)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(model.Query{Keys: model.KeyRange{Lo: tp.Key, Hi: tp.Key}, Times: model.TimeRange{Lo: tp.Time, Hi: tp.Time}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("round %d: a tuple in slot 0's log for slot 1's key was not returned (%d tuples)", r, len(res.Tuples))
		}
	}
}

// TestAppliedIsPlanned: a tuple its slot has applied is in the next plan,
// with no Drain in between. Every round inserts a tuple older than
// everything before it by more than Δt (10 s), so only the slot's new
// minimum lets a point query at its timestamp plan a mem-subquery; the round
// waits until the slot has applied the tuple, and the query must find it.
// The planner reads each serving server's own bounds, which move with the
// inserts in the same step as the applied offset. (It used to read a copy the
// consumer published a beat after the offset moved, and missed a tuple or
// two in 5 000 rounds.)
func TestAppliedIsPlanned(t *testing.T) {
	rounds := 5000
	if testing.Short() {
		rounds = 500
	}
	c := startCluster(t, testConfig())
	const step = 20_000 // ms: more than Δt
	misses := 0
	for r := 0; r < rounds; r++ {
		key := model.Key(uint64(r) * 0x9E3779B97F4A7C15)
		ts := model.Timestamp(int64(rounds-r) * step)
		if err := c.Insert(model.Tuple{Key: key, Time: ts}); err != nil {
			t.Fatal(err)
		}
		slot := c.ms.Schema().ServerFor(key)
		if err := c.waitApplied(slot, c.log.Partition(slot).Next()); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(model.Query{Keys: model.KeyRange{Lo: key, Hi: key}, Times: model.TimeRange{Lo: ts, Hi: ts}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d of %d applied tuples missing from the next query", misses, rounds)
	}
}

// TestOneTupleRunPrefixAck: a one-tuple share of a batch is a group like
// any other, through the same SendGroups/StartAppend code: a fault on its
// partition rejects exactly that position, and the tuples around it — the
// later one on the healthy server included — are acked and stored.
func TestOneTupleRunPrefixAck(t *testing.T) {
	c := startCluster(t, testConfig()) // two servers, split at 1<<63
	low, high := model.Key(1<<10), model.Key(1<<63+1<<10)
	batch := []model.Tuple{
		{Key: low, Time: 1}, {Key: low + 1, Time: 2},
		{Key: high, Time: 3}, // a group of one, aimed at the faulted partition
		{Key: low + 2, Time: 4},
	}
	c.WAL().Partition(1).FailNextAppends(1)
	rejected, err := c.InsertBatch(batch)
	if !reflect.DeepEqual(rejected, []int{2}) || !errors.Is(err, wal.ErrInjectedAppend) {
		t.Fatalf("InsertBatch = %v, %v; want position [2] and the injected fault", rejected, err)
	}
	// The same fault on a bare Insert: not acked, not stored.
	c.WAL().Partition(1).FailNextAppends(1)
	if err := c.Insert(batch[2]); !errors.Is(err, wal.ErrInjectedAppend) {
		t.Fatalf("Insert on a faulted partition = %v, want the injected fault", err)
	}
	c.Drain()
	if got := queryTimes(t, c); !reflect.DeepEqual(got, []model.Timestamp{1, 2, 4}) {
		t.Fatalf("stored tuples (by time) %v, want exactly the acked 1, 2 and 4", got)
	}
	// The fault was one-shot: the rejected position goes through on resubmit.
	if rejected, err := c.InsertBatch([]model.Tuple{batch[2]}); rejected != nil || err != nil {
		t.Fatalf("resubmitted position = %v, %v", rejected, err)
	}
	c.Drain()
	if got := queryTimes(t, c); !reflect.DeepEqual(got, []model.Timestamp{1, 2, 3, 4}) {
		t.Fatalf("stored tuples (by time) after resubmit %v, want each of the four once", got)
	}
}

// queryTimes returns the timestamps of everything stored, ascending.
func queryTimes(t *testing.T, c *Cluster) []model.Timestamp {
	t.Helper()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]model.Timestamp, len(res.Tuples))
	for i := range res.Tuples {
		out[i] = res.Tuples[i].Time
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAppendSideAllocatesOnlyTheWALCopy: from a batch of tuples to the log,
// a batch spanning two servers allocates no more bytes per tuple than the
// WAL's own copy of it — the record, its 12 B frame header and its slot in
// the resident window. The one encode is into a pooled buffer, the
// scatter's working set is pooled, and each server's records go to
// StartAppend as they are, which copies them once. The consumers are not
// started, so the log's buffers are all that grows.
func TestAppendSideAllocatesOnlyTheWALCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops entries at random")
	}
	c := New(testConfig()) // two servers, split at 1<<63
	defer c.Stop()
	payload := make([]byte, 16)
	for _, n := range []int{64, 1024} {
		batch := make([]model.Tuple, n)
		for i := range batch {
			batch[i] = model.Tuple{Key: model.Key(uint64(i%2)<<63 | uint64(i)), Time: model.Timestamp(i), Payload: payload}
		}
		run := func() {
			if rejected, err := c.InsertBatch(batch); err != nil {
				t.Fatalf("InsertBatch rejected %v: %v", rejected, err)
			}
			for i := 0; i < c.WAL().Partitions(); i++ {
				p := c.WAL().Partition(i)
				p.Truncate(p.Next())
			}
		}
		for i := 0; i < 20; i++ {
			run()
		}
		const rounds = 50
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1) // the collector empties pools
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		got := float64(after.TotalAlloc-before.TotalAlloc) / (rounds * float64(n))
		walCopy := model.EncodedSize(&batch[0]) + 12 + int(unsafe.Sizeof(payload))
		t.Logf("%d-tuple batch: %.1f bytes allocated per tuple; the WAL's copy is %d", n, got, walCopy)
		if got > float64(walCopy) {
			t.Errorf("a %d-tuple two-server batch allocates %.1f bytes per tuple on its way to the log, more than the WAL's own copy (%d)", n, got, walCopy)
		}
	}
}

// oneGroup is a sink call carrying ts as one group aimed at server, at the
// given positions of some larger batch (nil: the group is the batch).
func oneGroup(c *Cluster, server int, ts []model.Tuple, pos []int) ([]int, error) {
	recs := model.AppendRecords(nil, model.AppendTuples(nil, ts))
	rejected, err := (walSink{c: c}).SendGroups([]dispatcher.Group{{Server: server, Records: recs, Pos: pos}})
	sort.Ints(rejected)
	return rejected, err
}

// TestOneTupleRunReroutes: a one-tuple group aimed at a retired slot lands
// in the partition the current schema names; a group that re-resolves
// across two servers reports what the deeper hop rejected in the caller's
// numbering; and one aimed at a slot that stays sealed gives up after
// rerouteHops instead of spinning.
func TestOneTupleRunReroutes(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 3
	c := startCluster(t, cfg)
	if err := c.DecommissionIndexServer(1); err != nil {
		t.Fatal(err)
	}
	// A dispatcher still holding the pre-removal schema would send this
	// key to slot 1.
	tp := model.Tuple{Key: model.Key(1) << 63, Time: 7}
	if rejected, err := oneGroup(c, 1, []model.Tuple{tp}, nil); rejected != nil || err != nil {
		t.Fatalf("send to a retired slot = %v, %v; want a reroute and an ack", rejected, err)
	}
	schema := c.Metadata().Schema()
	owner := schema.ServerFor(tp.Key)
	if owner == 1 || c.WAL().Partition(owner).Next() != 1 {
		t.Fatalf("tuple not in its current owner's partition (owner %d)", owner)
	}
	c.Drain()
	if got := countAll(t, c); got != 1 {
		t.Fatalf("%d tuples visible after the reroute, want 1", got)
	}

	// A stale group for the retired slot whose keys the current schema
	// splits over two servers, sitting at positions 3, 5, 8, 9 of its
	// batch; the other server's partition faults. The deeper hop rejects
	// its own positions 1 and 3 — the caller must hear 5 and 9.
	other := model.Key(^uint64(0) - 1<<10)
	if o := schema.ServerFor(other); o == owner || o == 1 {
		t.Fatalf("key %d routes to %d: the test needs a second live server", other, o)
	}
	stale := []model.Tuple{{Key: tp.Key, Time: 10}, {Key: other, Time: 11}, {Key: tp.Key + 1, Time: 12}, {Key: other + 1, Time: 13}}
	c.WAL().Partition(schema.ServerFor(other)).FailNextAppends(1)
	rejected, err := oneGroup(c, 1, stale, []int{3, 5, 8, 9})
	if !reflect.DeepEqual(rejected, []int{5, 9}) || !errors.Is(err, wal.ErrInjectedAppend) {
		t.Fatalf("split reroute = %v, %v; want positions [5 9] and the injected fault", rejected, err)
	}
	c.Drain()
	if got := queryTimes(t, c); !reflect.DeepEqual(got, []model.Timestamp{7, 10, 12}) {
		t.Fatalf("stored tuples (by time) %v, want the first one and the two acked by the reroute", got)
	}

	// Seal the owner's partition behind the schema's back: every reroute
	// resolves to the same sealed slot, so the chain must end.
	c.WAL().Partition(owner).Seal()
	rejected, err = oneGroup(c, owner, []model.Tuple{tp}, []int{4})
	if !reflect.DeepEqual(rejected, []int{4}) || err == nil || !strings.Contains(err.Error(), "reroutes") {
		t.Fatalf("send to a sealed slot = %v, %v; want position [4] and the reroute-limit error", rejected, err)
	}
}

func TestAdaptiveRebalancing(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 4
	c := startCluster(t, cfg)
	rng := rand.New(rand.NewSource(2))
	// All keys land in server 0's initial interval.
	for i := 0; i < 10000; i++ {
		c.Insert(model.Tuple{Key: model.Key(rng.Intn(1 << 20)), Time: model.Timestamp(i)})
	}
	c.Drain()
	if !c.TickBalance() {
		t.Fatal("balancer did not fire on a fully skewed stream")
	}
	if c.Metadata().Schema().Version < 2 {
		t.Error("schema version not bumped")
	}
	// Post-rebalance traffic spreads across servers.
	for i := 0; i < 8000; i++ {
		c.Insert(model.Tuple{Key: model.Key(rng.Intn(1 << 20)), Time: model.Timestamp(20000 + i)})
	}
	c.Drain()
	counts := make([]int64, len(c.IndexServers()))
	for i, srv := range c.IndexServers() {
		counts[i] = srv.Stats().Ingested.Load()
	}
	spread := 0
	for _, n := range counts {
		if n > 500 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("ingestion still concentrated after rebalance: %v", counts)
	}
	// Correctness across the repartition: everything still queryable.
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 18000 {
		t.Fatalf("got %d tuples, want 18000", len(res.Tuples))
	}
}

// TestRepartitionOverlapCorrectness is the paper's Fig. 4 walkthrough: a
// repartition moves a key range to another slot while the old owner still
// buffers tuples from it (§III-D). Those tuples must stay visible, exactly
// once, through the overlap window — the old owner answers for them from its
// own bounds, not from the schema — and after the flush that ends it.
func TestRepartitionOverlapCorrectness(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 2
	cfg.ChunkBytes = 1 << 30 // no flush until FlushAll
	c := startCluster(t, cfg)
	rng := rand.New(rand.NewSource(3))
	keys := make([]model.Key, 5000)
	for i := range keys {
		keys[i] = model.Key(rng.Intn(1 << 30))
		c.Insert(model.Tuple{Key: keys[i], Time: model.Timestamp(i)})
	}
	c.Drain()
	before := c.Metadata().Schema()
	if !c.TickBalance() {
		t.Fatal("expected a repartition")
	}
	after := c.Metadata().Schema()
	// The key range that changed owner: between the old bound and the new.
	moved := model.KeyRange{Lo: min(before.Bounds[0], after.Bounds[0]), Hi: max(before.Bounds[0], after.Bounds[0]) - 1}
	inMoved := 0
	for _, k := range keys {
		if moved.Contains(k) {
			inMoved++
		}
	}
	if inMoved == 0 {
		t.Fatalf("no tuple in the moved key range %v: the walkthrough checks nothing", moved)
	}
	exactlyOnce := func(when string, kr model.KeyRange, want int) {
		t.Helper()
		res, err := c.Query(model.Query{Keys: kr, Times: model.FullTimeRange()})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[model.Timestamp]bool, len(res.Tuples))
		for _, tp := range res.Tuples {
			if seen[tp.Time] {
				t.Fatalf("%s: tuple %d returned twice over %v", when, tp.Time, kr)
			}
			seen[tp.Time] = true
		}
		if len(seen) != want {
			t.Fatalf("%s: %d of %d tuples over %v", when, len(seen), want, kr)
		}
	}
	exactlyOnce("after the repartition, before a flush", model.FullKeyRange(), len(keys))
	exactlyOnce("after the repartition, before a flush", moved, inMoved)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	exactlyOnce("after the flush", moved, inMoved)
	exactlyOnce("after the flush", model.FullKeyRange(), len(keys))
}

func TestIndexServerCrashRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 8 << 10
	c := startCluster(t, cfg)
	for i := 0; i < 4000; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 45), Time: model.Timestamp(i)})
	}
	c.Drain()
	before, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashIndexServer(0); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tuples) != len(before.Tuples) {
		t.Fatalf("data lost across crash: %d -> %d", len(before.Tuples), len(after.Tuples))
	}
	// The replacement keeps ingesting.
	for i := 0; i < 100; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 45), Time: model.Timestamp(10_000 + i)})
	}
	c.Drain()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 10_000, Hi: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("post-recovery inserts: %d/100 visible", len(res.Tuples))
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 32 << 10
	c := startCluster(t, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				c.Insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: model.Timestamp(i)})
			}
		}(w)
	}
	qErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}); err != nil {
				select {
				case qErr <- err:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-qErr:
		t.Fatalf("query during ingest: %v", err)
	default:
	}
	c.Drain()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 8000 {
		t.Fatalf("got %d tuples, want 8000", len(res.Tuples))
	}
}

func TestStopIdempotentAndRestartSafe(t *testing.T) {
	c := New(testConfig())
	c.Start()
	c.Start() // idempotent
	c.Insert(model.Tuple{Key: 1, Time: 1})
	c.Drain()
	c.Stop()
	c.Stop() // idempotent
}

// TestQueryNeverMissesAcrossFlushRegistration: a query must return every
// tuple that was acked and drained before it started, whatever the flush
// pipeline does meanwhile. The writer keeps turning one-tuple memtables
// into chunks — each flush registers its chunk and drops the snapshot from
// the server's bounds — while the readers count the full region against the
// number drained before each query. A plan that reads the chunk list
// before the registration and the bounds after it holds the tuple in
// neither half and comes back one short. Both query
// classes read: a tuple query and an aggregate COUNT(*) go through the same
// planner, and the ordering has to hold for each.
func TestQueryNeverMissesAcrossFlushRegistration(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1 // one indexing server: every flush is the race's flush
	c := startCluster(t, cfg)
	const flushes = 400 // bounds the chunk count, and with it each query's cost
	var drained atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flushes; i++ {
			if err := c.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}); err != nil {
				t.Error(err)
				return
			}
			c.Drain()
			drained.Add(1)
			c.FlushAll()
		}
	}()
	readers := []struct {
		name  string
		count func() int
	}{
		{"tuple query", func() int { return countAll(t, c) }},
		{"aggregate COUNT(*)", func() int {
			res, err := c.Aggregate(model.AggregateQuery{
				Keys: model.FullKeyRange(), Times: model.FullTimeRange(), Kind: model.AggCount,
			})
			if err != nil {
				t.Fatal(err)
			}
			return int(res.Count)
		}},
	}
	for running := true; running; {
		select {
		case <-done:
			running = false // one last round over the settled state
		default:
		}
		for _, r := range readers {
			want := int(drained.Load())
			if got := r.count(); got < want {
				t.Errorf("%s returned %d tuples, %d were drained before it started", r.name, got, want)
				running = false
			}
		}
	}
	<-done
}
