package waterwheel

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"waterwheel/internal/model"
	"waterwheel/internal/transport"
)

// returns fails the test if f has not returned after 10 s: these calls used
// to hang for good.
func returns(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// TestQueryAfterStopReturnsErrClosed: Close(); a query is ErrClosed, in
// process and as a wire query that lands on a closed DB — a wait behind the
// store's door used to park its handler for ever and wedge NetServer.Close
// behind it. Flush answers the same.
func TestQueryAfterStopReturnsErrClosed(t *testing.T) {
	db, cl, _ := netFixture(t, Options{}, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
	for what, f := range map[string]func() error{
		"Query":          func() error { _, err := db.Query(q); return err },
		"QueryTraced":    func() error { _, _, err := db.QueryTraced(q); return err },
		"Aggregate":      func() error { _, err := db.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times}); return err },
		"Flush":          db.Flush,
		"wire Query":     func() error { _, err := cl.Query(q); return err },
		"wire Aggregate": func() error { _, err := cl.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times}); return err },
		"wire Flush":     cl.Flush,
	} {
		if err := returns(t, what+" after Close", f); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", what, err)
		}
	}
}

// TestInsertAfterCloseIsRejected: an insert into a closed store is refused
// with ErrClosed — embedded and over the wire, with and without a DataDir —
// instead of being acked into a log no consumer will ever apply (memory
// residency used to return nil; a DataDir answered "wal: segment closed").
// The log refuses on its own too, for a caller that holds the cluster or
// races Close past the DB's door.
func TestInsertAfterCloseIsRejected(t *testing.T) {
	for name, opts := range map[string]Options{"memory": {}, "datadir": {DataDir: t.TempDir()}} {
		t.Run(name, func(t *testing.T) {
			db, cl, ts := netFixture(t, opts, 10)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			before := db.Stats()
			late := Tuple{Key: 7, Time: 9000, Payload: []byte("late")}
			for what, insert := range map[string]func() error{
				"Insert":              func() error { return db.Insert(late) },
				"InsertBatch":         func() error { return db.InsertBatch(ts) },
				"wire Insert":         func() error { return cl.Insert(late) },
				"wire InsertBatch":    func() error { return cl.InsertBatch(ts) },
				"cluster Insert":      func() error { return db.Cluster().Insert(late) },
				"cluster InsertBatch": func() error { _, err := db.Cluster().InsertBatch(ts); return err },
			} {
				if err := returns(t, what+" after Close", insert); !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", what, err)
				}
			}
			if after := db.Stats(); after.Ingested != before.Ingested {
				t.Errorf("ingested moved %d -> %d after Close", before.Ingested, after.Ingested)
			}
		})
	}
}

// TestCloseWithNetServerLeavesNoGoroutines: Close while a network server
// serves a client that keeps writing. The late writes are answered
// ErrClosed over the wire, and once the network server and the client are
// closed too, no goroutine of the deployment is left: the count is back at
// its value before Open.
func TestCloseWithNetServerLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := cl.Insert(Tuple{Key: Key(i), Time: Timestamp(i), Payload: []byte("x")}); err != nil {
				writer <- err
				return
			}
		}
	}()
	for db.Stats().Ingested < 100 {
		time.Sleep(200 * time.Microsecond)
	}
	if err := returns(t, "Close", db.Close); err != nil {
		t.Fatal(err)
	}
	if err := <-writer; !errors.Is(err, ErrClosed) {
		t.Fatalf("a write after Close = %v, want ErrClosed", err)
	}
	ns.Close()
	cl.Close()
	settles(t, baseline)
}

// settles fails the test unless the goroutine count is back at baseline, its
// value before Open, within 5 s.
func settles(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before Open:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestQueryReportsDeadConsumer: one undecodable record stops its slot's
// consumer while inserts keep being acked from the log. The next query says
// so — the consumer's error, in process and over TCP — instead of hanging or
// leaving the slot's tuples out, and the network server still closes.
func TestQueryReportsDeadConsumer(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert(Tuple{Key: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
	if res, err := cl.Query(q); err != nil || len(res.Tuples) != 1 {
		t.Fatalf("query before the bad record = %v, %v; want the one tuple", res, err)
	}
	if _, err := db.Cluster().WAL().Partition(0).Append([]byte("not a tuple")); err != nil {
		t.Fatal(err)
	}
	err = returns(t, "Query behind a dead consumer", func() error { _, err := db.Query(q); return err })
	if err == nil || !strings.Contains(err.Error(), "bad record at offset 1") {
		t.Fatalf("Query behind a dead consumer = %v, want the decode failure", err)
	}
	aerr := returns(t, "Aggregate behind a dead consumer", func() error { _, err := db.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times}); return err })
	if aerr == nil || aerr.Error() != err.Error() {
		t.Fatalf("Aggregate behind a dead consumer = %v, want %v", aerr, err)
	}
	werr := returns(t, "wire query behind a dead consumer", func() error { _, err := cl.Query(q); return err })
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("wire query = %v, want %v", werr, err)
	}
	if err := cl.Insert(Tuple{Key: 2, Time: 2}); err != nil {
		t.Fatalf("insert into the dead consumer's slot is still acked from the log: %v", err)
	}
	returns(t, "NetServer.Close", func() error { ns.Close(); return nil })
	if err := returns(t, "Close", db.Close); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("Close over unapplied acked tuples = %v, want the consumer's error", err)
	}
}

// TestReadAfterAck: a query sees every tuple acked before it was issued.
// Each round inserts one tuple and at once asks a point query for it — with
// one and two indexing servers in memory, with a DataDir under
// ack-on-fsync, and over TCP. An ack only means "in the log", and the
// consumer applies it a batching window later; a query that did not wait for
// it missed 499 of 500.
func TestReadAfterAck(t *testing.T) {
	const rounds = 500
	type api struct {
		insert func(Tuple) error
		query  func(Query) (*Result, error)
	}
	embedded := func(db *DB) api { return api{db.Insert, db.Query} }
	for _, tc := range []struct {
		name string
		opts Options
		wire bool
	}{
		{name: "memory-1-server", opts: Options{IndexServersPerNode: 1}},
		{name: "memory-2-servers", opts: Options{IndexServersPerNode: 2}},
		{name: "datadir-ack-on-fsync", opts: Options{DataDir: t.TempDir(), Durability: "ack-on-fsync"}},
		{name: "dial", opts: Options{IndexServersPerNode: 2}, wire: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openTestDB(t, tc.opts)
			a := embedded(db)
			if tc.wire {
				ns, err := db.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ns.Close)
				cl, err := Dial(ns.Addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				a = api{cl.Insert, cl.Query}
			}
			misses := 0
			for r := 0; r < rounds; r++ {
				tp := Tuple{Key: Key(uint64(r) * 0x9E3779B97F4A7C15), Time: Timestamp(1000 + r), Payload: []byte{byte(r)}}
				if err := a.insert(tp); err != nil {
					t.Fatal(err)
				}
				res, err := a.query(Query{Keys: KeyRange{Lo: tp.Key, Hi: tp.Key}, Times: TimeRange{Lo: tp.Time, Hi: tp.Time}})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tuples) != 1 {
					misses++
				}
			}
			if misses > 0 {
				t.Fatalf("%d of %d point queries missed the tuple acked just before them", misses, rounds)
			}
		})
	}
}

// TestStalledSlotQueryIsBusy: chunk writes fail, and one slot is flooded
// past FlushQueueDepth+1 flush units, so its consumer is held by
// backpressure behind a flusher parked on a failed write; then one more
// tuple is acked. A query cannot see it, and says so with ErrBusy — in
// process and over TCP, within busyBound, where it would otherwise wait for
// the storage to recover. Once the fault clears, the next query returns
// every acked tuple.
func TestStalledSlotQueryIsBusy(t *testing.T) {
	const busyBound = 2 * time.Second
	db, cl, _ := netFixture(t, Options{IndexServersPerNode: 1, ChunkBytes: 4 << 10}, 0)
	db.Cluster().FS().SetWriteFailRate(1)
	// One server, so one slot takes everything: ~40 B of tree a tuple, so
	// 2 000 tuples are ~20 thresholds, several times the queue's bound.
	const flood = 2000
	batch := make([]Tuple, flood)
	for i := range batch {
		batch[i] = Tuple{Key: Key(i), Time: Timestamp(1000 + i), Payload: make([]byte, 16)}
	}
	if err := db.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(Tuple{Key: 1 << 40, Time: 5000}); err != nil {
		t.Fatal(err)
	}
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
	for what, f := range map[string]func() error{
		"Query":      func() error { _, err := db.Query(q); return err },
		"Aggregate":  func() error { _, err := db.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times}); return err },
		"wire Query": func() error { _, err := cl.Query(q); return err },
	} {
		start := time.Now()
		err := returns(t, what+" on a stalled slot", f)
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("%s on a stalled slot = %v, want ErrBusy", what, err)
		}
		if took := time.Since(start); took > busyBound {
			t.Fatalf("%s took %v to answer ErrBusy, bound %v", what, took, busyBound)
		}
	}
	db.Cluster().FS().ClearFaults()
	for what, f := range map[string]func(Query) (*Result, error){"Query": db.Query, "wire Query": cl.Query} {
		var res *Result
		err := returns(t, what+" after the fault cleared", func() (err error) { res, err = f(q); return err })
		if err != nil {
			t.Fatalf("%s after the fault cleared: %v", what, err)
		}
		if len(res.Tuples) != flood+1 {
			t.Fatalf("%s after the fault cleared: %d tuples, %d acked", what, len(res.Tuples), flood+1)
		}
	}
}

// TestFlushDuringOutageIsBusy: with every chunk write failing, Flush cannot
// put what was acked into chunks, and says so with ErrBusy instead of nil;
// nothing is registered. Once the fault clears, Flush answers nil.
func TestFlushDuringOutageIsBusy(t *testing.T) {
	db := openTestDB(t, Options{IndexServersPerNode: 1})
	db.Cluster().FS().SetWriteFailRate(1)
	for i := 0; i < 10; i++ {
		if err := db.Insert(Tuple{Key: Key(i), Time: Timestamp(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := returns(t, "Flush during the outage", db.Flush); !errors.Is(err, ErrBusy) {
		t.Fatalf("Flush during the outage = %v, want ErrBusy", err)
	}
	if n := db.Stats().Chunks; n != 0 {
		t.Fatalf("%d chunks registered during the outage", n)
	}
	db.Cluster().FS().ClearFaults()
	if err := returns(t, "Flush after the fault cleared", db.Flush); err != nil {
		t.Fatalf("Flush after the fault cleared: %v", err)
	}
	if st := db.Stats(); st.Chunks == 0 || st.Buffered != 0 {
		t.Fatalf("after Flush: %d chunks, %d tuples buffered", st.Chunks, st.Buffered)
	}
}

// TestCloseDuringOutage: chunk writes fail and one slot is flooded past
// FlushQueueDepth+1 flush units, so its consumer is held by backpressure
// behind a flusher parked on a failed write. Close does not wait for the
// storage: it answers ErrBusy within busyBound and leaves no goroutine
// behind. What no chunk holds is in the log: with a DataDir under
// ack-on-fsync, the next Open returns every acked tuple exactly once.
func TestCloseDuringOutage(t *testing.T) {
	const busyBound = 2 * time.Second
	// One server, so one slot takes everything: ~40 B of tree a tuple, so
	// 2 000 tuples are ~20 thresholds, several times the queue's bound.
	const flood = 2000
	batch := make([]Tuple, flood)
	for i := range batch {
		batch[i] = Tuple{Key: Key(i), Time: Timestamp(1000 + i), Payload: make([]byte, 16)}
	}
	closeDuringOutage := func(t *testing.T, opts Options) {
		t.Helper()
		baseline := runtime.NumGoroutine()
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		db.Cluster().FS().SetWriteFailRate(1)
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := returns(t, "Close during the outage", db.Close); !errors.Is(err, ErrBusy) {
			t.Fatalf("Close during the outage = %v, want ErrBusy", err)
		}
		if took := time.Since(start); took > busyBound {
			t.Fatalf("Close took %v to answer ErrBusy, bound %v", took, busyBound)
		}
		settles(t, baseline)
	}
	t.Run("memory", func(t *testing.T) {
		closeDuringOutage(t, Options{IndexServersPerNode: 1, ChunkBytes: 4 << 10, Seed: 1})
	})
	t.Run("datadir", func(t *testing.T) {
		opts := Options{IndexServersPerNode: 1, ChunkBytes: 4 << 10, Seed: 1, DataDir: t.TempDir(), Durability: "ack-on-fsync"}
		closeDuringOutage(t, opts)
		db := openTestDB(t, opts)
		res, err := db.QueryRange(FullKeyRange(), FullTimeRange())
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[Key]int, flood)
		for _, tu := range res.Tuples {
			seen[tu.Key]++
		}
		for i := range batch {
			if n := seen[batch[i].Key]; n != 1 {
				t.Fatalf("key %d returned %d times after the reopen, want once", batch[i].Key, n)
			}
		}
		if len(res.Tuples) != flood {
			t.Fatalf("%d tuples after the reopen, %d acked", len(res.Tuples), flood)
		}
	})
}

// TestOlderClientsDrainIsUnknown: the drain verb is gone — a query is the
// barrier. A frame for it from an older client is answered at once with the
// transport's unknown-method status, not parked and not dropped.
func TestOlderClientsDrainIsUnknown(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	tc, err := transport.Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	err = returns(t, "a drain frame", func() error { _, err := tc.Call("drain", nil); return err })
	var se *transport.StatusError
	if !errors.As(err, &se) || se.Code != transport.StatusUnknownMethod {
		t.Fatalf("drain frame = %v, want status %d (unknown method)", err, transport.StatusUnknownMethod)
	}
	// The connection still serves.
	if _, err := tc.Call("stats", nil); err != nil {
		t.Fatalf("stats after a drain frame: %v", err)
	}
}

// TestFlushLeavesNothingBuffered: when Flush returns, every tuple acked
// before it is in a registered chunk — embedded and over the wire. Inserts
// are acked from the log ahead of the consumers, so a Flush that flushed
// only what they had applied left part of a just-acked batch in memtables.
func TestFlushLeavesNothingBuffered(t *testing.T) {
	const n = 20_000
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Key: Key(uint64(i) * 0x9E3779B97F4A7C15), Time: Timestamp(1000 + i), Payload: []byte{byte(i)}}
	}
	check := func(t *testing.T, db *DB, insert func([]Tuple) error, flush func() error, stats func() (Stats, error)) {
		t.Helper()
		if err := insert(ts); err != nil {
			t.Fatal(err)
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		st, err := stats()
		if err != nil {
			t.Fatal(err)
		}
		inChunks := 0
		for _, ci := range db.Cluster().Metadata().ChunksFor(model.FullRegion()) {
			inChunks += ci.Count
		}
		if st.Buffered != 0 || inChunks != n {
			t.Fatalf("after Flush: %d tuples buffered, %d in chunks; want 0 and %d", st.Buffered, inChunks, n)
		}
	}
	t.Run("embedded", func(t *testing.T) {
		db := openTestDB(t, Options{ChunkBytes: 64 << 20})
		check(t, db, db.InsertBatch, db.Flush, func() (Stats, error) { return db.Stats(), nil })
	})
	t.Run("wire", func(t *testing.T) {
		db, cl, _ := netFixture(t, Options{ChunkBytes: 64 << 20}, 0)
		check(t, db, cl.InsertBatch, cl.Flush, cl.Stats)
	})
}
