package waterwheel

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"waterwheel/internal/model"
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

// TestDrainAfterStopReturnsErrClosed: Close(); Drain() is ErrClosed, in
// process and as a wire drain that lands on a closed DB — which used to
// park its handler for ever and wedge NetServer.Close behind it.
func TestDrainAfterStopReturnsErrClosed(t *testing.T) {
	db, cl, _ := netFixture(t, Options{}, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := returns(t, "Drain after Close", db.Drain); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "Flush after Close", db.Flush); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "wire drain after Close", cl.Drain); !errors.Is(err, ErrClosed) {
		t.Fatalf("wire drain after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "wire flush after Close", cl.Flush); !errors.Is(err, ErrClosed) {
		t.Fatalf("wire flush after Close = %v, want ErrClosed", err)
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
// serves a client that keeps writing, with hot standbys running. The late
// writes are answered ErrClosed over the wire, and once the network server
// and the client are closed too, no goroutine of the deployment is left:
// the count is back at its value before Open.
func TestCloseWithNetServerLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db, err := Open(Options{HotStandby: true})
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
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before Open:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestDrainReportsDeadConsumer: one undecodable record stops its slot's
// consumer while inserts keep being acked from the log. Drain says so — the
// consumer's error, in process and over TCP — instead of hanging, and the
// network server still closes.
func TestDrainReportsDeadConsumer(t *testing.T) {
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
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cluster().WAL().Partition(0).Append([]byte("not a tuple")); err != nil {
		t.Fatal(err)
	}
	err = returns(t, "Drain behind a dead consumer", db.Drain)
	if err == nil || !strings.Contains(err.Error(), "bad record at offset 1") {
		t.Fatalf("Drain behind a dead consumer = %v, want the decode failure", err)
	}
	werr := returns(t, "wire drain behind a dead consumer", cl.Drain)
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("wire drain = %v, want %v", werr, err)
	}
	if err := cl.Insert(Tuple{Key: 2, Time: 2}); err != nil {
		t.Fatalf("insert into the dead consumer's slot is still acked from the log: %v", err)
	}
	returns(t, "NetServer.Close", func() error { ns.Close(); return nil })
	if err := returns(t, "Close", db.Close); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("Close over unapplied acked tuples = %v, want the consumer's error", err)
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
