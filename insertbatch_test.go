package waterwheel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// batchStream builds a dup-heavy, time-disordered stream whose payloads
// carry the arrival sequence number, so result comparisons can tell apart
// tuples with equal key and time.
func batchStream(rng *rand.Rand, n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		p := make([]byte, 8)
		binary.BigEndian.PutUint64(p, uint64(i))
		// Keys spread over the full domain (so multi-server schemas split
		// them) but drawn from few distinct values per round.
		ts[i] = Tuple{
			Key:     Key(uint64(rng.Intn(64)) << 58),
			Time:    Timestamp(1000 + rng.Intn(5000)),
			Payload: p,
		}
	}
	return ts
}

func sortResult(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		if ts[i].Time != ts[j].Time {
			return ts[i].Time < ts[j].Time
		}
		return binary.BigEndian.Uint64(ts[i].Payload) < binary.BigEndian.Uint64(ts[j].Payload)
	})
}

// TestInsertBatchSerialEquivalenceDB feeds the same stream into two
// deployments — batches of one vs InsertBatch with random batch sizes —
// and requires identical query and aggregate results: how a stream is cut
// into batches must not change what is stored.
func TestInsertBatchSerialEquivalenceDB(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 3; round++ {
		opts := Options{
			IndexServersPerNode: 2,
			ChunkBytes:          8 << 10, // several flushes per round
		}
		serial := openTestDB(t, opts)
		batched := openTestDB(t, opts)
		stream := batchStream(rng, 2000+rng.Intn(2000))
		for _, tp := range stream {
			if err := serial.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		for pos := 0; pos < len(stream); {
			sz := 1 + rng.Intn(256)
			if pos+sz > len(stream) {
				sz = len(stream) - pos
			}
			if err := batched.InsertBatch(stream[pos : pos+sz]); err != nil {
				t.Fatal(err)
			}
			pos += sz
		}
		queries := []Query{
			{Keys: FullKeyRange(), Times: FullTimeRange()},
			{Keys: KeyRange{Lo: 0, Hi: 20 << 58}, Times: FullTimeRange()},
			{Keys: FullKeyRange(), Times: TimeRange{Lo: 2000, Hi: 4000}},
		}
		for qi, q := range queries {
			want, err := serial.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := batched.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sortResult(want.Tuples)
			sortResult(got.Tuples)
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("round %d query %d: batched %d tuples, serial %d",
					round, qi, len(got.Tuples), len(want.Tuples))
			}
			for i := range got.Tuples {
				g, w := got.Tuples[i], want.Tuples[i]
				if g.Key != w.Key || g.Time != w.Time ||
					binary.BigEndian.Uint64(g.Payload) != binary.BigEndian.Uint64(w.Payload) {
					t.Fatalf("round %d query %d position %d: batched %v, serial %v", round, qi, i, g, w)
				}
			}
			ag, err := batched.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times, Kind: model.AggSum})
			if err != nil {
				t.Fatal(err)
			}
			aw, err := serial.Aggregate(AggregateQuery{Keys: q.Keys, Times: q.Times, Kind: model.AggSum})
			if err != nil {
				t.Fatal(err)
			}
			if ag.Count != aw.Count || ag.Sum != aw.Sum {
				t.Fatalf("round %d query %d: aggregate %+v vs %+v", round, qi, ag, aw)
			}
		}
	}
}

// TestInsertBatchPrefixAckOnWALFault arms a one-shot append fault on one
// index server's WAL partition and submits a batch that routes tuples to
// both servers, once with each server's tuples contiguous and once
// interleaved. The returned BatchError must name exactly the positions
// routed to the faulted partition — a suffix in the first layout, holes in
// the second — with Index the first of them; exactly the other tuples are
// queryable after Drain, and resubmitting the Rejected positions leaves
// every tuple of the batch stored exactly once.
func TestInsertBatchPrefixAckOnWALFault(t *testing.T) {
	// Keys below the separator land on server 0, above on server 1.
	low, high := Key(1<<10), Key(1<<63+1<<10)
	for _, tc := range []struct {
		name     string
		keys     []Key
		rejected []int
	}{
		{"contiguous", []Key{low, low + 1, low + 2, high, high + 1}, []int{3, 4}},
		{"interleaved", []Key{low, high, low + 1, high + 1, low + 2}, []int{1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openTestDB(t, Options{IndexServersPerNode: 2})
			schema := db.c.Metadata().Schema()
			if schema.ServerFor(low) != 0 || schema.ServerFor(high) != 1 {
				t.Fatalf("even schema routing changed: %d/%d", schema.ServerFor(low), schema.ServerFor(high))
			}
			batch := make([]Tuple, len(tc.keys))
			for i, k := range tc.keys {
				batch[i] = Tuple{Key: k, Time: Timestamp(1000 + i)}
			}
			db.c.WAL().Partition(1).FailNextAppends(1)
			err := db.InsertBatch(batch)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v (%T), want *BatchError", err, err)
			}
			if be.Index != tc.rejected[0] || be.Len != 5 || !reflect.DeepEqual(be.Rejected, tc.rejected) {
				t.Fatalf("BatchError = index %d, len %d, rejected %v; want %d, 5, %v", be.Index, be.Len, be.Rejected, tc.rejected[0], tc.rejected)
			}
			if !errors.Is(err, wal.ErrInjectedAppend) {
				t.Fatalf("cause not surfaced: %v", err)
			}
			if want := fmt.Sprintf("waterwheel: insert rejected 2 of 5 tuples, first at %d:", be.Index); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err.Error(), want)
			}
			// Exactly the acked tuples are durable and queryable.
			stored := func() []Timestamp {
				res, err := db.QueryRange(FullKeyRange(), FullTimeRange())
				if err != nil {
					t.Fatal(err)
				}
				var times []Timestamp
				for _, tp := range res.Tuples {
					times = append(times, tp.Time)
				}
				sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
				return times
			}
			var acked, all []Timestamp
			for i := range batch {
				all = append(all, batch[i].Time)
				if !slices.Contains(be.Rejected, i) {
					acked = append(acked, batch[i].Time)
				}
			}
			if got := stored(); !reflect.DeepEqual(got, acked) {
				t.Fatalf("queryable tuples (by time) %v, want exactly the acked %v", got, acked)
			}
			// The partition recovers: the three-line resubmit loop.
			retry := make([]Tuple, 0, len(be.Rejected))
			for _, i := range be.Rejected {
				retry = append(retry, batch[i])
			}
			if err := db.InsertBatch(retry); err != nil {
				t.Fatal(err)
			}
			if got := stored(); !reflect.DeepEqual(got, all) {
				t.Fatalf("after resubmit: tuples (by time) %v, want each of %v exactly once", got, all)
			}
		})
	}
}

// TestInsertBatchBothServersFail: the groups are independent failure
// domains — both are attempted, both causes are joined into the error, and
// a fully rejected batch names every position.
func TestInsertBatchBothServersFail(t *testing.T) {
	db := openTestDB(t, Options{IndexServersPerNode: 2})
	db.c.WAL().Partition(0).FailNextAppends(1)
	db.c.WAL().Partition(1).FailNextAppends(1)
	err := db.InsertBatch([]Tuple{{Key: 1, Time: 1}, {Key: 1<<63 + 1, Time: 2}, {Key: 2, Time: 3}})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 0 || !reflect.DeepEqual(be.Rejected, []int{0, 1, 2}) {
		t.Fatalf("err = %v, want a BatchError rejecting [0 1 2]", err)
	}
	for _, server := range []string{"(server 0)", "(server 1)"} {
		if !strings.Contains(err.Error(), server) {
			t.Errorf("error %q does not name the failure of %s", err, server)
		}
	}
	// Both shots were spent on this batch: neither server was skipped.
	if err := db.InsertBatch([]Tuple{{Key: 1, Time: 1}, {Key: 1<<63 + 1, Time: 2}}); err != nil {
		t.Fatalf("next batch: %v", err)
	}
}

// TestInsertBatchAppendsOncePerServer: N interleaved 256-tuple batches on
// two servers cost exactly 2N WAL append calls (one per server per batch;
// contiguous-run slicing paid ≈ 128 per batch), N single-key batches and N
// Inserts cost N each — read from the counter an operator would read.
func TestInsertBatchAppendsOncePerServer(t *testing.T) {
	db := openTestDB(t, Options{IndexServersPerNode: 2})
	calls := func() float64 {
		for _, m := range db.c.Telemetry().Snapshot() {
			if m.Name == "waterwheel_wal_append_calls_total" {
				return m.Value
			}
		}
		t.Fatal("waterwheel_wal_append_calls_total not registered")
		return 0
	}
	rng := rand.New(rand.NewSource(29))
	const n = 7
	before := calls()
	for b := 0; b < n; b++ {
		batch := make([]Tuple, 256)
		for i := range batch {
			batch[i] = Tuple{Key: Key(rng.Uint64()), Time: Timestamp(b*256 + i)}
		}
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls() - before; got != 2*n {
		t.Fatalf("%d interleaved batches on two servers made %.0f WAL append calls, want exactly %d", n, got, 2*n)
	}
	before = calls()
	for b := 0; b < n; b++ {
		batch := make([]Tuple, 256)
		for i := range batch {
			batch[i] = Tuple{Key: 42, Time: Timestamp(10_000 + b*256 + i)}
		}
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(Tuple{Key: Key(rng.Uint64()), Time: 20_000}); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls() - before; got != 2*n {
		t.Fatalf("%d single-key batches and %d Inserts made %.0f WAL append calls, want exactly %d", n, n, got, 2*n)
	}
	res, err := db.Aggregate(AggregateQuery{Keys: FullKeyRange(), Times: FullTimeRange(), Kind: model.AggCount})
	if err != nil || res.Count != 2*n*256+n {
		t.Fatalf("COUNT(*) = %v, %v; want %d", res, err, 2*n*256+n)
	}
}

// TestInsertBatchFsyncCohorts asserts the durability amortization the
// batch pipeline promises: under ack-on-fsync, a batch costs one fsync
// cohort — not one fsync per tuple.
func TestInsertBatchFsyncCohorts(t *testing.T) {
	db := openTestDB(t, Options{
		DataDir:    t.TempDir(),
		Durability: "ack-on-fsync",
		// One index server = one WAL partition: the whole batch is a single
		// append, so the cohort accounting below is exact.
		IndexServersPerNode: 1,
	})
	rng := rand.New(rand.NewSource(23))
	const batches, perBatch = 10, 100
	for b := 0; b < batches; b++ {
		if err := db.InsertBatch(batchStream(rng, perBatch)); err != nil {
			t.Fatal(err)
		}
	}
	counters := map[string]float64{}
	for _, m := range db.c.Telemetry().Snapshot() {
		counters[m.Name] = m.Value
	}
	fsyncs, ok := counters["waterwheel_wal_fsyncs_total"]
	if !ok {
		t.Fatal("wal fsync counter not registered")
	}
	// One cohort per batch, plus slack for committer passes straddling a
	// batch; far below one fsync per tuple.
	if fsyncs > batches*2 {
		t.Fatalf("%.0f fsyncs for %d batches of %d: cohorts not amortized", fsyncs, batches, perBatch)
	}
	if got := counters["waterwheel_insert_batches_total"]; got != batches {
		t.Fatalf("insert_batches_total = %.0f, want %d", got, batches)
	}
}
