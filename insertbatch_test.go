package waterwheel

import (
	"encoding/binary"
	"errors"
	"math/rand"
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
		serial.Drain()
		batched.Drain()

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
// both servers. The returned BatchError must report the exact prefix that
// reached intact partitions — never a tuple on the faulted one — and the
// error string keeps the wire-visible `insert %d/%d rejected` shape.
func TestInsertBatchPrefixAckOnWALFault(t *testing.T) {
	db := openTestDB(t, Options{IndexServersPerNode: 2})
	schema := db.c.Metadata().Schema()
	// Keys below the separator land on server 0, above on server 1.
	low := Key(1 << 10)
	high := Key(1<<63 + 1<<10)
	if schema.ServerFor(low) != 0 || schema.ServerFor(high) != 1 {
		t.Fatalf("even schema routing changed: %d/%d", schema.ServerFor(low), schema.ServerFor(high))
	}
	batch := []Tuple{
		{Key: low, Time: 1000},
		{Key: low + 1, Time: 1001},
		{Key: low + 2, Time: 1002},
		{Key: high, Time: 1003},
		{Key: high + 1, Time: 1004},
	}
	db.c.WAL().Partition(1).FailNextAppends(1)
	err := db.InsertBatch(batch)
	if err == nil {
		t.Fatal("batch across a faulted partition fully acked")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BatchError", err)
	}
	if be.Index != 3 || be.Len != 5 {
		t.Fatalf("prefix = %d/%d, want 3/5", be.Index, be.Len)
	}
	if !errors.Is(err, wal.ErrInjectedAppend) {
		t.Fatalf("cause not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "waterwheel: insert 3/5 rejected:") {
		t.Fatalf("error shape changed: %q", err.Error())
	}
	// The acked prefix is durable and queryable; the rejected tail is not.
	db.Drain()
	res, qerr := db.QueryRange(FullKeyRange(), FullTimeRange())
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("queryable tuples = %d, want the acked prefix 3", len(res.Tuples))
	}
	// The partition recovers: resubmitting the tail succeeds.
	if err := db.InsertBatch(batch[be.Index:]); err != nil {
		t.Fatal(err)
	}
	db.Drain()
	if res, _ := db.QueryRange(FullKeyRange(), FullTimeRange()); len(res.Tuples) != 5 {
		t.Fatalf("after resubmit: %d tuples, want 5", len(res.Tuples))
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
		// contiguous run, so the cohort accounting below is exact.
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
