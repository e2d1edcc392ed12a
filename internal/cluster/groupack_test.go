package cluster

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// interleavedBatch returns n tuples alternating between the two servers of
// the even two-slot schema, seqs from..from+n-1 in the payloads.
func interleavedBatch(from uint64, n int) []model.Tuple {
	ts := make([]model.Tuple, n)
	for i := range ts {
		key := model.Key(1<<10 + i)
		if i%2 == 1 {
			key += 1 << 63
		}
		seq := from + uint64(i)
		ts[i] = model.Tuple{Key: key, Time: model.Timestamp(seq), Payload: binary.BigEndian.AppendUint64(nil, seq)}
	}
	return ts
}

// storedSeqs returns the seqs of everything a full-region query returns,
// ascending (duplicates kept, so exactly-once is part of the comparison).
func storedSeqs(t *testing.T, c *Cluster) []uint64 {
	t.Helper()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(res.Tuples))
	for i := range res.Tuples {
		seqs[i] = binary.BigEndian.Uint64(res.Tuples[i].Payload)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// TestAckOnFsyncAppendsEveryGroupBeforeWaiting: under ack-on-fsync a batch
// spanning two servers has BOTH groups in their segments before it parks on
// the first durability wait, so the two fsync cohorts overlap instead of
// queueing. With partition 0's fsyncs held, the batch cannot be acked — and
// partition 1's head must advance all the same (appending group by group,
// waiting in between, would leave it untouched until partition 0 synced),
// and partition 1's own cohort must complete meanwhile.
func TestAckOnFsyncAppendsEveryGroupBeforeWaiting(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.Durability = "ack-on-fsync"
	g0 := partitionFsyncs(cfg.DataDir, 0)
	cfg.Files = gatedFiles(g0)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	p0, p1 := c.WAL().Partition(0), c.WAL().Partition(1)

	release := g0.shut()
	defer release()
	done := make(chan error, 1)
	go func() {
		_, err := c.InsertBatch(interleavedBatch(0, 256))
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for p1.SyncedNext() < 128 {
		select {
		case err := <-done:
			t.Fatalf("batch acked (%v) while partition 0 could not fsync", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition 1: head %d, synced %d while partition 0's wait is pending; want its 128-tuple group appended and synced",
				p1.Next(), p1.SyncedNext())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if p0.Next() != 128 || p0.SyncedNext() != 0 {
		t.Fatalf("partition 0: head %d, synced %d; want its group appended and not yet durable", p0.Next(), p0.SyncedNext())
	}
	select {
	case err := <-done:
		t.Fatalf("batch acked (%v) before partition 0's group was durable", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("batch after the fsyncs resumed: %v", err)
	}
	if p0.SyncedNext() != 128 {
		t.Fatalf("acked with partition 0 synced to %d of 128", p0.SyncedNext())
	}
}

// TestHardCrashAfterPartlyRejectedBatch: a batch one server rejected is
// acked for the other server's positions only, and after a host crash
// (every unsynced WAL byte lost) and a reopen exactly that acked set is
// there — no acked tuple lost, no rejected tuple resurrected — until the
// rejected positions are resubmitted, which makes the batch whole once.
func TestHardCrashAfterPartlyRejectedBatch(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir, cfg.Files = t.TempDir(), &durable.Files{}
	cfg.Durability = "ack-on-fsync"
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, err := c.InsertBatch(interleavedBatch(0, 100)); err != nil {
		t.Fatal(err)
	}
	batch := interleavedBatch(100, 60)
	c.WAL().Partition(1).FailNextAppends(1)
	rejected, err := c.InsertBatch(batch)
	want := make([]uint64, 0, 130) // the seqs acked so far
	for seq := uint64(0); seq < 100; seq++ {
		want = append(want, seq)
	}
	var odd []int
	for i := range batch {
		if i%2 == 1 {
			odd = append(odd, i)
		} else {
			want = append(want, 100+uint64(i))
		}
	}
	if !errors.Is(err, wal.ErrInjectedAppend) || !reflect.DeepEqual(rejected, odd) {
		t.Fatalf("InsertBatch = %v, %v; want server 1's positions (the odd ones) and the injected fault", rejected, err)
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	c2.Start()
	c2.Drain()
	if got := storedSeqs(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the crash the store holds %d tuples, want exactly the %d acked ones\n got %v", len(got), len(want), got)
	}
	retry := make([]model.Tuple, 0, len(rejected))
	for _, i := range rejected {
		retry = append(retry, batch[i])
	}
	if rejected, err := c2.InsertBatch(retry); err != nil {
		t.Fatalf("resubmit = %v, %v", rejected, err)
	}
	c2.Drain()
	verifyExactlyOnce(t, c2, 160)
}

// TestCrashBetweenAppendAndWaitIsNotAcked: the sink appends every group
// before it waits on any, so a partition's line can break after its group
// went in and before the sink comes round to waiting on it. Such a group
// was never made durable: the batch must reject exactly its positions, and
// after the host crash and a reopen exactly the other server's tuples — the
// acked ones — are there.
func TestCrashBetweenAppendAndWaitIsNotAcked(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.Durability = "ack-on-fsync"
	g0, g1 := partitionFsyncs(cfg.DataDir, 0), partitionFsyncs(cfg.DataDir, 1)
	cfg.Files = gatedFiles(g0, g1)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	p0, p1 := c.WAL().Partition(0), c.WAL().Partition(1)

	// With both partitions' fsyncs held the sink parks on server 0's wait
	// (its group comes first) and cannot have begun server 1's.
	release0, release1 := g0.shut(), g1.shut()
	defer release0()
	defer release1()
	batch := interleavedBatch(0, 60)
	type ack struct {
		rejected []int
		err      error
	}
	done := make(chan ack, 1)
	go func() {
		rejected, err := c.InsertBatch(batch)
		done <- ack{rejected, err}
	}()
	for p0.Next() < 30 || p1.Next() < 30 {
		time.Sleep(100 * time.Microsecond)
	}
	// Server 1's fsync fails, which breaks its line — all before server 0
	// syncs.
	g1.failing.Store(true)
	release1()
	for p1.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case a := <-done:
		t.Fatalf("batch returned (%v, %v) while server 0 could not fsync", a.rejected, a.err)
	default:
	}
	release0()
	a := <-done
	var odd []int
	var want []uint64
	for i := range batch {
		if i%2 == 1 {
			odd = append(odd, i)
		} else {
			want = append(want, uint64(i))
		}
	}
	if a.err == nil || !reflect.DeepEqual(a.rejected, odd) {
		t.Fatalf("InsertBatch = %v, %v; want server 1's positions (the odd ones) rejected: its line broke before anyone waited on it", a.rejected, a.err)
	}
	g1.failing.Store(false) // the reopened host's disk works
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	c2.Start()
	c2.Drain()
	if got := storedSeqs(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the crash the store holds %v, want exactly the acked seqs %v", got, want)
	}
}
