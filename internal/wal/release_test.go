package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// readThrough reads [from, to) with small reads and fails unless every
// offset comes back exactly once, in order, carrying payload(off).
func readThrough(t *testing.T, tail *Partition, from, to int64, payload func(int64) []byte) {
	t.Helper()
	for next := from; next < to; {
		recs, err := tail.ReadBlocking(next, make([]Record, 37), nil)
		if err != nil {
			t.Fatalf("read at %d: %v", next, err)
		}
		if len(recs) == 0 {
			t.Fatalf("read at %d returned nothing below the head %d", next, to)
		}
		for _, r := range recs {
			if r.Offset != next {
				t.Fatalf("read returned offset %d, want %d", r.Offset, next)
			}
			if !bytes.Equal(r.Data, payload(r.Offset)) {
				t.Fatalf("offset %d carries %q, want %q", r.Offset, r.Data, payload(r.Offset))
			}
			next++
		}
	}
}

func numbered(off int64) []byte { return []byte(fmt.Sprintf("rec-%06d", off)) }

func appendNumbered(t *testing.T, p *Partition, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		off := p.Next()
		if got, err := p.Append(numbered(off)); err != nil || got != off {
			t.Fatalf("append %d: offset %d, err %v", off, got, err)
		}
	}
}

// TestWindowArrayStaysBounded: a window that is truncated as fast as it is
// filled reuses its backing array — the array's size follows the window,
// not the log — and an array a burst inflated is given back.
func TestWindowArrayStaysBounded(t *testing.T) {
	p := NewPartition()
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	const window = 4096
	peak := 0
	for i := 0; i < 4000; i++ { // ~1M records through a 4k window
		if _, err := p.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		p.Truncate(p.Next() - window)
		if c := cap(p.store); c > peak {
			peak = c
		}
	}
	if p.Len() != window {
		t.Fatalf("window holds %d records, want %d", p.Len(), window)
	}
	if peak > 4*window {
		t.Fatalf("backing array reached %d slots for a %d-record window", peak, window)
	}
	// A parked flusher: the window grows to the whole backlog...
	for i := 0; i < 2000; i++ {
		p.AppendBatch(batch)
	}
	burst := cap(p.store)
	if burst < 2000*len(batch) {
		t.Fatalf("burst of %d records fit %d slots", 2000*len(batch), burst)
	}
	// ...and once it is truncated, the next appends move to a small array.
	p.Truncate(p.Next() - window)
	for i := 0; i < 64; i++ {
		p.AppendBatch(batch)
		p.Truncate(p.Next() - window)
	}
	if c := cap(p.store); c > burst/8 {
		t.Fatalf("backing array still %d slots after the burst drained (was %d)", c, burst)
	}
	readThrough(t, p, p.Base(), p.Next(), func(off int64) []byte { return []byte{byte(off % 256)} })
}

// TestOpenLogDirResidentFloor: a reopen at a replay offset loads only the
// tail at or above it, and below it is ErrCompacted; the next truncation
// unlinks the segments wholly below it.
func TestOpenLogDirResidentFloor(t *testing.T) {
	dir := t.TempDir()
	l, err := openLogDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	appendNumbered(t, l.Partition(0), 500)
	appendNumbered(t, l.Partition(1), 20)
	l.Partition(0).Truncate(100)
	for i := 0; i < 2; i++ {
		l.Partition(i).CloseFile()
	}
	floors := []int64{450, 1 << 30}
	l2, err := OpenLogDirConfig(dir, 2, Config{}, func(i int) int64 { return floors[i] })
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := l2.Partition(0), l2.Partition(1)
	defer p0.CloseFile()
	defer p1.CloseFile()
	// A floor past the head clamps to it.
	if p0.Len() != 50 || p0.Base() != 450 || p0.Next() != 500 {
		t.Fatalf("partition 0: len=%d base=%d next=%d, want 50/450/500", p0.Len(), p0.Base(), p0.Next())
	}
	if p1.Len() != 0 || p1.Base() != 20 || p1.Next() != 20 {
		t.Fatalf("partition 1: len=%d base=%d next=%d, want 0/20/20", p1.Len(), p1.Base(), p1.Next())
	}
	if _, err := p0.Read(449, 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below the replay offset: %v, want ErrCompacted", err)
	}
	readThrough(t, p0, 450, 500, numbered)
	appendNumbered(t, p1, 5)
	readThrough(t, p1, 20, 25, numbered)
	// One segment holds all 500 records: the truncation at the head replaces
	// it with an empty one.
	p0.Truncate(500)
	if got := segBases(t, filepath.Join(dir, "p0.wal")); !slices.Equal(got, []int64{500}) {
		t.Fatalf("segments after the truncation: %v, want [500]", got)
	}
}

// TestReleaseConcurrentWithEverything runs every actor that touches one
// disk-backed partition at once — appenders (single records and batches),
// a consumer reading the head, a flusher releasing what the consumer applied
// (a truncation, floored at a second reader taking small blocks from far
// behind), and a second loop truncating at
// the same floor and unlinking the segments below it, on a log that rolls
// every few hundred records — and requires that both readers see every
// offset exactly once, in order, with the payload its appender framed. Run
// under -race.
func TestReleaseConcurrentWithEverything(t *testing.T) {
	dir := t.TempDir()
	l, err := openLogDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Partition(0)
	p.segBytes = 4096

	total := int64(20_000)
	if testing.Short() {
		total = 5_000
	}
	// Appenders cannot know a record's offset before the append returns,
	// so a payload is a (writer, sequence) pair and the readers check that
	// each writer's sequence is gapless — with the offset check, that is
	// exactly-once, in order.
	const writers = 4
	var appended atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seq := 0
			for appended.Load() < total {
				n := 1 + (seq+g)%5
				datas := make([][]byte, n)
				for i := range datas {
					datas[i] = []byte(fmt.Sprintf("%d:%d", g, seq))
					seq++
				}
				if _, err := p.AppendBatch(datas); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				appended.Add(int64(n))
			}
		}(g)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	// follow reads tail from offset 0 until the writers are done and the
	// head is reached, checking order, max records a read; publish reports
	// progress. A read parks until the writers are done (its cancel).
	follow := func(name string, max int, publish func(int64)) {
		var next int64
		seqs := make([]int, writers)
		for {
			recs, err := p.ReadBlocking(next, make([]Record, max), writersDone)
			if err != nil {
				t.Errorf("%s: read at %d: %v", name, next, err)
				return
			}
			for _, r := range recs {
				if r.Offset != next {
					t.Errorf("%s: got offset %d, want %d", name, r.Offset, next)
					return
				}
				var g, seq int
				if _, err := fmt.Sscanf(string(r.Data), "%d:%d", &g, &seq); err != nil || seq != seqs[g] {
					t.Errorf("%s: offset %d carries %q, want writer %d's record %d", name, r.Offset, r.Data, g, seqs[g])
					return
				}
				seqs[g]++
				next++
			}
			publish(next)
			if len(recs) == 0 {
				select {
				case <-writersDone:
					if next == p.Next() {
						return
					}
				default:
				}
				runtime.Gosched()
			}
		}
	}
	var consumed, laggard atomic.Int64
	floor := func() int64 { return min(consumed.Load(), laggard.Load()) }
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		follow("consumer", 256, func(n int64) {
			consumed.Store(n)
			// Cut-on-commit: everything applied goes at once, down to the
			// laggard behind it.
			p.Truncate(floor())
		})
	}()
	go func() {
		defer readers.Done()
		// Start far behind the consumer, so the floor is the laggard's.
		for consumed.Load() < total/4 {
			runtime.Gosched()
		}
		follow("laggard", 16, laggard.Store)
	}()

	// A second truncating actor at the same floor.
	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Truncate(floor())
			runtime.Gosched()
		}
	}()
	readers.Wait()
	close(stop)
	maint.Wait()
	if t.Failed() {
		return
	}
	p.Truncate(floor())

	head := p.Next()
	if head < total || consumed.Load() != head || laggard.Load() != head {
		t.Fatalf("head %d (want >= %d), consumer at %d, laggard at %d", head, total, consumed.Load(), laggard.Load())
	}
	if p.Len() != 0 || p.Base() != head {
		t.Fatalf("%d records resident, horizon %d, after everything was truncated", p.Len(), p.Base())
	}
	// The files survive a reopen, which reports the first surviving
	// segment's base: at or below the exact horizon, within one segment of
	// it.
	base := p.Base()
	count := func(tail *Partition) int64 {
		n := base
		for {
			recs, err := tail.Read(n, 512)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return n
			}
			for _, r := range recs {
				if r.Offset != n {
					t.Fatalf("got offset %d, want %d", r.Offset, n)
				}
				n++
			}
		}
	}
	if got := count(p); got != head {
		t.Fatalf("after the run: readable up to %d, head %d", got, head)
	}
	// ~17 bytes a record, 4096 to a segment: some 240 records in each.
	if first := segBases(t, filepath.Join(dir, "p0.wal"))[0]; first > base || base-first > 1000 {
		t.Fatalf("first segment file is based at %d under a horizon of %d", first, base)
	}
	p.CloseFile()
	p2, err := OpenPartition(filepath.Join(dir, "p0.wal"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if p2.Base() > base || p2.Next() != head {
		t.Fatalf("reopened: base=%d next=%d, want <=%d/%d", p2.Base(), p2.Next(), base, head)
	}
	base = p2.Base()
	if got := count(p2); got != head {
		t.Fatalf("reopened: readable up to %d, head %d", got, head)
	}
}
