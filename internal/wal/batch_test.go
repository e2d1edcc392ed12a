package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/telemetry"
)

func TestAppendBatchOffsetsAndRead(t *testing.T) {
	p := NewPartition()
	p.Append([]byte("pre"))
	datas := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	off, err := p.AppendBatch(datas)
	if err != nil || off != 1 {
		t.Fatalf("batch offset %d, err %v", off, err)
	}
	if p.Next() != 4 {
		t.Fatalf("Next = %d, want 4", p.Next())
	}
	recs, err := p.Read(0, 10)
	if err != nil || len(recs) != 4 {
		t.Fatalf("read = %d recs, %v", len(recs), err)
	}
	want := []string{"pre", "a", "bb", "ccc"}
	for i, w := range want {
		if recs[i].Offset != int64(i) || string(recs[i].Data) != w {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, recs[i].Offset, recs[i].Data, i, w)
		}
	}
	// Bytes accounting matches the per-record equivalent.
	q := NewPartition()
	q.Append([]byte("pre"))
	for _, d := range datas {
		q.Append(d)
	}
	if p.Bytes() != q.Bytes() {
		t.Errorf("batch bytes %d != serial bytes %d", p.Bytes(), q.Bytes())
	}
	// Empty and single-record batches degenerate cleanly.
	if off, err := p.AppendBatch(nil); err != nil || off != p.Next() {
		t.Errorf("empty batch: off=%d err=%v", off, err)
	}
	if off, err := p.AppendBatch([][]byte{[]byte("solo")}); err != nil || off != 4 {
		t.Errorf("single batch: off=%d err=%v", off, err)
	}
}

func TestAppendBatchCopiesData(t *testing.T) {
	p := NewPartition()
	buf := []byte("mutate-me")
	p.AppendBatch([][]byte{buf, []byte("x")})
	buf[0] = 'X'
	recs, _ := p.Read(0, 1)
	if string(recs[0].Data) != "mutate-me" {
		t.Error("batch append did not copy the record")
	}
}

func TestAppendBatchPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	datas := make([][]byte, 20)
	for i := range datas {
		datas[i] = []byte(fmt.Sprintf("r%d", i))
	}
	if off, err := p.AppendBatch(datas); err != nil || off != 0 {
		t.Fatalf("batch offset %d, err %v", off, err)
	}
	p.Sync()
	p.CloseFile()

	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != 20 {
		t.Fatalf("reopened next=%d, want 20", p2.Next())
	}
	recs, _ := p2.Read(0, 100)
	for i, r := range recs {
		if string(r.Data) != fmt.Sprintf("r%d", i) {
			t.Fatalf("record %d = %q", i, r.Data)
		}
	}
}

func TestAppendBatchAllOrNothingOnDiskFailure(t *testing.T) {
	// A mid-batch write failure must accept NONE of the batch: the ack
	// prefix seen by the producer must never cover a record the segment
	// did not take. Inject the failure by swapping the handle for a
	// read-only one.
	path := filepath.Join(t.TempDir(), "p.wal")
	p, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.file.Close()
	ro, err := os.Open(lastSegment(t, path)) // O_RDONLY: writes fail with EBADF
	if err != nil {
		p.mu.Unlock()
		t.Fatal(err)
	}
	p.file = ro
	p.mu.Unlock()

	if _, err := p.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err == nil {
		t.Fatal("batch append with failing file reported success")
	}
	if p.Err() == nil {
		t.Fatal("disk failure not sticky")
	}
	if p.Len() != 1 {
		t.Fatalf("failed batch retained in memory: len=%d", p.Len())
	}
	if p.Next() != 1 {
		t.Fatalf("failed batch consumed offsets: next=%d", p.Next())
	}
}

func TestAppendBatchSingleFsyncCohort(t *testing.T) {
	// Under ack-on-fsync, one batch must cost one fsync cohort, not one
	// fsync per record — the durability amortization the batch path is for.
	path := filepath.Join(t.TempDir(), "p.wal")
	fsyncs := &telemetry.Counter{}
	files := &durable.Files{}
	p, err := OpenPartition(path, Config{
		Durability: DurabilityAckOnFsync,
		Metrics:    Metrics{Fsyncs: fsyncs},
		Files:      files,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 8, 64
	for b := 0; b < batches; b++ {
		datas := make([][]byte, perBatch)
		for i := range datas {
			datas[i] = []byte(fmt.Sprintf("b%d-%d", b, i))
		}
		if _, err := p.AppendBatch(datas); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(batches * perBatch)
	if got := p.SyncedNext(); got != total {
		t.Fatalf("watermark %d after %d acked records", got, total)
	}
	// A serial driver sees at most one cohort per batch (plus slack for a
	// committer pass that catches a batch across two fsyncs).
	if n := fsyncs.Value(); n > batches+1 {
		t.Fatalf("%d fsyncs for %d batches: no cohort amortization", n, batches)
	}
	// Every acked record survives a simulated host crash.
	crash(t, files, p, 0)
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != total {
		t.Fatalf("crash lost acked records: reopened next=%d, want %d", p2.Next(), total)
	}
}

func TestFailNextAppendsInjectsThenRecovers(t *testing.T) {
	// The chaos hook: injected faults reject the append without poisoning
	// the partition, unlike real disk errors.
	p := NewPartition()
	p.Append([]byte("before"))
	p.FailNextAppends(1)
	if _, err := p.Append([]byte("dropped")); !errors.Is(err, ErrInjectedAppend) {
		t.Fatalf("err = %v, want ErrInjectedAppend", err)
	}
	if p.Err() != nil {
		t.Fatalf("injected fault became sticky: %v", p.Err())
	}
	if off, err := p.Append([]byte("after")); err != nil || off != 1 {
		t.Fatalf("append after injected fault: off=%d err=%v", off, err)
	}
	// Batch appends honor the same hook, rejecting the whole batch.
	p.FailNextAppends(1)
	if _, err := p.AppendBatch([][]byte{[]byte("x"), []byte("y")}); !errors.Is(err, ErrInjectedAppend) {
		t.Fatalf("batch err = %v, want ErrInjectedAppend", err)
	}
	if p.Next() != 2 {
		t.Fatalf("rejected batch consumed offsets: next=%d", p.Next())
	}
	if _, err := p.AppendBatch([][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatalf("batch after injected fault: %v", err)
	}
}

// TestStartAppendThenAwaitDurable: the two halves of AppendBatch. The first
// makes the batch readable at once and returns the offset past it without
// waiting; the second returns only once an fsync covers that offset — with
// the fsyncs held the watermark stays put and AwaitDurable stays parked —
// and under the other policies, or without a file, there is nothing to wait
// for.
func TestStartAppendThenAwaitDurable(t *testing.T) {
	waiters := &telemetry.Gauge{}
	var fsyncs fsyncGate
	p, err := OpenPartition(filepath.Join(t.TempDir(), "p.wal"), Config{
		Durability: DurabilityAckOnFsync,
		Metrics:    Metrics{Waiters: waiters},
		Files:      fsyncs.files(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseFile()
	release := fsyncs.shut()
	defer release()
	end, err := p.StartAppend([][]byte{[]byte("a"), []byte("bb")})
	if err != nil || end != 2 {
		t.Fatalf("StartAppend = %d, %v; want the offset past the batch, 2", end, err)
	}
	if recs, err := p.Read(0, 10); err != nil || len(recs) != 2 || string(recs[1].Data) != "bb" {
		t.Fatalf("the batch is not readable before it is durable: %v, %v", recs, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.AwaitDurable(end) }()
	// Parked for as long as the fsyncs are held: the waiter gauge shows it
	// arrive, and the watermark cannot move.
	for waiters.Value() == 0 {
		select {
		case err := <-done:
			t.Fatalf("AwaitDurable returned %v with every fsync held", err)
		default:
		}
		runtime.Gosched()
	}
	if got := p.SyncedNext(); got != 0 {
		t.Fatalf("watermark %d with every fsync held", got)
	}
	release()
	if err := <-done; err != nil || p.SyncedNext() != 2 {
		t.Fatalf("AwaitDurable = %v with the watermark at %d, want nil at 2", err, p.SyncedNext())
	}
	if err := p.AwaitDurable(end); err != nil {
		t.Fatalf("AwaitDurable below the watermark: %v", err)
	}

	// A rejected first half leaves nothing to wait for and nothing behind.
	p.FailNextAppends(1)
	if _, err := p.StartAppend([][]byte{[]byte("x")}); !errors.Is(err, ErrInjectedAppend) || p.Next() != 2 {
		t.Fatalf("faulted StartAppend = %v, head %d", err, p.Next())
	}

	// Memory-only and ack-on-write partitions: the append is the ack.
	m := NewPartition()
	if end, err := m.StartAppend([][]byte{[]byte("a")}); err != nil || end != 1 || m.AwaitDurable(end) != nil {
		t.Fatalf("memory-only: StartAppend = %d, %v", end, err)
	}
	var wsyncs fsyncGate
	w, err := OpenPartition(filepath.Join(t.TempDir(), "w.wal"), Config{Files: wsyncs.files()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.CloseFile()
	hold := wsyncs.shut()
	defer hold()
	if end, err := w.StartAppend([][]byte{[]byte("a")}); err != nil || w.AwaitDurable(end) != nil {
		t.Fatalf("ack-on-write: %v", err)
	}
}

// TestAwaitDurableAfterCrashOrClose: the lock is released between the two
// halves of AppendBatch, so the host can crash under the segment, or the
// segment be closed, in the gap. A partition that lost its file that way is
// not a memory-only one: AwaitDurable must refuse every record the watermark
// never covered — those bytes were cut off, or never fsynced — and still ack
// what was durable.
func TestAwaitDurableAfterCrashOrClose(t *testing.T) {
	open := func(t *testing.T, files *durable.Files) (*Partition, string) {
		path := filepath.Join(t.TempDir(), "p.wal")
		p, err := OpenPartition(path, Config{Durability: DurabilityAckOnFsync, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return p, path
	}
	first := [][]byte{[]byte("d")}

	// crashHeld crashes the host under p while its committer is parked on
	// held fsyncs: the hold lifts only once the crash has begun (its teardown
	// is running), so the cohort it parked can no longer sync.
	crashHeld := func(files *durable.Files, p *Partition, release func()) <-chan error {
		stopping := make(chan struct{})
		crashed := make(chan error, 1)
		go func() {
			crashed <- files.Crash(0, func() {
				close(stopping)
				p.CloseFile()
			})
		}()
		<-stopping
		release()
		return crashed
	}

	t.Run("crash", func(t *testing.T) {
		var fsyncs fsyncGate
		files := fsyncs.files()
		p, path := open(t, files)
		if _, err := p.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		release := fsyncs.shut()
		end, err := p.StartAppend([][]byte{[]byte("a"), []byte("bb")})
		if err != nil || end != 3 {
			t.Fatalf("StartAppend = %d, %v", end, err)
		}
		if err := <-crashHeld(files, p, release); err != nil {
			t.Fatal(err)
		}
		if got := p.SyncedNext(); got != 1 {
			t.Fatalf("watermark %d after the crash, want 1", got)
		}
		if err := p.AwaitDurable(end); err == nil {
			t.Fatal("AwaitDurable acked records the crash truncated")
		}
		if err := p.AwaitDurable(1); err != nil {
			t.Fatalf("AwaitDurable below the watermark after the crash: %v", err)
		}
		re, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.CloseFile()
		if re.Next() != 1 {
			t.Fatalf("reopened head %d, want exactly the durable record", re.Next())
		}
	})

	t.Run("close", func(t *testing.T) {
		p, _ := open(t, nil)
		if _, err := p.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		// An append that lands after the committer's final cohort and before
		// CloseFile takes the file away was never fsynced.
		p.stopCommitter()
		end, err := p.StartAppend([][]byte{[]byte("a")})
		if err != nil || end != 2 {
			t.Fatalf("StartAppend = %d, %v", end, err)
		}
		if err := p.CloseFile(); err != nil {
			t.Fatal(err)
		}
		if got := p.SyncedNext(); got != 1 {
			t.Fatalf("watermark %d after CloseFile, want 1", got)
		}
		if err := p.AwaitDurable(end); err == nil {
			t.Fatal("AwaitDurable acked a record CloseFile never fsynced")
		}
		if err := p.AwaitDurable(1); err != nil {
			t.Fatalf("AwaitDurable below the watermark after CloseFile: %v", err)
		}
	})

	// Parked under held fsyncs when the line breaks — by a crash, or by the
	// cohort's own fsync failing — the waiter has nothing else to wake it:
	// once the hold lifts, the break must hand it the sticky error at once.
	for _, brk := range []string{"crash", "fsync error"} {
		t.Run("parked/"+brk, func(t *testing.T) {
			var fsyncs fsyncGate
			files := fsyncs.files()
			p, _ := open(t, files)
			defer p.CloseFile()
			// Released on every way out, before CloseFile: a failed wait must
			// fail the test, not leave CloseFile stuck behind it.
			release := fsyncs.shut()
			defer release()
			end, err := p.StartAppend(first)
			if err != nil {
				t.Fatal(err)
			}
			acked := make(chan error, 1)
			go func() { acked <- p.AwaitDurable(end) }()
			for p.synced.waiting.Load() == 0 {
				runtime.Gosched()
			}
			var crashed <-chan error
			if brk == "crash" {
				crashed = crashHeld(files, p, release)
			} else {
				fsyncs.failing.Store(true)
				release()
			}
			select {
			case err := <-acked:
				if err == nil {
					t.Fatal("a parked waiter was acked across a broken line")
				}
				if !errors.Is(err, p.Err()) {
					t.Fatalf("parked waiter got %v, want the sticky error %v", err, p.Err())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a waiter parked when the line broke was never released")
			}
			if crashed != nil {
				if err := <-crashed; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
