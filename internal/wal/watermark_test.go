package wal

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitAll fails the test unless every goroutine behind wg returns in time.
func waitAll(t *testing.T, wg *sync.WaitGroup, w *Watermark, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: %d waiters still parked at %d", what, w.waiting.Load(), w.Load())
	}
}

// TestWatermarkNoMissedWakeup: M waiters on staggered targets against N
// goroutines advancing the value. A wake-up lost between a waiter's check
// and its park would leave that waiter parked for ever once the value stops
// moving, so every waiter returning is the property.
func TestWatermarkNoMissedWakeup(t *testing.T) {
	const waiters, setters, perSetter = 64, 4, 500
	const total = setters * perSetter
	for round := 0; round < 20; round++ {
		var w Watermark
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(target int64) {
				defer wg.Done()
				if err := w.Wait(target, nil); err != nil {
					t.Errorf("wait for %d: %v", target, err)
				}
				if got := w.Load(); got < target {
					t.Errorf("wait for %d returned at %d", target, got)
				}
			}(int64(1 + i*total/waiters))
		}
		for s := 0; s < setters; s++ {
			go func() {
				for i := 0; i < perSetter; i++ {
					w.Add(1)
				}
			}()
		}
		waitAll(t, &wg, &w, "Add from several goroutines")
		if w.waiting.Load() != 0 {
			t.Fatalf("%d waiters still registered", w.waiting.Load())
		}
	}
	// The same with one owner calling Set, the shape of an offset.
	var w Watermark
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(target int64) {
			defer wg.Done()
			if err := w.Wait(target, nil); err != nil {
				t.Errorf("wait for %d: %v", target, err)
			}
		}(int64(1 + i*total/waiters))
	}
	for v := int64(1); v <= total; v++ {
		w.Set(v)
	}
	waitAll(t, &wg, &w, "Set from the owner")
}

// TestWatermarkFail: Fail wakes every parked waiter with the error, later
// Waits return it at once, the first error stays — and a target the value
// had already reached is still nil.
func TestWatermarkFail(t *testing.T) {
	var w Watermark
	w.Set(5)
	boom := errors.New("boom")
	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(target int64) { errs <- w.Wait(target, nil) }(int64(6 + i))
	}
	waitBlocked(t, &w, waiters)
	w.Fail(boom)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err != boom {
				t.Fatalf("woken waiter got %v, want the owner's error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Fail left a waiter parked")
		}
	}
	w.Fail(errors.New("second"))
	if err := w.Wait(6, nil); err != boom {
		t.Fatalf("Wait after Fail = %v, want the first error at once", err)
	}
	if err := w.Wait(5, nil); err != nil {
		t.Fatalf("Wait for a reached target after Fail = %v, want nil", err)
	}
	// A failed watermark can still be advanced by a straggler; what it then
	// covers is covered.
	w.Set(6)
	if err := w.Wait(6, nil); err != nil {
		t.Fatalf("Wait for a target reached after Fail = %v, want nil", err)
	}
}

// TestWatermarkCancel: cancel returns promptly, deregisters the waiter and
// leaves no goroutine behind (Wait starts none).
func TestWatermarkCancel(t *testing.T) {
	var w Watermark
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		cancel := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- w.Wait(1, cancel) }()
		waitBlocked(t, &w, 1)
		close(cancel)
		select {
		case err := <-done:
			if err != ErrCanceled {
				t.Fatalf("cancelled Wait = %v, want ErrCanceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancel did not release the waiter")
		}
	}
	if n := w.waiting.Load(); n != 0 {
		t.Fatalf("%d waiters registered after every one was cancelled", n)
	}
	// A deadline is a cancel channel too.
	if err := w.Wait(1, Deadline(time.Millisecond)); err != ErrCanceled {
		t.Fatalf("Wait under a deadline = %v, want ErrCanceled", err)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
	// The next Set finds nobody and must not trip over the abandoned wake
	// channel; the next waiter still works.
	w.Set(1)
	if err := w.Wait(1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWatermarkLoweredValueKeepsWaiting: a crash replacement restarts at
// the committed offset, below where its predecessor was. The Set wakes the
// waiter, which finds its target still ahead and parks again.
func TestWatermarkLoweredValueKeepsWaiting(t *testing.T) {
	var w Watermark
	w.Set(10)
	done := make(chan error, 1)
	go func() { done <- w.Wait(12, nil) }()
	waitBlocked(t, &w, 1)
	w.Set(5)
	w.Set(11)
	select {
	case err := <-done:
		t.Fatalf("waiter for 12 returned (%v) at %d", err, w.Load())
	case <-time.After(20 * time.Millisecond):
	}
	waitBlocked(t, &w, 1)
	w.Set(12)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter missed the Set that reached its target")
	}
}

// TestWatermarkSetWithoutWaiterIsFree is the hot-path guard: the append
// path, the consumer and the flusher all Set or Add with nobody waiting
// almost always.
func TestWatermarkSetWithoutWaiterIsFree(t *testing.T) {
	var w Watermark
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { v++; w.Set(v); w.Add(1) }); n != 0 {
		t.Fatalf("Set/Add with no waiter allocates %v objects, want 0", n)
	}
	// A cancelled waiter leaves nothing that makes later Sets pay.
	w.Wait(v+1<<40, Deadline(time.Millisecond))
	if n := testing.AllocsPerRun(1000, func() { v++; w.Set(v) }); n != 0 {
		t.Fatalf("Set after a cancelled wait allocates %v objects, want 0", n)
	}
}

// TestReadBlockingCancel: the waited read's third way out. A parked reader
// whose cancel fires returns an empty read and no error, and the partition
// is none the worse for it.
func TestReadBlockingCancel(t *testing.T) {
	p := NewPartition()
	p.Append([]byte("a"))
	cancel := make(chan struct{})
	type out struct {
		recs []Record
		err  error
	}
	done := make(chan out, 1)
	go func() {
		recs, err := p.ReadBlocking(1, make([]Record, 10), cancel)
		done <- out{recs, err}
	}()
	waitBlocked(t, &p.head, 1)
	close(cancel)
	select {
	case o := <-done:
		if o.err != nil || len(o.recs) != 0 {
			t.Fatalf("cancelled read = %v, %v; want nothing, nil", o.recs, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the reader")
	}
	// With records to deliver, a fired cancel does not hide them.
	if recs, err := p.ReadBlocking(0, make([]Record, 10), cancel); err != nil || len(recs) != 1 {
		t.Fatalf("read below the head with a fired cancel = %v, %v", recs, err)
	}
	p.Append([]byte("b"))
	if recs, err := p.ReadBlocking(1, make([]Record, 10), nil); err != nil || len(recs) != 1 || string(recs[0].Data) != "b" {
		t.Fatalf("read after a cancelled one = %v, %v", recs, err)
	}
}
