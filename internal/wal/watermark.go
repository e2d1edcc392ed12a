package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCanceled is returned by Watermark.Wait when its cancel fired first.
var ErrCanceled = errors.New("wal: wait canceled")

// Watermark is an int64 a goroutine can block on — the one way anything in
// Waterwheel waits for progress (DESIGN.md, "Waiting"): a partition's head,
// a server's applied offset, a flusher's event
// count. Its owner moves it with Set or Add and ends it with Fail; anyone
// may Wait for a target. The zero value is a watermark at 0.
//
// A Set that finds nobody waiting is an atomic store and an atomic load: no
// lock, no allocation, no channel. Store-then-load on the owner's side
// against add-then-load on the waiter's (Go's atomics are sequentially
// consistent) rules out the missed wake-up: either the owner sees the
// waiter registered and wakes it, or the waiter's re-check sees the value.
type Watermark struct {
	v       atomic.Int64
	waiting atomic.Int32
	mu      sync.Mutex
	wake    chan struct{} // closed and dropped by wakeAll; every waiter re-checks
	err     error
}

// Load returns the current value.
func (w *Watermark) Load() int64 { return w.v.Load() }

// Set stores v. The value may go down (a crash replacement restarts at the
// committed offset): waiters above it keep waiting.
func (w *Watermark) Set(v int64) { w.v.Store(v); w.wakeAll(nil) }

// Add moves the value by delta: for event counts, which are advanced from
// more than one goroutine.
func (w *Watermark) Add(delta int64) { w.v.Add(delta); w.wakeAll(nil) }

// Fail ends the watermark: every Wait for a target it has not reached
// returns err, now and from here on. The first error given stays.
func (w *Watermark) Fail(err error) { w.wakeAll(err) }

// Err returns what the watermark was failed with, nil while it is live.
func (w *Watermark) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Watermark) wakeAll(err error) {
	if err == nil && w.waiting.Load() == 0 {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	if w.wake != nil {
		close(w.wake)
		w.wake = nil
	}
	w.mu.Unlock()
}

// Wait blocks until the value is at least target (nil), the watermark has
// failed below it (the owner's error), or cancel fires (ErrCanceled; a nil
// cancel never does). A target already reached is nil even after Fail.
func (w *Watermark) Wait(target int64, cancel <-chan struct{}) error {
	for w.v.Load() < target {
		w.mu.Lock()
		if err := w.err; err != nil {
			w.mu.Unlock()
			return err
		}
		w.waiting.Add(1)
		if w.wake == nil {
			w.wake = make(chan struct{})
		}
		wake := w.wake
		w.mu.Unlock()
		if w.v.Load() < target { // the re-check, now that the owner can see us
			select {
			case <-wake:
			case <-cancel:
				w.waiting.Add(-1)
				return ErrCanceled
			}
		}
		w.waiting.Add(-1)
	}
	return nil
}

// Deadline returns a cancel channel that fires after d.
func Deadline(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}
