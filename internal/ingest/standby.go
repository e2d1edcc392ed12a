// Hot standby (elastic scale-out, DESIGN.md §14). A Standby tails the
// owner's WAL partition — in-process or over the WAL-shipping transport —
// and replays the records into a passive shadow server, so a promotion
// inherits a warm memtable instead of replaying the whole uncommitted
// tail from scratch.
//
// The shadow only ever mirrors the owner's UNFLUSHED suffix: the replay
// base is the owner's committed WAL offset, and whenever the owner
// commits past that base (a flush registered its chunks and advanced the
// offset), the shadow's tuples are now also in registered chunks, so the
// standby discards the shadow and re-tails from the new committed offset.
// The discarded work is bounded by one memtable. This "reset on commit"
// rule is what makes promotion duplicate-free: after the ownership
// transfer fences the owner, the committed offset is final, one last
// reset check aligns the shadow's base with it, and every record in the
// shadow is covered by no chunk while every record before the base is
// covered by exactly one.
package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// StandbyConfig configures a hot standby.
type StandbyConfig struct {
	// Slot is the indexing-server slot being shadowed.
	Slot int
	// NewServer builds a fresh passive shadow server (called once at
	// start and again after every reset).
	NewServer func() *Server
	// ReplayOffset, when set, tracks the standby's replay position (the
	// waterwheel_standby_replay_offset gauge).
	ReplayOffset *telemetry.Gauge
}

// Standby tails a WAL partition into a passive shadow server.
type Standby struct {
	cfg  StandbyConfig
	ms   *meta.Server
	tail wal.Tail

	// pos is the next offset to replay; a reset may lower it. The tail loop
	// fails it on exit, with the replay error when that is what ended it.
	pos wal.Watermark

	mu       sync.Mutex
	srv      *Server
	base     int64 // owner's committed offset the shadow starts at
	promoted bool

	// The tail loop parks in tail.ReadBlocking with wake as its cancel: a
	// token from Wake or Halt ends the read and the loop looks again.
	wake   chan struct{}
	halted atomic.Bool
	done   chan struct{}
}

// tailReadMax bounds the records of one log read (consumer, standby tail).
const tailReadMax = 2048

// NewStandby builds a standby replaying the slot's partition through tail.
func NewStandby(cfg StandbyConfig, ms *meta.Server, tail wal.Tail) *Standby {
	sb := &Standby{
		cfg:  cfg,
		ms:   ms,
		tail: tail,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	sb.base = ms.Offset(cfg.Slot)
	sb.pos.Set(sb.base)
	sb.srv = cfg.NewServer()
	return sb
}

// Start launches the tail loop.
func (sb *Standby) Start() { go sb.run() }

func (sb *Standby) run() {
	err := ErrStopped
	defer func() { sb.pos.Fail(err); close(sb.done) }()
	for !sb.halted.Load() {
		committed := sb.ms.Offset(sb.cfg.Slot)
		sb.mu.Lock()
		if committed > sb.base {
			sb.resetLocked(committed)
			sb.mu.Unlock()
			continue
		}
		srv := sb.srv
		sb.mu.Unlock()
		recs, rerr := sb.tail.ReadBlocking(sb.pos.Load(), tailReadMax, sb.wake)
		if rerr != nil {
			// ErrCompacted means the owner truncated below our position —
			// only possible when its committed offset moved past our base,
			// which the next iteration's reset handles. Transient shipping
			// errors retry the same way: back off after an ERROR (only "no
			// data yet" parks instead).
			select {
			case <-sb.wake:
			case <-time.After(time.Millisecond):
			}
			continue
		}
		if len(recs) == 0 {
			continue // woken (Wake) or the shipped long-poll's bound passed
		}
		batch, derr := decodeRecords(recs)
		if derr != nil {
			err = fmt.Errorf("ingest: standby: %w", derr)
			return
		}
		next := recs[len(recs)-1].Offset + 1
		srv.insertBatchAt(batch, next)
		sb.pos.Set(next)
		sb.cfg.ReplayOffset.Set(float64(next))
	}
}

// Wake makes a parked tail loop look at the owner's committed offset again:
// the cluster calls it from the owner's flush commit (ReleaseWAL).
func (sb *Standby) Wake() {
	select {
	case sb.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// resetLocked discards the shadow and re-tails from the owner's new
// committed offset. Requires mu. The old shadow server is aborted so its
// flusher goroutine exits (it never registered anything: passive servers
// do not flush).
func (sb *Standby) resetLocked(committed int64) {
	old := sb.srv
	sb.srv = sb.cfg.NewServer()
	sb.base = committed
	sb.pos.Set(committed)
	old.Abort()
}

// Halt stops the tail loop and waits for it to exit. Idempotent.
func (sb *Standby) Halt() {
	sb.halted.Store(true)
	sb.Wake()
	<-sb.done
}

// Promote finalizes the takeover after the caller's meta.TransferOwnership
// fenced the old owner (so the slot's committed offset is final) and after
// Halt stopped the tail loop. One last reset aligns the shadow with the
// final committed offset — if the owner flushed past our replay base, the
// shadow holds tuples that are now in registered chunks and must be
// dropped; the fresh shadow starts empty and the WAL consumption loop
// replays the tail from the committed offset after activation. Returns the
// activated server, live under the new epoch.
func (sb *Standby) Promote(epoch int64) *Server {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if committed := sb.ms.Offset(sb.cfg.Slot); committed > sb.base {
		sb.resetLocked(committed)
	}
	srv := sb.srv
	sb.promoted = true
	srv.Activate(epoch)
	return srv
}

// Close aborts the shadow without promoting (standby no longer needed).
func (sb *Standby) Close() {
	sb.Halt()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if !sb.promoted {
		sb.srv.Abort()
	}
}

// Consumed returns the next WAL offset the standby will replay.
func (sb *Standby) Consumed() int64 { return sb.pos.Load() }

// WaitReplayed blocks until Consumed() >= offset (nil); else the replay
// error (a corrupt record), ErrStopped if halted, wal.ErrCanceled.
func (sb *Standby) WaitReplayed(offset int64, cancel <-chan struct{}) error {
	return sb.pos.Wait(offset, cancel)
}

// SetKeys forwards a repartition to the current shadow server.
func (sb *Standby) SetKeys(kr model.KeyRange) {
	sb.mu.Lock()
	srv := sb.srv
	sb.mu.Unlock()
	srv.SetKeys(kr)
}
