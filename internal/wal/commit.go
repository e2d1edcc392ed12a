package wal

// Group commit (paper §V): acking a tuple promises it survives an
// indexing-server crash, which for a disk-backed partition means its WAL
// record must be on stable storage — not in the OS page cache — before the
// ack. Issuing fsync per append would cap ingest at the disk's sync rate,
// so a per-partition committer goroutine batches appends into cohorts: an
// appender parks on the partition's fsync watermark (Partition.synced, a
// Watermark like every other wait), the committer — parked on the head —
// captures the current head, issues ONE fsync and advances the watermark,
// which wakes everyone the fsync covered. All appends that arrive while an
// fsync is in flight ride the next cohort, so the batch size scales with
// concurrency and the fsync cost amortizes toward zero per tuple.
//
// The fsync watermark is also the ceiling for everything else
// that claims durability: flush-offset commits call SyncTo so a committed
// offset never exceeds what the log can actually replay after a host
// crash. A simulated crash (durable.Files.Crash) cuts the segments back to
// it.

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/telemetry"
)

// Durability selects when Append acknowledges a record relative to fsync.
type Durability int

const (
	// DurabilityAckOnWrite acks once the record is framed into the segment
	// file (OS page cache). Fastest, but a host crash can drop acked
	// records appended since the last Sync/Checkpoint.
	DurabilityAckOnWrite Durability = iota
	// DurabilityAckOnFsync acks only after a group-commit fsync covers the
	// record: an acked tuple survives a host crash.
	DurabilityAckOnFsync
	// DurabilityInterval runs a background fsync every Config.Interval,
	// bounding the loss window without per-append latency.
	DurabilityInterval
)

// ParseDurability maps the user-facing policy names to Durability values.
// The empty string means DurabilityAckOnWrite (today's behavior).
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "ack-on-write":
		return DurabilityAckOnWrite, nil
	case "ack-on-fsync":
		return DurabilityAckOnFsync, nil
	case "interval":
		return DurabilityInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown durability policy %q (want ack-on-write, ack-on-fsync or interval)", s)
}

func (d Durability) String() string {
	switch d {
	case DurabilityAckOnFsync:
		return "ack-on-fsync"
	case DurabilityInterval:
		return "interval"
	default:
		return "ack-on-write"
	}
}

// Metrics holds optional telemetry handles for the durability pipeline.
// All handles are nil-safe, so the zero value disables instrumentation.
type Metrics struct {
	// FsyncBatch records how many records each fsync cohort made durable.
	// It abuses the duration histogram: batch sizes are observed as whole
	// "seconds" so the exposition's second-valued quantiles read directly
	// as record counts.
	FsyncBatch *telemetry.Histogram
	// CommitNanos records group-commit fsync latency.
	CommitNanos *telemetry.Histogram
	// Waiters gauges appenders currently parked waiting for a cohort.
	Waiters *telemetry.Gauge
	// Fsyncs counts segment fsyncs issued by the pipeline.
	Fsyncs *telemetry.Counter
}

// Config tunes a disk-backed partition's durability pipeline.
type Config struct {
	Durability Durability
	// Interval is the background fsync cadence for DurabilityInterval
	// (default 50ms).
	Interval time.Duration
	Metrics  Metrics
	// Files performs every create, fsync and unlink of the segment files
	// (nil: the plain OS), so a test can watch their order against a
	// checkpoint's other files, fail one, or crash the host under the log.
	Files *durable.Files
}

const defaultFsyncInterval = 50 * time.Millisecond

// startCommitter launches the committer goroutine for policies that need
// one. Called once from OpenPartition with the partition still private.
func (p *Partition) startCommitter() {
	if p.dur != DurabilityAckOnFsync && p.dur != DurabilityInterval {
		return
	}
	if p.dur == DurabilityInterval && p.interval <= 0 {
		p.interval = defaultFsyncInterval
	}
	p.commStop = make(chan struct{})
	p.commDone = make(chan struct{})
	go p.committer()
}

// committer runs one cohort whenever one is due (nextCohort) and a final one
// when it is stopped, to cover appends that raced shutdown (under a
// simulated host crash its fsync fails, which breaks the line). A broken
// line ends it: the error is sticky and every waiter already has it.
func (p *Partition) committer() {
	defer close(p.commDone)
	var tick <-chan time.Time
	if p.dur == DurabilityInterval {
		t := time.NewTicker(p.interval)
		defer t.Stop()
		tick = t.C
	}
	for p.nextCohort(tick) {
		if p.syncCohort() != nil {
			return
		}
	}
	p.syncCohort()
}

// nextCohort waits until a cohort is due: under DurabilityInterval the next
// tick, under DurabilityAckOnFsync an append past the fsync watermark — the
// committer is one more waiter on the head. It returns false once the
// committer is stopped or, for a head waiter, the partition closed.
func (p *Partition) nextCohort(tick <-chan time.Time) bool {
	if tick != nil {
		select {
		case <-tick:
			return true
		case <-p.commStop:
			return false
		}
	}
	if p.head.Wait(p.synced.Load()+1, p.commStop) != nil {
		return false
	}
	p.accumulateCohort()
	return true
}

// accumulateCohort gives concurrently-running appenders a brief chance to
// join the cohort before its fsync is issued. Without it, the first append
// after an idle period buys an fsync for itself alone while the appenders a
// scheduler tick behind it pay for a second one — halving the amortization
// exactly at the cohort boundary. Yielding while the head still moves costs
// a few scheduler passes (far below fsync latency), is bounded, and
// converges after one pass when no one else is appending.
func (p *Partition) accumulateCohort() {
	prev := int64(-1)
	for i := 0; i < 4; i++ {
		n := p.head.Load()
		if n == prev {
			return
		}
		prev = n
		runtime.Gosched()
	}
}

// stopCommitter shuts the committer down (idempotent) after letting it run
// one final cohort. Its callers break the line next, which hands every
// waiter the final cohort did not cover the sticky error: its record is not
// durable, so it is not acked.
func (p *Partition) stopCommitter() {
	p.stopOnce.Do(func() {
		if p.commStop == nil {
			return
		}
		close(p.commStop)
		<-p.commDone
	})
}

// breakLocked makes err the partition's sticky failure, unless it has one
// already, and fails the fsync watermark with it: every ack still waiting for
// a cohort gets the error. It returns the sticky error. Requires mu.
func (p *Partition) breakLocked(err error) error {
	if p.fileErr == nil {
		p.fileErr = err
		p.synced.Fail(err)
	}
	return p.fileErr
}

// syncCohort makes everything appended so far durable and advances the
// watermark: one fsync of the active segment, plus — when the log rolled
// since the last cohort — one of each segment closed in between and one of
// the directory that names the new files. The files are synced by path,
// through descriptors of the cohort's own, so a roll may close the handle it
// wrote through at any time. p.mu is dropped for the fsyncs so appends keep
// flowing — that in-flight window is precisely where the next cohort
// accumulates.
func (p *Partition) syncCohort() error {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	if err := p.fileErr; err != nil {
		p.mu.Unlock()
		return err
	}
	if p.file == nil {
		p.mu.Unlock()
		return nil
	}
	head := p.headLocked()
	if head <= p.synced.Load() {
		p.mu.Unlock()
		return nil
	}
	unsynced := slices.Clone(p.unsyncedLocked())
	start := time.Now()
	p.mu.Unlock()

	var err error
	for _, s := range unsynced {
		if err = p.files.Sync(p.segPath(s.base)); err != nil {
			break
		}
	}
	if err == nil && len(unsynced) > 1 {
		err = p.files.Sync(p.path)
	}

	p.mu.Lock()
	if err != nil {
		err = p.breakLocked(fmt.Errorf("wal: fsync: %w", err))
	} else {
		p.met.Fsyncs.Inc()
		p.met.CommitNanos.Observe(time.Since(start))
		if synced := p.synced.Load(); head > synced {
			p.met.FsyncBatch.Observe(time.Duration(head-synced) * time.Second)
			p.synced.Set(head)
			p.syncedAt = unsynced[len(unsynced)-1]
		}
	}
	p.mu.Unlock()
	return err
}

// unsyncedLocked returns the segments the fsync watermark has not passed:
// the one it lies in and every one rolled since. Requires mu.
func (p *Partition) unsyncedLocked() []segment {
	i := len(p.segs) - 1
	for i > 0 && p.segs[i].base > p.syncedAt.base {
		i--
	}
	return p.segs[i:]
}

// SyncTo ensures every record below upTo is on stable storage before
// returning. This is the barrier flush-offset commits take: a committed
// offset must never run ahead of the watermark, or a host crash would
// leave the durable log shorter than the committed offset — replay would
// hand fresh appends already-committed offsets and the chunks registered
// above the watermark would alias replayed tuples as duplicates. No-op for
// in-memory partitions and when the watermark already covers upTo.
func (p *Partition) SyncTo(upTo int64) error {
	p.mu.Lock()
	if p.fileErr != nil {
		err := p.fileErr
		p.mu.Unlock()
		return err
	}
	if p.file == nil || p.synced.Load() >= upTo {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return p.syncCohort()
}

// SyncedNext returns the fsync watermark: the offset the next record to
// become durable will receive. For in-memory partitions it tracks the
// head (there is no page cache to lose).
func (p *Partition) SyncedNext() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil && p.fileErr == nil {
		return p.headLocked()
	}
	return p.synced.Load()
}

// UnsyncedBytes reports segment bytes appended but not yet covered by an
// fsync — the page-cache exposure a host crash would lose.
func (p *Partition) UnsyncedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		return 0
	}
	n := -p.syncedAt.bytes
	for _, s := range p.unsyncedLocked() {
		n += s.bytes
	}
	return n
}
