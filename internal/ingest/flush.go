// Asynchronous flush pipeline. Crossing the chunk threshold inside Insert
// only swaps the leaf layer out (FlushReset, a pointer exchange) and hands
// the immutable snapshot — tagged with the WAL offset captured at swap
// time — to a per-server background flusher that runs chunk.Build, the DFS
// write and the metadata registration off the hot path. The pending list
// is the queue, and its PendingFlushes count applies backpressure: at most
// Config.FlushQueueDepth units (default 2) wait behind the one in flight,
// and the swap of one more blocks until the flusher finishes one.
//
// Visibility: pending snapshots remain part of the live region and are
// scanned by ExecuteSubQuery until their chunk is registered, so a tuple
// is never unqueryable between swap and registration. Queries carry a
// chunk horizon (SubQuery.AsOfChunk) so a snapshot whose chunk registered
// after the query was planned is still served from memory — no window for
// duplicates or misses on either side of the registration instant.
//
// Failure: snapshots persist strictly in sequence. A failed DFS write
// parks the flusher ("stop the line"); the snapshot stays queryable and is
// retried on the next flush step or after a capped backoff. WAL offsets
// commit only for the contiguous persisted prefix, so SetOffset never
// advances past data that is not yet durable and a restart replays no
// gap. A write that cannot succeed on retry (the name is taken, the metadata
// journal is broken) ends the flusher instead: the error fails flushEvents;
// Drain and Flush report it.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// flushState is the lifecycle of a pending snapshot.
type flushState int32

const (
	// flushQueued: waiting in the pending list or being built/written.
	flushQueued flushState = iota
	// flushFailed: the DFS write failed; the snapshot stays queryable and
	// is retried on the next flush trigger.
	flushFailed
	// flushDone: the chunk is registered. The entry is retained only while
	// an active query planned before the registration may still need the
	// in-memory copy.
	flushDone
)

// flushPart is one swapped-out snapshot inside a flush unit.
type flushPart struct {
	snap *core.FlushSnapshot
	side bool
	// written marks the part's DFS write as durable, so a retry of the
	// unit (after a later part failed) skips it: the DFS rejects writes
	// to existing names, and rebuilding is wasted work anyway. Only the
	// single goroutine driving processFlush for this unit touches it.
	written bool
	pending meta.ChunkInfo // built metadata, ID-less until registration
	info    meta.ChunkInfo // filled at registration
}

// pendingFlush is one flush unit travelling through the pipeline. A unit
// carries every tree snapshot covered by its WAL offset: the offset captured
// at swap time counts ALL consumed tuples, wherever routing placed them, so
// the main memtable and the side store always swap out together. Committing
// an offset whose tuples were split across two independently-flushed units
// would let recovery skip the half still in memory — the durability hole the
// chaos harness exposed (a crash between the main flush and the side flush
// silently dropped acked late tuples).
type pendingFlush struct {
	parts []flushPart
	// seq orders flush units; chunks persist strictly in seq order.
	seq int
	// offset is the WAL read offset captured at swap time: committing it
	// tells recovery that everything up to here is in chunks.
	offset int64

	// state/chunk/attempts are written by the flusher and read lock-free
	// by queries and waiters (attempts is incremented last, publishing the
	// outcome of each attempt).
	state atomic.Int32
	// cut marks a registered unit whose journal record is durable and whose
	// log records the flusher has let go of: only then does the unit count
	// as done (PendingFlushes).
	cut      atomic.Bool
	chunk    atomic.Uint64 // first registered chunk ID; 0 until registered
	attempts atomic.Int32
}

// mainInfo returns the registered chunk info of the unit's main-tree part,
// falling back to the first part for side-only units. Valid after flushDone.
func (pf *pendingFlush) mainInfo() meta.ChunkInfo {
	for i := range pf.parts {
		if !pf.parts[i].side {
			return pf.parts[i].info
		}
	}
	return pf.parts[0].info
}

// enqueueFlush swaps BOTH trees' leaf layers into immutable snapshots and
// queues them for the flusher as one unit. threshold marks calls from the
// insert hot path, which re-check the triggering tree's threshold under
// swapMu so concurrent crossings don't flush tiny residue trees.
// Returns nil when there was nothing to flush, and on a closed server, which
// swaps nothing: what it buffers stays in the memtable, and in the log.
//
// The trees swap together because the WAL offset recorded with the unit
// (s.consumed at swap time) covers every consumed tuple regardless of which
// tree routing placed it in. Swapping only one tree and committing that
// offset would declare the other tree's memory-only tuples durable; a crash
// before their own flush would then replay past them and lose them.
//
// Lock order: swapMu → pendMu → minMu/gate. The snapshots are appended to
// the pending list in the same pendMu critical section as the FlushReset,
// so a concurrent query (which scans trees and pending under pendMu.RLock)
// sees each tuple in exactly one place.
func (s *Server) enqueueFlush(tree *core.TemplateTree, isSide, threshold bool) *pendingFlush {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() || threshold && tree.Bytes() < s.thresholdFor(isSide) {
		return nil // closed, or another inserter already swapped this tree out
	}
	s.pendMu.Lock()
	var parts []flushPart
	if snap := s.tree.FlushReset(); snap != nil {
		if s.cfg.NoTemplateReuse {
			// Ablation: discard the learned template by rebuilding the whole
			// tree with an even partition, as a non-template system would.
			s.tree.UpdateTemplate()
		}
		parts = append(parts, flushPart{snap: snap})
	}
	if s.side != nil {
		if snap := s.side.FlushReset(); snap != nil {
			if s.cfg.NoTemplateReuse {
				s.side.UpdateTemplate()
			}
			parts = append(parts, flushPart{snap: snap, side: true})
		}
	}
	var pf *pendingFlush
	if len(parts) > 0 {
		s.flushSeq++
		pf = &pendingFlush{
			parts:  parts,
			seq:    s.flushSeq,
			offset: s.consumed.Load(),
		}
		s.pending = append(s.pending, pf)
		s.minMu.Lock()
		s.hasData = false
		s.sideData = false
		s.keysSet = false
		s.minMu.Unlock()
	}
	s.pendMu.Unlock()
	// One step per enqueue, swapped or not: it sends the flusher to the new
	// unit, or one parked on an earlier failure back to retry it first.
	s.flushEvents.Add(1)
	bound := s.cfg.FlushQueueDepth + 1 // queued units plus the one in flight
	if pf == nil || s.PendingFlushes() <= bound || s.flushEvents.Err() != nil {
		return pf
	}
	// Backpressure: this swap is one unit past the bound, so the inserting
	// goroutine waits here until the flusher registers one. swapMu stays
	// held, so later threshold crossings queue behind this one while plain
	// inserts keep landing in the fresh tree. The flusher's exit (Abort,
	// fenced, a write no retry mends) fails flushEvents and lets it go; the
	// unit is then left to WAL replay.
	//
	// A flusher parked on a failed write while this swap waits stalls the
	// server's consumer: WaitApplied answers ErrBusy instead of waiting on.
	stall := time.Now()
	s.stats.Backpressure.Add(1)
	if s.awaitFlush(nil, func() bool {
		if s.PendingFlushes() <= bound {
			return true
		}
		if s.parked.Load() {
			s.setStalled(true)
		}
		return false
	}) {
		s.cfg.Metrics.BackpressureNanos.Observe(time.Since(stall))
	}
	s.setStalled(false)
	return pf
}

// thresholdFor returns the flush threshold of the main or side tree.
func (s *Server) thresholdFor(isSide bool) int64 {
	if isSide {
		return s.cfg.ChunkBytes / 4
	}
	return s.cfg.ChunkBytes
}

// flusher is the per-server background goroutine. The pending list is its
// queue: it persists the oldest unit not yet registered, so units persist
// strictly in seq order, and a failed write parks it on that unit instead
// of moving on — no later unit is ever durable before an earlier one, the
// invariant the offset commit relies on. It parks on flushEvents, and its
// exit fails flushEvents, which releases every waiter.
func (s *Server) flusher() {
	defer s.flushEvents.Fail(ErrStopped)
	backoff := time.Millisecond
	for {
		// The count before the state it steps; closed before the list, which
		// then holds every unit a closed server will ever have.
		seen := s.flushEvents.Load()
		closed := s.closed.Load()
		pf := s.oldestUnpersisted()
		switch {
		case s.aborted.Load():
			// Crash semantics (Abort): abandon queued units at once. Their
			// offsets were never committed, so WAL replay on the
			// replacement server reproduces every tuple exactly once.
			return
		case pf == nil && closed:
			return // Close: everything queued is persisted
		case pf == nil:
			s.flushEvents.Wait(seen+1, nil)
			continue
		case closed && flushState(pf.state.Load()) == flushFailed:
			// Close during an outage gives up at the first failure. The
			// unit's offset was never committed, so the WAL replays it
			// after restart — no data loss, no gap.
			return
		}
		err := s.processFlush(pf)
		switch {
		case err == nil:
			backoff = time.Millisecond
			continue
		case errors.Is(err, dfs.ErrExists), errors.Is(err, errJournal):
			// The chunk's name is taken, or the journal is broken: the same
			// attempt fails the same way for good. Say so to whoever waits on
			// the pipeline; the unit stays queryable, and the log replays what
			// no durable commit covers for whoever opens the slot next.
			s.flushEvents.Fail(fmt.Errorf("ingest: flush (server %d): %w", s.cfg.ID, err))
			return
		case s.fenced.Load():
			// Deposed incarnation: the metadata server rejects its writes
			// for good. Exit instead of retrying forever; the new owner
			// replays the WAL tail this unit would have covered.
			return
		}
		// Park until the next step or the backoff, counting in its own two
		// steps (the attempt, the park): a step that landed while the attempt
		// was in flight sends it straight back. The backoff is self-driven
		// and capped because the DFS can recover while the only goroutine
		// that would step is blocked on backpressure, holding swapMu.
		s.parked.Store(true)
		s.flushEvents.Add(1)
		if s.flushEvents.Wait(seen+3, wal.Deadline(backoff)) != nil && backoff < 64*time.Millisecond {
			backoff *= 2
		}
		s.parked.Store(false)
	}
}

// errFlushAbandoned is processFlush's answer on a server that may persist
// nothing any more (fenced or aborted).
var errFlushAbandoned = errors.New("ingest: flush abandoned")

// errJournal wraps a metadata journal failure: the registry can make nothing
// durable any more, so no retry of a flush can help.
var errJournal = errors.New("ingest: metadata journal")

// chunkSyncer is a ChunkWriter whose writes reach stable storage only at
// Sync (*dfs.FS over a directory): the flusher syncs before it registers.
type chunkSyncer interface{ Sync() error }

// processFlush builds, writes and registers one flush unit, in this order:
// write every part's chunk; put the chunk files on stable storage
// (chunkSyncer); sync the log up to the unit's offset (SyncWAL); register
// every part together with the offset commit in one metadata critical
// section under pendMu (RegisterFlushOwned), so a query plan sees either
// none or all of the unit's chunks; let go of pendMu, then wait for the
// commit's journal record; cut the log behind the commit (TruncateWAL); and
// only then count the unit done. Nothing is let go of before what replaces
// it is durable, and no query waits on an fsync. Returns the error when the
// DFS refused a write (or a sync failed, or metadata the registration); the
// unit then stays queryable in the pending list and the caller decides
// whether a retry can help. The attempt count moves last, whatever the
// outcome (it publishes it), then the pipeline's event count.
func (s *Server) processFlush(pf *pendingFlush) error {
	defer func() { pf.attempts.Add(1); s.flushEvents.Add(1) }()
	if s.fenced.Load() || s.aborted.Load() {
		// Deposed or crashed: nothing may persist or commit any more, and
		// this entry will never reach flushDone.
		return errFlushAbandoned
	}
	flushStart := time.Now()
	infos := make([]meta.ChunkInfo, len(pf.parts))
	var totalBytes int64
	for i := range pf.parts {
		part := &pf.parts[i]
		if part.written {
			// A later part failed on a previous attempt; this one is
			// already durable (the DFS rejects rewrites of an existing
			// name), so the retry resumes where it stopped. The part stays
			// unregistered until the whole unit is durable.
			infos[i] = part.pending
			totalBytes += part.pending.Size
			continue
		}
		data, cmeta, err := chunk.Build(part.snap, s.cfg.Build)
		if err != nil {
			// Snapshot was non-empty, so Build cannot fail; a failure here is a
			// programming error worth surfacing loudly.
			panic(fmt.Sprintf("ingest: chunk build: %v", err))
		}
		kind := "c"
		if part.side {
			kind = "side"
		}
		// An ownership epoch is never handed out twice — a claim is durable
		// before anything runs under it, and Open sweeps the files a crash left
		// unregistered — so neither a successor in this process nor one in the
		// next can take this name.
		path := fmt.Sprintf("chunks/is%d-e%d-%s%d", s.cfg.ID, s.epoch.Load(), kind, pf.seq)
		if werr := s.fs.Write(path, data); werr != nil {
			// Parts written so far stay durable-but-unregistered; nothing
			// registers and no offset commits until every part is written.
			s.stats.FlushFailures.Add(1)
			pf.state.Store(int32(flushFailed))
			return werr
		}
		// The chunk's data region: the tuples' exact bounding box, which is
		// at least as tight as the actual key interval × flush window.
		infos[i] = meta.ChunkInfo{
			Path: path,
			Region: model.Region{
				Keys:  boundingKeys(part.snap),
				Times: model.TimeRange{Lo: cmeta.MinTime, Hi: cmeta.MaxTime},
			},
			Count:     cmeta.Count,
			Size:      cmeta.Size,
			HeaderLen: cmeta.HeaderLen,
			IndexLen:  cmeta.IndexLen,
			Server:    s.cfg.ID,
			Agg:       cmeta.Agg,
		}
		part.pending = infos[i]
		part.written = true
		totalBytes += cmeta.Size
	}
	// Durability barrier (§V): the chunk files, then the log up to the
	// offset this unit is about to commit (consumed from memory, possibly
	// ahead of any WAL fsync), are on stable storage BEFORE the registration
	// names them. Failing here fails the attempt like a DFS write would:
	// nothing registered, nothing committed, retried later.
	var err error
	if cs, ok := s.fs.(chunkSyncer); ok {
		err = cs.Sync()
	}
	if err == nil && s.cfg.SyncWAL != nil {
		err = s.cfg.SyncWAL(pf.offset)
	}
	if err != nil {
		s.stats.FlushFailures.Add(1)
		pf.state.Store(int32(flushFailed))
		return err
	}
	// Registration, horizon publication and offset commit happen in one
	// pendMu section: a query that saw the chunks in its plan cannot read
	// the pending list until the unit is marked done, and one that read the
	// list first plans with a horizon below the unit's first chunk ID.
	s.pendMu.Lock()
	if s.aborted.Load() {
		// Abort raced with the in-flight writes: the chunk files exist but
		// are never registered (orphaned, invisible to queries) and the WAL
		// offset stays uncommitted, so replay on the replacement server
		// covers these tuples.
		s.pendMu.Unlock()
		return errFlushAbandoned
	}
	// The chunks and the replay offset commit in ONE epoch-guarded metadata
	// critical section (RegisterFlushOwned), so an ownership transfer can
	// never land between them — the successor would otherwise replay
	// records already in a registered chunk. The committed offset is the
	// contiguous persisted prefix with this unit counted done: snapshots
	// persist in seq order, so the walk stops at the first unpersisted
	// entry and the offset never advances past a snapshot that failed or is
	// still in flight, even when a later one has already been written.
	commit := int64(-1)
	for _, q := range s.pending {
		if q != pf && flushState(q.state.Load()) != flushDone {
			break
		}
		commit = q.offset
		if q == pf {
			break
		}
	}
	regs, rerr := s.ms.RegisterFlushOwned(s.cfg.ID, s.epoch.Load(), infos, commit)
	if rerr != nil {
		// Fenced: ownership of the slot moved to a newer incarnation. This
		// server is deposed — nothing it buffers may ever reach metadata
		// again, and retrying is pointless by construction. Otherwise the
		// journal refused the record, for good: so does every later one.
		if errors.Is(rerr, meta.ErrFenced) {
			s.fenced.Store(true)
		} else {
			rerr = fmt.Errorf("%w: %w", errJournal, rerr)
		}
		s.stats.FlushFailures.Add(1)
		pf.state.Store(int32(flushFailed))
		s.pendMu.Unlock()
		return rerr
	}
	if commit > s.committedOff {
		s.committedOff = commit
	}
	for i := range pf.parts {
		pf.parts[i].info = regs[i]
	}
	// The unit's chunk IDs are consecutive (batch registration), so a query
	// horizon is never strictly between them: horizon > first ID means the
	// plan saw the whole unit. The first ID therefore stands for the unit in
	// the visibility check (ExecuteSubQuery) and the sweep.
	pf.chunk.Store(uint64(regs[0].ID))
	pf.state.Store(int32(flushDone))
	committed := s.committedOff
	s.pendMu.Unlock()
	// The commit is acted on outside metadata only once its record is
	// durable. A journal that cannot make it so takes every later record
	// with it: no retry mends that.
	if err := s.ms.Sync(); err != nil {
		return fmt.Errorf("%w: %w", errJournal, err)
	}
	if s.cfg.TruncateWAL != nil && committed >= 0 {
		s.cfg.TruncateWAL(committed)
	}
	s.pendMu.Lock()
	pf.cut.Store(true)
	s.sweepLocked()
	s.pendMu.Unlock()
	s.stats.Flushes.Add(1)
	s.stats.FlushBytes.Add(totalBytes)
	s.cfg.Metrics.FlushNanos.Observe(time.Since(flushStart))
	return nil
}

// sweepLocked drops registered snapshots that no active query can still
// need: a query only scans a done snapshot when the chunk registered at or
// after the query's plan horizon, so once every active query's horizon is
// above the chunk ID the in-memory copy is garbage. Requires pendMu.
func (s *Server) sweepLocked() {
	floor := s.ms.MinQueryAsOf()
	keep := s.pending[:0]
	for _, pf := range s.pending {
		if pf.cut.Load() && pf.chunk.Load() < floor {
			continue
		}
		keep = append(keep, pf)
	}
	for i := len(keep); i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.pending = keep
}

// oldestUnpersisted returns the first pending snapshot that is not yet in
// a registered chunk, or nil.
func (s *Server) oldestUnpersisted() *pendingFlush {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	for _, pf := range s.pending {
		if flushState(pf.state.Load()) != flushDone {
			return pf
		}
	}
	return nil
}

// waitFlush blocks until pf is registered (info, true) or an attempt past
// `since` has failed (zero info, false). Units persist strictly in seq
// order, so behind an EARLIER unit wedged on a failing DFS pf may never be
// attempted: waitFlush also gives up on any write failure that lands while
// it waits (the head unit's next retry, within one backoff period), and the
// caller may re-drive the flush later per the Flush contract. So it does
// when the flusher has exited (Abort, fenced): nothing more is attempted.
func (s *Server) waitFlush(pf *pendingFlush, since int32) (meta.ChunkInfo, bool) {
	failsBefore := s.stats.FlushFailures.Load()
	s.awaitFlush(nil, func() bool {
		return pf.cut.Load() || pf.attempts.Load() > since ||
			s.stats.FlushFailures.Load() > failsBefore
	})
	if flushState(pf.state.Load()) == flushDone {
		return pf.mainInfo(), true
	}
	return meta.ChunkInfo{}, false
}

// awaitFlush blocks until cond holds (true), the flusher has exited or
// cancel fired (false). Whatever cond looks at is followed by a flushEvents
// step, and the count is read BEFORE cond is evaluated: no missed wake-up.
func (s *Server) awaitFlush(cancel <-chan struct{}, cond func() bool) bool {
	for seen := s.flushEvents.Load(); !cond(); seen = s.flushEvents.Load() {
		if s.flushEvents.Wait(seen+1, cancel) != nil {
			return false
		}
	}
	return true
}

// PendingFlushes returns the number of swapped-out snapshots not yet done:
// queued, in flight, failed awaiting retry, or registered with the commit's
// record not yet durable or the log not yet cut behind it.
func (s *Server) PendingFlushes() int {
	s.pendMu.RLock()
	defer s.pendMu.RUnlock()
	n := 0
	for _, pf := range s.pending {
		if !pf.cut.Load() {
			n++
		}
	}
	return n
}

// DrainFlushes blocks until every enqueued snapshot has been attempted —
// registered, or failed with the flusher parked awaiting a retry trigger —
// or the flusher has exited. After a clean drain (no failures) all swapped
// data is in registered chunks and the committed WAL offset covers it. The
// error is the one a flusher died of because no retry could mend it; a
// server stopped from outside (Close, Abort, fenced) drains to nil.
func (s *Server) DrainFlushes() error {
	// A unit that failed counts until the flusher has said what comes next —
	// parked for a retry, or ended (its error, below): the attempt's own
	// event comes a beat before either.
	s.awaitFlush(nil, func() bool { return s.PendingFlushes() == 0 || s.parked.Load() })
	// A flusher that died leaves no backlog behind either: ask how it ended.
	if err := s.flushEvents.Err(); !errors.Is(err, ErrStopped) {
		return err
	}
	return nil
}

// AwaitPendingFlush blocks until PendingFlushes() > 0; false when cancel
// fired or the server stopped first.
func (s *Server) AwaitPendingFlush(cancel <-chan struct{}) bool {
	return s.awaitFlush(cancel, func() bool { return s.PendingFlushes() > 0 })
}

// Close stops the background flusher, draining queued snapshots first
// (failures during an outage are abandoned to WAL replay rather than
// retried forever). A closed server flushes nothing more: a later Flush
// returns at once, what is buffered stays in the memtable and in the log.
// Idempotent.
func (s *Server) Close() {
	s.consumed.Fail(ErrStopped)
	s.swapMu.Lock()
	s.closed.Store(true)
	s.swapMu.Unlock()
	s.awaitFlusherExit()
}

// Abort simulates an indexing-server crash: the background flusher stops
// without draining, and no snapshot — queued, in flight, or future — may
// register its chunk or commit a WAL offset from this call on. The tuples
// of abandoned snapshots were never covered by a committed offset, so WAL
// replay on a replacement server reproduces them exactly once; a chunk
// file a racing in-flight DFS write already created is simply never
// registered (orphaned files are invisible to queries). It returns once
// the flusher has exited, so the caller reads WAL offsets only after the
// last commit this incarnation can make. Unlike Close, Abort never takes
// swapMu, so it cannot deadlock behind an inserter that is itself blocked
// on backpressure during a DFS outage — the flusher's exit releases that
// inserter. Idempotent; safe alongside Close.
func (s *Server) Abort() {
	s.aborted.Store(true)
	s.consumed.Fail(ErrStopped)
	s.awaitFlusherExit()
}

// awaitFlusherExit steps flushEvents, so a parked flusher looks at the flag
// its caller just set, and waits for the flusher's exit, which fails it.
func (s *Server) awaitFlusherExit() {
	s.flushEvents.Add(1)
	s.flushEvents.Wait(math.MaxInt64, nil)
}
