// What survives the process and how it ends: the checkpoint chain, the
// checkpointer, the orphan sweep Open runs, the replay floor the log is held
// to, and Start / Stop / HardCrash.

package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// sweepOrphans holds the file system to the restored registry, the one record
// of which chunks exist. Every registered chunk must be there with exactly
// its registered bytes (the size in the snapshot was fsynced after the file
// was: a mismatch is damage no replay mends, and Open fails); every other
// file is deleted. A file the durable registry does not name is a chunk
// written after the last checkpoint (its records are still in the log, whose
// segments go only behind a snapshot naming the chunks that replace them, and
// this process re-flushes them under its own epoch generation), a retired
// chunk whose drop the snapshot records, or the output of a compaction or a
// flush that never registered. Only Open may do this: while the deployment
// runs, a file between its Write and its registration looks the same.
func sweepOrphans(fs *dfs.FS, ms *meta.Server) (swept int64, err error) {
	registered := make(map[string]struct{})
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		size, err := fs.Size(ci.Path)
		if err != nil {
			return 0, fmt.Errorf("cluster: registered chunk %d: %w", ci.ID, err)
		}
		if size != ci.Size {
			return 0, fmt.Errorf("cluster: registered chunk %d: %w: %s holds %d bytes, the registry says %d",
				ci.ID, dfs.ErrSizeMismatch, ci.Path, size, ci.Size)
		}
		registered[ci.Path] = struct{}{}
	}
	for _, name := range fs.List() {
		if _, ok := registered[name]; ok {
			continue
		}
		if err := fs.Delete(name); err != nil {
			return swept, fmt.Errorf("cluster: orphan sweep: %w", err)
		}
		swept++
	}
	return swept, nil
}

// metaSnapPath is the metadata snapshot file within a data directory.
func metaSnapPath(dataDir string) string { return filepath.Join(dataDir, "meta.snap") }

// checkpointCommits is the checkpoint cadence: one after this many flush
// commits, cluster-wide. With FlushQueueDepth units in flight and one being
// swapped it bounds what the log holds on disk, and what a hard crash
// replays, at (checkpointCommits + FlushQueueDepth + 1) chunks' worth per
// slot, whatever the uptime. A constant: a checkpoint is a full metadata
// image, cheap against eight chunk writes while the registry holds thousands
// of chunks (DESIGN, "The log on disk", says where that stops).
const checkpointCommits = 8

// Checkpoint makes everything flushed so far survive a host crash without
// the log, then lets go of the log behind it. No-op without a DataDir. It
// is a chain, and the order is the point — nothing is unlinked until what
// replaces it is on stable storage:
//
//	capture the flush offsets → snapshot the metadata (offsets only grow, so
//	the image records at least the captured ones) → fsync the chunk files
//	written since the last checkpoint, then their directory (the flusher
//	does not: dfs.FS.Sync) → write meta.snap.tmp, fsync it,
//	rename it over meta.snap, fsync the directory → fsync the log → unlink
//	every WAL segment wholly below min(captured offset, replay floor), and
//	the files of the chunks that retention or compaction had dropped.
//
// A failure at any step ends the chain there: every segment stays. The
// checkpointer runs it every checkpointCommits flush commits; FlushAll, Open
// (the epoch generation that names this process's chunks is durable before
// it writes one), AddIndexServer and Stop run it synchronously. Once the
// cluster is stopped it answers ErrClosed and writes nothing: by then the
// data directory may belong to the next process, and this one's image would
// overwrite that one's registry.
func (c *Cluster) Checkpoint() error {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.stopped.Load() {
		return ErrClosed
	}
	return c.checkpointLocked()
}

// checkpointLocked is the chain itself: Checkpoint's, and Stop's final one.
// Requires ckptMu.
func (c *Cluster) checkpointLocked() error {
	if c.cfg.DataDir == "" {
		return nil
	}
	start, n := time.Now(), c.ckptStarted.Add(1)
	offs := make([]int64, c.log.Partitions())
	for i := range offs {
		offs[i] = c.ms.Offset(i)
	}
	snap, err := c.ms.Snapshot()
	if err != nil {
		return err
	}
	if err := c.fs.Sync(); err != nil {
		return err
	}
	path := metaSnapPath(c.cfg.DataDir)
	if err := c.cfg.Files.WriteFile(path+".tmp", snap); err != nil {
		return err
	}
	if err := c.cfg.Files.Sync(path + ".tmp"); err != nil {
		return err
	}
	if err := c.cfg.Files.Rename(path+".tmp", path); err != nil {
		return err
	}
	if err := c.cfg.Files.Sync(c.cfg.DataDir); err != nil {
		return err
	}
	for i := range offs {
		if err := c.log.Partition(i).Sync(); err != nil {
			return err
		}
	}
	// The snapshot a hard crash restores names offs: records below them are
	// in chunks it registers. The floor a lagging standby imposes is the
	// same as for the memory release; a slot added since the capture has no
	// durable floor yet and keeps everything.
	for i, off := range offs {
		c.log.Partition(i).Truncate(c.replayFloor(i, off))
	}
	// Likewise the files of chunks dropped before the snapshot was taken.
	c.ckptDurable.Store(n)
	c.ret.sweep()
	c.checkpoints.Inc()
	c.ckptNanos.Observe(time.Since(start))
	return nil
}

// checkpointer takes a checkpoint every checkpointCommits flush commits. It
// parks on the commit count: an idle deployment checkpoints nothing.
func (c *Cluster) checkpointer() {
	defer c.wg.Done()
	for next := int64(checkpointCommits); c.commits.Wait(next, c.stop) == nil; {
		// Counted from before the capture: commits that land while the chain
		// runs belong to the next one.
		next = c.commits.Load() + checkpointCommits
		// A failed chain leaves the log whole; the next cadence tries again.
		if c.Checkpoint() == nil {
			c.ckptAuto.Add(1)
		}
	}
}

// Start launches the ingestion consumers, with a DataDir the checkpointer,
// and, when configured, the balancer loop.
func (c *Cluster) Start() {
	// started flips under slotMu, where install reads it: every serving
	// incarnation gets exactly one consumer, from here or from install.
	c.slotMu.Lock()
	if c.started.Swap(true) {
		c.slotMu.Unlock()
		return
	}
	for i := range c.slots {
		// A retired slot has no consumer; a stopped cluster starts none.
		if row := &c.slots[i]; row.srv != nil && !c.stopped.Load() {
			row.stopConsumer, _ = c.spawnLocked(i, row.srv)
		}
	}
	c.slotMu.Unlock()
	if c.cfg.HotStandby {
		for _, i := range c.ActiveSlots() {
			c.StartStandby(i)
		}
	}
	if c.cfg.DataDir != "" {
		c.wg.Add(1)
		go c.checkpointer()
	}
	if c.cfg.BalanceIntervalMillis > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			tick := time.NewTicker(time.Duration(c.cfg.BalanceIntervalMillis) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tick.C:
					c.TickBalance()
				}
			}
		}()
	}
}

// Stop drains and shuts the cluster down, checkpointing persistent state.
func (c *Cluster) Stop() {
	if c.stopped.Swap(true) {
		return
	}
	// Close the flushers: they drain their queued snapshots, so the final
	// checkpoint records their offsets.
	c.stopIngest((*ingest.Server).Close)
	// The last checkpoint, past the stopped check every later one meets. Best
	// effort: what it would record is also in the WAL.
	c.ckptMu.Lock()
	_ = c.checkpointLocked()
	c.ckptMu.Unlock()
	// Query traffic is over; force-delete any chunk files still parked
	// behind in-flight-query horizons.
	c.ret.drain()
	closeSegments(c.log)
}

// closeSegments stops every partition's committer and releases its active
// segment's descriptor: the last step of Stop, and what an Open that fails
// after opening the log does instead of leaking them. A memory-only log
// holds neither.
func closeSegments(log *wal.Log) {
	for i := 0; i < log.Partitions(); i++ {
		log.Partition(i).CloseFile()
	}
}

// stopIngest is every shutdown's first half (c.stopped is set): release
// whoever waits on c.stop, detach the consumers and take the standbys in one
// walk of the slot table, discard the standbys, close the log, wait for
// consumers and balancer, stop the servers. The servers stay in the table:
// a stopped deployment still answers Stats and IndexServers. Nothing spawns
// a consumer once c.stopped is set (spawnLocked), so the walk sees them all.
func (c *Cluster) stopIngest(stopServer func(*ingest.Server)) {
	close(c.stop)
	var hs []*standby
	c.slotMu.Lock()
	for i := range c.slots {
		row := &c.slots[i]
		if row.stopConsumer != nil {
			close(row.stopConsumer)
			row.stopConsumer = nil
		}
		if row.standby != nil {
			hs = append(hs, row.standby)
			row.standby = nil
		}
	}
	c.slotMu.Unlock()
	for _, h := range hs {
		h.discard()
	}
	c.log.Close()
	c.wg.Wait()
	for _, srv := range c.servers() {
		if srv != nil {
			stopServer(srv)
		}
	}
}

// HardCrash simulates a host crash in DataDir mode: no checkpoint, no
// drain, and the OS page cache dies with the host — every byte of the log,
// the chunk files and the snapshot that no fsync covered is cut off, while
// every name survives (a chunk flushed since the last checkpoint keeps its
// name and loses its bytes). It needs Config.Files, which carries the crash.
// The cluster is unusable afterwards; Open the same DataDir, with the same
// Files, to get the surviving state. This is the probe for the
// ack-durability gap: under "ack-on-fsync" every acked tuple is below the
// fsync watermark and survives; under "ack-on-write" acked tuples still in
// the page cache are lost.
func (c *Cluster) HardCrash() error { return c.crash(0) }

// crash is HardCrash that also undoes the newest undo directory entry
// changes no directory fsync covered (durable.Files.Crash).
func (c *Cluster) crash(undo int) error {
	if c.cfg.DataDir == "" || c.cfg.Files == nil {
		return fmt.Errorf("cluster: a crash requires DataDir and Files")
	}
	if c.stopped.Swap(true) {
		return fmt.Errorf("cluster: already stopped")
	}
	return c.cfg.Files.Crash(undo, func() {
		// Abort (not Close) the flushers: in-flight work dies without
		// checkpointing, like the host it ran on.
		c.stopIngest((*ingest.Server).Abort)
		closeSegments(c.log)
	})
}

// replayFloor returns the lowest offset of slot i's partition an in-process
// reader may still ask for, given the slot's committed flush offset: a
// crash replacement replays from committed, and a hot standby from its own
// replay position, which can lag behind it. A planned promotion replays the
// partition from the standby's position at handoff; dropping records
// between its catch-up check and the ownership flip would lose acked
// tuples. The standby's position only moves forward, so the floor read here
// is safe against a concurrent promotion: at worst a few extra records stay
// until the next commit.
func (c *Cluster) replayFloor(i int, committed int64) int64 {
	if h := c.standby(i); h != nil {
		return min(committed, h.srv.Consumed())
	}
	return committed
}
