// What survives the process and how it ends: Checkpoint, the orphan sweep
// Open runs, the replay floor the log is held to, and Start / Stop /
// HardCrash.

package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// sweepOrphans holds the file system to the replayed registry, the one record
// of which chunks exist. Every registered chunk must be there with exactly
// its registered bytes (the file was fsynced before its journal record was:
// a mismatch is damage no replay mends, and Open fails); every other file is
// deleted. A file the durable registry does not name is a chunk whose
// registration a crash lost (its records are still in the log, which is cut
// only behind a durable commit, and this process re-flushes them under an
// epoch of its own), a retired chunk whose drop the journal records, or a
// flush that never registered. Only Open may do this, before anything
// writes: while the deployment runs, a file between its Write and its
// registration looks the same. So a name a crash left unregistered is gone
// before the epoch it carries can be claimed again. The first registered
// chunk's format is checked too (checkChunkFormat).
func sweepOrphans(fs *dfs.FS, ms *meta.Server) (swept int64, err error) {
	registered := make(map[string]struct{})
	for i, ci := range ms.ChunksFor(model.FullRegion()) {
		size, err := fs.Size(ci.Path)
		if err != nil {
			return 0, fmt.Errorf("cluster: registered chunk %d: %w", ci.ID, err)
		}
		if size != ci.Size {
			return 0, fmt.Errorf("cluster: registered chunk %d: %w: %s holds %d bytes, the registry says %d",
				ci.ID, dfs.ErrSizeMismatch, ci.Path, size, ci.Size)
		}
		if i == 0 {
			if err := checkChunkFormat(fs, ci); err != nil {
				return 0, err
			}
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

// checkChunkFormat refuses a data directory whose chunks this build does
// not read, by the magic of one of them. A directory's chunks share one
// format, because a directory of an older format never opens to have
// chunks of this one added; without the check it would open, and every
// query that touched its history would fail. A magic that is merely
// corrupt is left to the queries that read it, which fail typed.
func checkChunkFormat(fs *dfs.FS, ci meta.ChunkInfo) error {
	head, _, err := fs.ReadAt(ci.Path, 0, 8, -1)
	if err != nil {
		return fmt.Errorf("cluster: registered chunk %d: %w", ci.ID, err)
	}
	if err := chunk.CheckMagic(head); errors.Is(err, chunk.ErrUnsupportedVersion) {
		return fmt.Errorf("cluster: registered chunk %d (%s): %w", ci.ID, ci.Path, err)
	}
	return nil
}

// journalPath is the metadata journal's partition directory within a data
// directory.
func journalPath(dataDir string) string { return filepath.Join(dataDir, "meta.wal") }

// ErrLegacyLayout is returned by Open over a data directory that holds files
// but no metadata journal: an older layout's, whose registry was a gob image.
// Opening a fresh registry over it would sweep every chunk it holds.
var ErrLegacyLayout = errors.New("cluster: data directory holds no metadata journal (an older layout)")

// openMeta opens the registry journaled under the data directory; the
// journal is the first thing a fresh directory gets, so a directory holding
// anything else without one is refused.
func openMeta(cfg *Config, slots int) (*meta.Server, error) {
	if _, err := os.Stat(journalPath(cfg.DataDir)); errors.Is(err, os.ErrNotExist) {
		if entries, _ := os.ReadDir(cfg.DataDir); len(entries) > 0 {
			return nil, fmt.Errorf("%w: %s holds %s", ErrLegacyLayout, cfg.DataDir, entries[0].Name())
		}
	}
	reg := cfg.Telemetry
	return meta.Open(journalPath(cfg.DataDir), slots, meta.JournalConfig{
		Files: cfg.Files,
		Compactions: reg.Counter("waterwheel_checkpoints_total",
			"metadata journal compactions: the registry re-registered in parts, the journal cut below the first once the last is durable"),
		CompactNanos: reg.Histogram("waterwheel_checkpoint_seconds",
			"metadata journal compaction latency: every part encoded and appended, then made durable (stage: checkpoint)"),
	})
}

// Checkpoint puts everything in the log on stable storage, compacts the
// metadata journal, and lets go of the log behind every durable flush
// commit. No-op without a DataDir. Metadata needs no checkpoint to survive a
// host crash — every edit is durable before anyone acts on it — so this is
// the explicit form of what runs anyway: a flush commit cuts its slot's log,
// and the journal compacts by itself once its records outnumber the chunks.
// Once the cluster is stopped it answers ErrClosed and writes nothing: by
// then the data directory may belong to the next process.
func (c *Cluster) Checkpoint() error {
	if c.stopped.Load() {
		return ErrClosed
	}
	if c.cfg.DataDir == "" {
		return nil
	}
	// Offsets read before Compact are durable once it returns.
	offs := make([]int64, c.log.Partitions())
	for i := range offs {
		offs[i] = c.ms.Offset(i)
	}
	if err := c.ms.Compact(); err != nil {
		return err
	}
	for i, off := range offs {
		p := c.log.Partition(i)
		if err := p.Sync(); err != nil {
			return err
		}
		p.Truncate(off)
	}
	c.ret.sweep()
	return nil
}

// Start launches the ingestion consumers and, when configured, the balancer
// loop.
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
			row.stopConsumer = c.spawnLocked(i, row.srv)
		}
	}
	c.slotMu.Unlock()
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

// Stop drains and shuts the cluster down: the flushers persist their queued
// snapshots, whose commits are durable as they land.
func (c *Cluster) Stop() {
	if c.stopped.Swap(true) {
		return
	}
	c.stopIngest((*ingest.Server).Close)
	// Query traffic is over; force-delete any chunk files still parked
	// behind in-flight-query horizons.
	c.ret.drain()
	closeSegments(c.log)
	c.ms.Close()
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
// whoever waits on c.stop, detach the consumers in one walk of the slot
// table, close the log, wait for consumers and balancer, stop the servers.
// The servers stay in the table: a stopped deployment still answers Stats
// and IndexServers. Nothing spawns a consumer once c.stopped is set
// (spawnLocked), so the walk sees them all.
func (c *Cluster) stopIngest(stopServer func(*ingest.Server)) {
	close(c.stop)
	c.slotMu.Lock()
	for i := range c.slots {
		row := &c.slots[i]
		if row.stopConsumer != nil {
			close(row.stopConsumer)
			row.stopConsumer = nil
		}
	}
	c.slotMu.Unlock()
	c.log.Close()
	c.wg.Wait()
	for _, srv := range c.servers() {
		if srv != nil {
			stopServer(srv)
		}
	}
}

// HardCrash simulates a host crash in DataDir mode: no drain, and the OS
// page cache dies with the host — every byte of the log, the chunk files and
// the metadata journal that no fsync covered is cut off, while every name
// survives (a chunk written but not yet synced keeps its name and loses its
// bytes). It needs Config.Files, which carries the crash.
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
		// Abort (not Close) the flushers: in-flight work dies with the host
		// it ran on.
		c.stopIngest((*ingest.Server).Abort)
		closeSegments(c.log)
		c.ms.Close()
	})
}
