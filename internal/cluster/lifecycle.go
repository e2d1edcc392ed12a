// The slot table and everything that changes it: consumers, takeover, the
// schema fan-out and the elastic verbs.
//
// The paper's unit of deployment is one thing — a key interval owned by one
// indexing server that consumes one log partition (§III-A, §III-D, §V) — and
// the table has one row for it. Every lifecycle edge is a write of one row
// under slotMu; every reader (the WAL sink, the coordinator, Drain, the
// gauges) copies what it needs out under the read lock and works on the copy.

package cluster

import (
	"errors"
	"fmt"
	"time"

	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// slot is row i of the slot table, guarded by Cluster.slotMu. Topology
// operations write it (holding elasticMu, which orders them); Open fills it
// before anything runs and stopIngest empties it.
type slot struct {
	// srv is the serving incarnation: the one the slot's consumer feeds,
	// queries read and flush commits come from. takeover replaces it,
	// DecommissionIndexServer clears it; nil means nobody serves the slot.
	srv *ingest.Server
	// retired flips, for good, when DecommissionIndexServer starts (or Open
	// restores a schema without the slot): the WAL sink reroutes stragglers
	// dispatched under a schema that still had it. srv outlives the mark by
	// the final drain and flush.
	retired bool
	// stopConsumer stops srv's consumer goroutine when closed, so one
	// consumer can be "crashed" without stopping the cluster; nil when none
	// runs. install sets it, detachConsumer and stopIngest close it.
	stopConsumer chan struct{}
}

// Totals are the ingest counters of every incarnation this process has run,
// serving or gone: when a takeover deposes one or a decommission closes one,
// its final counts move into Cluster.carried in the same write section that
// takes it out of the table, so no read sees them twice or not at all and a
// total never goes down. A tuple a successor replays is counted again, by the
// successor — Recovered says how many.
type Totals struct {
	Ingested, Flushes, FlushBytes, FlushFailures, SideRouted int64
	Backpressure, Recovered, ReplayGaps, TemplateUpdates     int64
}

// count adds srv's counters: atomic loads only (it runs under slotMu).
func (t *Totals) count(srv *ingest.Server) {
	st := srv.Stats()
	t.Ingested += st.Ingested.Load()
	t.Flushes += st.Flushes.Load()
	t.FlushBytes += st.FlushBytes.Load()
	t.FlushFailures += st.FlushFailures.Load()
	t.SideRouted += st.SideRouted.Load()
	t.Backpressure += st.Backpressure.Load()
	t.Recovered += st.Recovered.Load()
	t.ReplayGaps += st.ReplayGaps.Load()
	t.TemplateUpdates += srv.TreeStats().TemplateUpdates.Load()
}

// Totals returns the cumulative ingest counters. The serving incarnations'
// counters are read under the table's lock, not from a copy: an incarnation
// deposed a moment later may still finish the batch it was applying, and a
// read that straddled its move into carried could come out above the next one.
func (c *Cluster) Totals() Totals {
	c.slotMu.RLock()
	defer c.slotMu.RUnlock()
	t := c.carried
	for i := range c.slots {
		if srv := c.slots[i].srv; srv != nil {
			t.count(srv)
		}
	}
	return t
}

// fold reduces the serving incarnations of one snapshot of the table:
// acc = f(acc, slot, srv) in slot order. The one walk behind every gauge that
// sums or maxes a number over the servers.
func fold[T any](c *Cluster, acc T, f func(acc T, slot int, srv *ingest.Server) T) T {
	for i, srv := range c.servers() {
		if srv != nil {
			acc = f(acc, i, srv)
		}
	}
	return acc
}

// slotAt returns a copy of row i, the zero row when i is out of range.
func (c *Cluster) slotAt(i int) (s slot) {
	c.slotMu.RLock()
	if i >= 0 && i < len(c.slots) {
		s = c.slots[i]
	}
	c.slotMu.RUnlock()
	return s
}

// server returns slot i's indexing server, nil when the slot is retired
// or out of range.
func (c *Cluster) server(i int) *ingest.Server { return c.slotAt(i).srv }

// isRetired reports whether slot i has been decommissioned.
func (c *Cluster) isRetired(i int) bool { return c.slotAt(i).retired }

// servers returns the serving incarnations by slot id; a slot nobody serves
// is nil.
func (c *Cluster) servers() []*ingest.Server {
	c.slotMu.RLock()
	defer c.slotMu.RUnlock()
	out := make([]*ingest.Server, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].srv
	}
	return out
}

// install makes srv slot i's serving incarnation and, once the cluster has
// started, starts its consumer (nil srv: nobody serves the slot any more),
// carrying the outgoing one's counts over, in one write section. The caller
// has stopped the outgoing incarnation (Abort, Close): but for a batch its
// detached consumer may still be applying, its counts are final. A stopping
// cluster takes no new server — stopIngest may have walked the table
// already, and nothing would stop it — so install aborts srv instead and
// answers ErrClosed.
func (c *Cluster) install(i int, srv *ingest.Server) error {
	c.slotMu.Lock()
	if srv != nil && c.stopped.Load() {
		c.slotMu.Unlock()
		srv.Abort()
		return ErrClosed
	}
	row := &c.slots[i]
	if row.srv != nil {
		c.carried.count(row.srv)
	}
	row.srv = srv
	if srv != nil && c.started.Load() {
		row.stopConsumer = c.spawnLocked(i, srv)
	}
	c.slotMu.Unlock()
	return nil
}

// spawnLocked starts srv's consumer on slot i's partition and returns the
// channel that stops it. Requires slotMu, held for writing, and c.stopped
// unset: stopIngest sets c.stopped before it walks the table under slotMu,
// and waits for c.wg after the walk, so a consumer is either spawned before
// the walk, which stops it, or not at all.
func (c *Cluster) spawnLocked(i int, srv *ingest.Server) (stop chan struct{}) {
	stop = make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Consume keeps its own error: it fails the applied watermark with
		// it, and Drain reports it.
		_ = srv.Consume(c.log.Partition(i), stop)
	}()
	return stop
}

// installSchema is the one schema fan-out: every serving incarnation of a
// slot the schema holds learns its nominal interval, then every dispatcher
// the schema — dispatchers last, so no tuple is routed by newSchema to a
// server that has not heard of it. The order among servers is
// free: SetKeys only moves the interval the NEXT template update and flush
// use, and setting an unchanged one changes nothing. A slot newSchema dropped
// (a decommission in progress) keeps its interval for its final flush.
func (c *Cluster) installSchema(newSchema meta.PartitionSchema) {
	c.slotMu.RLock()
	rows := append([]slot(nil), c.slots...)
	c.slotMu.RUnlock()
	for i, row := range rows {
		if !newSchema.Active(i) {
			continue
		}
		if row.srv != nil {
			row.srv.SetKeys(newSchema.IntervalOf(i))
		}
	}
	for _, d := range c.disp {
		d.UpdateSchema(newSchema)
	}
}

// newIndexServer builds indexing server i from the cluster config — the
// single source of per-server settings, shared by Open, takeover and
// elastic scale-out so a replacement server never silently diverges from
// the original. epoch is the ownership epoch the incarnation registers
// flushes under.
func (c *Cluster) newIndexServer(i int, keys model.KeyRange, epoch int64) *ingest.Server {
	// Added servers can outnumber the configured nodes; wrap the DFS
	// placement preference instead of pointing past the last node.
	node := (i / c.cfg.IndexServersPerNode) % c.cfg.Nodes
	// SyncWAL: flush-offset commits must not run ahead of the WAL fsync
	// watermark (consumers index straight from memory, possibly before any
	// fsync), so the flusher syncs its unit's offset into the log before
	// registering chunks and committing. TruncateWAL: once the commit is
	// durable, the partition lets go — in memory and on disk — of what no
	// replay will read.
	return ingest.NewServer(ingest.Config{
		ID:                  i,
		Keys:                keys,
		ChunkBytes:          c.cfg.ChunkBytes,
		Leaves:              c.cfg.TemplateLeaves,
		SideThresholdMillis: c.cfg.SideThresholdMillis,
		Build:               c.cfg.Build,
		NoTemplateReuse:     c.cfg.NoTemplateReuse,
		FlushQueueDepth:     c.cfg.FlushQueueDepth,
		SyncWAL:             c.log.Partition(i).SyncTo,
		TruncateWAL:         c.log.Partition(i).Truncate,
		Metrics:             c.ingestMetrics,
		Epoch:               epoch,
	}, c.fs, c.ms, node)
}

// TickBalance runs one adaptive-partitioning round: rotate the dispatcher
// samplers' windows, pool their samples, and — if the estimated load of
// any indexing server deviates beyond the threshold — install a new key
// partitioning (paper §III-D). Returns whether a repartition happened.
func (c *Cluster) TickBalance() bool {
	// Repartitioning is a topology change: serialize it against elastic
	// operations so a balance round never fans out intervals computed from
	// a schema an add/decommission is concurrently replacing.
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	var sample []model.Key
	for _, d := range c.disp {
		sample = append(sample, d.Sampler().Sample()...)
		d.Sampler().Rotate()
	}
	schema := c.ms.Schema()
	bounds, ok := c.bal.Rebalance(schema, sample)
	if !ok {
		return false
	}
	newSchema, err := c.ms.SetSchema(bounds)
	if err != nil {
		return false
	}
	c.installSchema(newSchema)
	c.repartitions.Inc()
	return true
}

// detachConsumer stops slot i's consumer, if one runs.
func (c *Cluster) detachConsumer(i int) {
	c.slotMu.Lock()
	defer c.slotMu.Unlock()
	if cs := c.slots[i].stopConsumer; cs != nil {
		close(cs)
		c.slots[i].stopConsumer = nil
	}
}

// takeover flips slot i's ownership to a fresh server replaying the WAL
// from the committed offset (§V). The flip is one metadata CAS
// (TransferOwnership bumps the fencing epoch and reads the nominal interval
// atomically), so a flush the deposed incarnation still has in flight fails
// with ErrFenced instead of committing chunks or offsets under the new
// owner. Ingest into the partition never pauses — the measured handoff
// pause is consumer detach to successor consuming.
func (c *Cluster) takeover(i int) error {
	pauseStart := time.Now()
	c.detachConsumer(i)
	old := c.server(i)
	lag := max(c.log.Partition(i).Next()-c.ms.Offset(i), 0)
	epoch, kr, err := c.ms.TransferOwnership(i)
	if err != nil {
		return err
	}
	// Abort AFTER the fence: the old flusher exits on its next (rejected)
	// registration attempt, and Abort reaps it without letting in-flight
	// work move the metadata the successor starts from.
	if old != nil {
		old.Abort()
	}
	if err := c.install(i, c.newIndexServer(i, kr, epoch)); err != nil {
		return err
	}
	c.takeovers.Add(1)
	c.handoffs.Inc()
	c.handoffLag.Observe(time.Duration(lag) * time.Second)
	c.handoffPause.Observe(time.Since(pauseStart))
	return nil
}

// AddIndexServer grows the cluster by one indexing server (elastic
// scale-out): the widest active nominal key interval splits at its
// midpoint, the log grows the matching WAL partition (slot i <->
// partition i), and the new server starts consuming immediately —
// ingest never pauses. Returns the new slot id.
func (c *Cluster) AddIndexServer() (int, error) {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	split, at, ok := widestSplit(c.ms.Schema())
	if !ok {
		return 0, fmt.Errorf("cluster: no splittable key interval")
	}
	newSchema, id, err := c.ms.AddServer(split, at)
	if err != nil {
		return 0, err
	}
	_, pi, err := c.log.AddPartition()
	if err != nil {
		return 0, err
	}
	if pi != id {
		return 0, fmt.Errorf("cluster: slot/partition misalignment: slot %d, partition %d", id, pi)
	}
	// The slot was durable when AddServer returned, and its partition is
	// before a tuple is routed to it: a hard crash must not replay a schema
	// that has never heard of a partition holding acked records, nor find no
	// partition for a slot the registry names.
	srv := c.newIndexServer(id, newSchema.IntervalOf(id), c.ms.Epoch(id))
	c.slotMu.Lock()
	c.slots = append(c.slots, slot{})
	c.slotMu.Unlock()
	if err := c.install(id, srv); err != nil {
		return 0, err
	}
	// The split slot's nominal interval narrowed, but it still answers for
	// what it buffers from the old one until that flushes (§III-D): the
	// coordinator plans on its measured bounds, not on the schema. Only
	// then do the dispatchers learn the new schema — the new slot's
	// consumer is already running, so no tuple ever waits.
	c.installSchema(newSchema)
	return id, nil
}

// widestSplit picks the active slot with the widest nominal interval and
// the midpoint key to split it at; ok is false when every active interval
// is a single key.
func widestSplit(schema meta.PartitionSchema) (split int, at model.Key, ok bool) {
	var best uint64
	for _, id := range schema.ActiveSlots() {
		kr := schema.IntervalOf(id)
		if kr.Hi <= kr.Lo {
			continue
		}
		if w := uint64(kr.Hi - kr.Lo); !ok || w > best {
			split, at, best, ok = id, kr.Lo+(kr.Hi-kr.Lo)/2+1, w, true
		}
	}
	return split, at, ok
}

// DecommissionIndexServer retires slot i with zero acked-tuple loss: the
// schema drops the slot (new traffic routes to the absorbing neighbor),
// stragglers already routed to it reroute off the retired mask and the
// partition seal, the consumer drains the now-final partition head, a
// final flush turns everything buffered into registered chunks, and a
// last ownership transfer fences the slot forever. The slot's WAL
// partition and chunk history remain readable. The last active slot
// cannot retire.
func (c *Cluster) DecommissionIndexServer(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	srv := c.server(i)
	if srv == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	// 1. Drop the slot from the schema and fan the change out: new tuples
	// route to the absorbing neighbors, whose key sets widen.
	newSchema, err := c.ms.RemoveServer(i)
	if err != nil {
		return err
	}
	c.installSchema(newSchema)
	// 2. Retire + seal: a straggler dispatched under the old schema either
	// sees the mask before appending or bounces off the sealed partition —
	// both reroute it through the new schema, so after this point the
	// partition head is final (modulo appends already inside the lock,
	// which land before Seal returns).
	c.slotMu.Lock()
	c.slots[i].retired = true
	c.slotMu.Unlock()
	p := c.log.Partition(i)
	p.Seal()
	// 3. Drain the final head, then stop the consumer. A consumer stalled
	// behind a failed chunk write (ErrBusy) is waited for again: each wait
	// sends the parked flusher back to its unit once, so this loop runs only
	// as fast as DFS attempts fail, like step 4's.
	head := p.Next()
	err = c.waitApplied(i, head)
	for errors.Is(err, ErrBusy) {
		err = c.waitApplied(i, head)
	}
	if err != nil {
		return fmt.Errorf("cluster: decommission (slot %d): %w", i, err)
	}
	c.detachConsumer(i)
	// 4. Final flush: every buffered tuple becomes a registered chunk, the
	// replay offset commits to the head, and the server's bounds empty (the
	// coordinator stops planning mem-subqueries for the slot). A transient
	// DFS fault can park the flusher with the snapshot unregistered — and
	// FlushAll answers ErrBusy then — so keep re-driving the
	// flush until the committed offset provably covers the sealed head.
	// Each Flush re-signals a parked retry and waits for its outcome, so
	// this loop spins only as fast as DFS attempts fail.
	for c.ms.Offset(i) < head {
		if c.stopped.Load() {
			return fmt.Errorf("cluster: decommission (slot %d): %w", i, ErrClosed)
		}
		if err := srv.FlushAll(); err != nil && !errors.Is(err, ErrBusy) {
			return fmt.Errorf("cluster: decommission (slot %d): %w", i, err)
		}
	}
	// 5. Fence forever: even a flusher goroutine that somehow survived
	// cannot register under the retired slot again.
	if _, _, err := c.ms.TransferOwnership(i); err != nil {
		return err
	}
	srv.Close()
	c.install(i, nil)
	c.handoffs.Inc()
	return nil
}

// KillIndexServer crashes indexing server i without waiting for recovery:
// the consumer goroutine detaches and ownership transfers atomically to a
// fresh server replaying the WAL partition from the last committed offset.
// The transfer bumps the slot's fencing epoch BEFORE the
// successor starts, so a chunk registration the dead incarnation still
// has in flight is rejected instead of committing an offset the
// successor's replay assumed stable. It returns as soon as the successor is
// consuming; the next query waits for its catch-up.
func (c *Cluster) KillIndexServer(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	return c.takeover(i)
}
