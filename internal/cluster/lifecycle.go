// The slot table and everything that changes it: consumers, standbys,
// takeover, the schema fan-out and the elastic verbs.
//
// The paper's unit of deployment is one thing — a key interval owned by one
// indexing server that consumes one log partition (§III-A, §III-D, §V) — and
// the table has one row for it. Every lifecycle edge is a write of one row
// under slotMu; every reader (the WAL sink, the coordinator, Drain, the
// gauges) copies what it needs out under the read lock and works on the copy.

package cluster

import (
	"fmt"
	"time"

	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/transport"
	"waterwheel/internal/wal"
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
	// standby is the slot's hot standby (HotStandby mode or StartStandby),
	// nil when it has none: startStandbyLocked sets it, whoever takes it
	// (takeover, decommission, stopIngest) owns shutting it down.
	standby *standbyHandle
	// stopConsumer stops the running consumer goroutine when closed, so one
	// consumer can be "crashed" without stopping the cluster; nil when none
	// runs. Written by detachConsumer only.
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

// standbyHandle pairs a hot standby with the resources backing its tail.
type standbyHandle struct {
	sb        *ingest.Standby
	closeTail func() // releases a WAL-shipping client; nil for local tails
}

// release closes a shipped tail's client — BEFORE the standby is halted:
// that is what ends a wal.read parked on the server ahead of its bound.
func (h *standbyHandle) release() {
	if h.closeTail != nil {
		h.closeTail()
		h.closeTail = nil
	}
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

// standby returns slot i's standby handle, nil if it has none.
func (c *Cluster) standby(i int) *standbyHandle { return c.slotAt(i).standby }

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

// install makes srv slot i's serving incarnation (nil: nobody serves it any
// more) and carries the outgoing one's counts over, in one write section.
// The caller has stopped the outgoing incarnation (Abort, Close): but for a
// batch its detached consumer may still be applying, its counts are final.
func (c *Cluster) install(i int, srv *ingest.Server) {
	c.slotMu.Lock()
	if old := c.slots[i].srv; old != nil {
		c.carried.count(old)
	}
	c.slots[i].srv = srv
	c.slotMu.Unlock()
}

// installSchema is the one schema fan-out: every serving incarnation and
// every standby of a slot the schema holds learns its nominal interval, then
// every dispatcher the schema — dispatchers last, so no tuple is routed by
// newSchema to a server that has not heard of it. The order among servers is
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
		if row.standby != nil {
			row.standby.sb.SetKeys(newSchema.IntervalOf(i))
		}
	}
	for _, d := range c.disp {
		d.UpdateSchema(newSchema)
	}
}

// newIndexServer builds indexing server i from the cluster config — the
// single source of per-server settings, shared by Open, crash recovery,
// elastic scale-out and standby shadows so a replacement server never
// silently diverges from the original. epoch is the ownership epoch the
// incarnation registers flushes under; passive builds a standby shadow
// that neither flushes nor reports a live region until promoted.
func (c *Cluster) newIndexServer(i int, keys model.KeyRange, epoch int64, passive bool) *ingest.Server {
	// Added servers can outnumber the configured nodes; wrap the DFS
	// placement preference instead of pointing past the last node.
	node := (i / c.cfg.IndexServersPerNode) % c.cfg.Nodes
	// SyncWAL: flush-offset commits must not run ahead of the WAL fsync
	// watermark (consumers index straight from memory, possibly before any
	// fsync), so the flusher syncs its unit's offset into the log before
	// registering chunks and committing. ReleaseWAL: once it has committed,
	// the partition drops its resident copy of what no replay will read, the
	// slot's standby, possibly parked, looks at the commit (reset rule), and
	// the checkpointer counts it.
	return ingest.NewServer(ingest.Config{
		ID:                  i,
		Keys:                keys,
		ChunkBytes:          c.cfg.ChunkBytes,
		Leaves:              c.cfg.TemplateLeaves,
		SideThresholdMillis: c.cfg.SideThresholdMillis,
		Bloom:               c.cfg.Bloom,
		NoTemplateReuse:     c.cfg.NoTemplateReuse,
		FlushQueueDepth:     c.cfg.FlushQueueDepth,
		FlushFailHook:       c.cfg.FlushFailHook,
		SyncWAL:             c.log.Partition(i).SyncTo,
		ReleaseWAL: func(committed int64) {
			c.log.Partition(i).Release(c.replayFloor(i, committed))
			if h := c.standby(i); h != nil {
				h.sb.Wake()
			}
			c.commits.Add(1)
		},
		Metrics: c.ingestMetrics,
		Epoch:   epoch,
		Passive: passive,
	}, c.fs, c.ms, node)
}

// TickBalance runs one adaptive-partitioning round: rotate the dispatcher
// samplers' windows, pool their samples, and — if the estimated load of
// any indexing server deviates beyond the threshold — install a new key
// partitioning (paper §III-D). Returns whether a repartition happened.
func (c *Cluster) TickBalance() bool {
	if c.cfg.DisableAdaptive {
		return false
	}
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

// detachConsumer stops slot i's consumer, if one runs, and returns the stop
// channel its successor is to run under — already closed, and not recorded,
// when there is no successor because stopIngest has been (or is) here.
func (c *Cluster) detachConsumer(i int) chan struct{} {
	c.slotMu.Lock()
	defer c.slotMu.Unlock()
	if cs := c.slots[i].stopConsumer; cs != nil {
		close(cs)
	}
	cs := make(chan struct{})
	c.slots[i].stopConsumer = cs
	if c.stopped.Load() {
		close(cs)
		c.slots[i].stopConsumer = nil
	}
	return cs
}

// runConsumer starts slot i's WAL consumption goroutine. Consume keeps its
// own error: it fails the applied watermark with it, and Drain reports it.
func (c *Cluster) runConsumer(i int, srv *ingest.Server, cs chan struct{}) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Consume(c.log.Partition(i), cs)
	}()
}

// takeStandby removes and returns slot i's standby handle, nil if none.
func (c *Cluster) takeStandby(i int) *standbyHandle {
	c.slotMu.Lock()
	defer c.slotMu.Unlock()
	h := c.slots[i].standby
	c.slots[i].standby = nil
	return h
}

// shipTail opens a WAL-shipping tail for partition i through the lazily
// started loopback transport endpoint.
func (c *Cluster) shipTail(i int) (wal.Tail, func(), error) {
	c.shipMu.Lock()
	defer c.shipMu.Unlock()
	if c.shipSrv == nil {
		srv := transport.NewServer()
		wal.RegisterShipping(srv, c.log)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: wal shipping listen: %w", err)
		}
		c.shipSrv, c.shipAddr = srv, addr
	}
	cl, err := transport.Dial(c.shipAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: wal shipping dial: %w", err)
	}
	return wal.NewRemoteTail(cl, i), func() { cl.Close() }, nil
}

// StartStandby launches a hot standby for slot i: a passive shadow server
// tailing the slot's WAL partition (through the shipping transport when
// ShipStandbyWAL is set), ready to take over on PromoteStandby or a kill.
// One standby per slot — a slot that already has one is a
// no-op (idempotent for operator scripts and the HotStandby auto-attach).
func (c *Cluster) StartStandby(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	return c.startStandbyLocked(i)
}

func (c *Cluster) startStandbyLocked(i int) error {
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	if c.standby(i) != nil {
		return nil
	}
	var (
		tail      wal.Tail = c.log.Partition(i)
		closeTail func()
	)
	if c.cfg.ShipStandbyWAL {
		rt, release, err := c.shipTail(i)
		if err != nil {
			return err
		}
		tail, closeTail = rt, release
	}
	keys := c.ms.Schema().IntervalOf(i)
	sb := ingest.NewStandby(ingest.StandbyConfig{
		Slot:      i,
		NewServer: func() *ingest.Server { return c.newIndexServer(i, keys, 0, true) },
		ReplayOffset: c.reg.Gauge(fmt.Sprintf(`waterwheel_standby_replay_offset{slot="%d"}`, i),
			"next WAL offset the slot's hot standby will replay"),
	}, c.ms, tail)
	c.slotMu.Lock()
	c.slots[i].standby = &standbyHandle{sb: sb, closeTail: closeTail}
	c.slotMu.Unlock()
	sb.Start()
	return nil
}

// takeover flips slot i's ownership to a successor: the promoted standby
// shadow when h is non-nil, else a fresh server replaying the WAL from
// the committed offset. The flip is one metadata CAS (TransferOwnership
// bumps the fencing epoch, records the handoff offset and reads the
// nominal interval atomically), so a flush the deposed incarnation still
// has in flight fails with ErrFenced instead of committing chunks or
// offsets under the new owner. Ingest into the partition never pauses —
// the measured handoff pause is consumer detach to successor consuming.
func (c *Cluster) takeover(i int, h *standbyHandle) error {
	pauseStart := time.Now()
	cs := c.detachConsumer(i)
	old := c.server(i)
	handoffOff := c.ms.Offset(i)
	if h != nil {
		handoffOff = h.sb.Consumed()
	}
	lag := c.log.Partition(i).Next() - handoffOff
	if lag < 0 {
		lag = 0
	}
	epoch, kr, err := c.ms.TransferOwnership(i, handoffOff)
	if err != nil {
		return err
	}
	// Abort AFTER the fence: the old flusher exits on its next (rejected)
	// registration attempt, and Abort reaps it without letting in-flight
	// work move the metadata the successor starts from.
	if old != nil {
		old.Abort()
	}
	var repl *ingest.Server
	if h != nil {
		h.release()
		h.sb.Halt()
		repl = h.sb.Promote(epoch)
		repl.SetKeys(kr)
	} else {
		repl = c.newIndexServer(i, kr, epoch, false)
	}
	c.install(i, repl)
	c.runConsumer(i, repl, cs)
	c.takeovers.Add(1)
	c.handoffs.Inc()
	c.handoffLag.Observe(time.Duration(lag) * time.Second)
	c.handoffPause.Observe(time.Since(pauseStart))
	if c.cfg.HotStandby && !c.stopped.Load() {
		c.startStandbyLocked(i)
	}
	return nil
}

// PromoteStandby performs a planned region handoff: wait for slot i's
// standby to catch up within StandbyLagRecords of the partition head,
// then atomically transfer ownership to the promoted shadow. The old
// owner is fenced; ingest into the slot's partition continues throughout.
func (c *Cluster) PromoteStandby(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	// Catch-up gate: flip only once the shadow is near the head, bounding
	// the replay debt the new owner inherits.
	if err := c.AwaitStandby(i, c.stop); err != nil {
		return err
	}
	return c.takeover(i, c.takeStandby(i))
}

// AwaitStandby blocks until slot i's standby is within StandbyLagRecords of
// the partition head read at the call; it fails with the standby's replay
// error, or when cancel fires.
func (c *Cluster) AwaitStandby(i int, cancel <-chan struct{}) error {
	h := c.standby(i)
	if h == nil {
		return fmt.Errorf("cluster: slot %d has no standby", i)
	}
	target := c.log.Partition(i).Next() - int64(c.cfg.StandbyLagRecords)
	if err := h.sb.WaitReplayed(target, cancel); err != nil {
		return fmt.Errorf("cluster: standby catch-up (slot %d): %w", i, err)
	}
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
	// The slot and its partition are durable before a tuple is routed to
	// it: a hard crash must not restore a schema that has never heard of a
	// partition holding acked records.
	if err := c.Checkpoint(); err != nil {
		return 0, fmt.Errorf("cluster: add server: %w", err)
	}
	srv := c.newIndexServer(id, newSchema.IntervalOf(id), c.ms.Epoch(id), false)
	c.slotMu.Lock()
	c.slots = append(c.slots, slot{srv: srv})
	c.slotMu.Unlock()
	if c.started.Load() {
		c.runConsumer(id, srv, c.detachConsumer(id))
	}
	// The split slot's nominal interval narrowed; its actual interval
	// stays wide until its buffered tuples flush (§III-D), handled by the
	// metadata server. Only then do the dispatchers learn the new schema —
	// the new slot's consumer is already running, so no tuple ever waits.
	c.installSchema(newSchema)
	if c.cfg.HotStandby && c.started.Load() {
		c.startStandbyLocked(id)
	}
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
	// 3. The standby is moot: the final flush will empty the partition.
	if h := c.takeStandby(i); h != nil {
		h.release()
		h.sb.Close()
	}
	// 4. Drain the final head, then stop the consumer.
	head := p.Next()
	if err := c.waitApplied(i, head); err != nil {
		return fmt.Errorf("cluster: decommission (slot %d): %w", i, err)
	}
	c.detachConsumer(i)
	// 5. Final flush: every buffered tuple becomes a registered chunk, the
	// replay offset commits to the head, and the live region empties (the
	// coordinator stops planning mem-subqueries for the slot). A transient
	// DFS fault can park the flusher with the snapshot unregistered — and
	// DrainFlushes returns on a parked flusher — so keep re-driving the
	// flush until the committed offset provably covers the sealed head.
	// Each Flush re-signals a parked retry and waits for its outcome, so
	// this loop spins only as fast as DFS attempts fail.
	for c.ms.Offset(i) < head {
		if c.stopped.Load() {
			return fmt.Errorf("cluster: decommission (slot %d): %w", i, ErrClosed)
		}
		if err := srv.FlushAll(); err != nil {
			return fmt.Errorf("cluster: decommission (slot %d): %w", i, err)
		}
	}
	// 6. Fence forever: even a flusher goroutine that somehow survived
	// cannot register under the retired slot again.
	if _, _, err := c.ms.TransferOwnership(i, head); err != nil {
		return err
	}
	srv.Close()
	c.install(i, nil)
	c.handoffs.Inc()
	return nil
}

// KillIndexServer crashes indexing server i without waiting for recovery:
// the consumer goroutine detaches and ownership transfers atomically to a
// successor — the hot standby's warm shadow when one is running, else a
// fresh server replaying the WAL partition from the last committed
// offset. The transfer bumps the slot's fencing epoch BEFORE the
// successor starts, so a chunk registration the dead incarnation still
// has in flight is rejected instead of committing an offset the
// successor's replay assumed stable. It returns as soon as the successor is
// consuming; Drain waits for its catch-up.
func (c *Cluster) KillIndexServer(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	return c.takeover(i, c.takeStandby(i))
}
