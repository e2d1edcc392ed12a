// Package cluster wires Waterwheel's components — dispatchers, indexing
// servers, query servers, the metadata server, the query coordinator, the
// WAL and the simulated distributed file system — into a running system
// (paper Figure 3). It plays the role Apache Storm played in the paper's
// prototype: operator placement, data routing, and lifecycle.
//
// The cluster simulates N nodes inside one process. Per node it runs the
// paper's §VI deployment: 2 indexing servers, 4 query servers and 2
// dispatchers, with a DFS datanode co-located on every node. Tuples flow
// dispatcher → WAL partition → indexing server → (flush) → DFS chunk;
// queries flow coordinator → indexing/query servers → merge.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/dispatcher"
	"waterwheel/internal/durable"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// Config configures a cluster.
type Config struct {
	// Nodes is the simulated node count (default 1).
	Nodes int
	// IndexServersPerNode, QueryServersPerNode, DispatchersPerNode mirror
	// the paper's per-node deployment (defaults 2, 4, 2).
	IndexServersPerNode int
	QueryServersPerNode int
	DispatchersPerNode  int
	// ChunkBytes is the flush threshold (default 16 MB).
	ChunkBytes int64
	// CacheBytes is each query server's LRU budget (default 1 GB).
	CacheBytes int64
	// TemplateLeaves is the leaf count per in-memory tree (default 256).
	TemplateLeaves int
	// SideThresholdMillis routes very-late tuples to the side store
	// (default 60 000 ms; negative disables).
	SideThresholdMillis int64
	// Replication is the DFS replica count (default 3).
	Replication int
	// DFSLatency models chunk I/O costs; the zero value charges nothing.
	DFSLatency dfs.LatencyModel
	// Policy names the subquery dispatch policy (default "lada").
	Policy string
	// BalanceIntervalMillis is the key balancer's cadence; 0 disables the
	// background loop (use TickBalance for manual control).
	BalanceIntervalMillis int64
	// QueryWorkers is each query server's subquery parallelism — how many
	// dispatch-pool goroutines the coordinator runs against it (0 =
	// default 4; 1 restores serial per-server dispatch).
	QueryWorkers int
	// QueryInflightReads bounds each query server's concurrent DFS reads
	// (0 = default 4; 1 serializes chunk I/O).
	QueryInflightReads int
	// NoTemplateReuse rebuilds templates at every flush (ablation).
	NoTemplateReuse bool
	// FlushQueueDepth bounds each indexing server's async flush pipeline:
	// at most this many swapped-out memtable snapshots may await
	// persistence before inserts crossing the threshold block (default 2).
	FlushQueueDepth int
	// Build tunes chunk construction: Build.DisableBloom builds chunks
	// without leaf time sketches, the one switch for sketch pruning.
	Build chunk.BuildOptions
	// Seed drives DFS placement and samplers.
	Seed int64
	// Telemetry is the metric registry every component reports into; nil
	// gives the cluster a fresh one. Set it to read one registry across a
	// reopen.
	Telemetry *telemetry.Registry
	// DataDir, when non-empty, makes the deployment durable: chunks back
	// onto DataDir/dfs, the WAL onto DataDir/wal, and the metadata server
	// journals every edit to DataDir/meta.wal, durable before anyone acts on
	// it. A cluster opened over an existing DataDir replays the journal and
	// each indexing server's WAL tail from its recorded offset (§V).
	DataDir string
	// Files performs every create, write of a new file, fsync, rename and
	// unlink under DataDir (nil: the plain OS) — the seam a test watches a
	// flush commit's order through, fails one of its steps at, or crashes the
	// host through (HardCrash needs it).
	Files *durable.Files
	// Durability selects when inserts are acknowledged relative to WAL
	// fsync in DataDir mode: "" or "ack-on-write" (ack once the record is
	// in the OS page cache — fastest, but a host crash can drop acked
	// tuples), "ack-on-fsync" (group commit: Insert returns only after a
	// batched fsync covers the record), or "interval" (background fsync
	// every FsyncIntervalMillis, bounding the loss window). Policies other
	// than ack-on-write require DataDir.
	Durability string
	// FsyncIntervalMillis is the background fsync cadence for the
	// "interval" durability policy (default 50).
	FsyncIntervalMillis int64
}

// traceRingSize bounds the ring of retained query traces.
const traceRingSize = 16

func (c *Config) fill() {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.IndexServersPerNode <= 0 {
		c.IndexServersPerNode = 2
	}
	if c.QueryServersPerNode <= 0 {
		c.QueryServersPerNode = 4
	}
	if c.DispatchersPerNode <= 0 {
		c.DispatchersPerNode = 2
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 16 << 20
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 1 << 30
	}
	if c.TemplateLeaves <= 0 {
		c.TemplateLeaves = 256
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
}

// Cluster is a running Waterwheel deployment.
type Cluster struct {
	cfg Config

	fs    *dfs.FS
	ms    *meta.Server
	log   *wal.Log
	disp  []*dispatcher.Dispatcher
	qsrv  []*queryexec.Server
	coord *queryexec.Coordinator
	bal   *dispatcher.Balancer
	ret   *retirer

	// elasticMu serializes topology operations (add, decommission, kill,
	// rebalance) against each other; the data path never takes it.
	elasticMu sync.Mutex

	// slots is the slot table (lifecycle.go): slots[i] is everything the
	// deployment runs for slot i <-> WAL partition i. It grows as elastic
	// scale-out adds slots and never shrinks. carried holds the counts of
	// the incarnations that have left it. Lock order is elasticMu → slotMu,
	// and slotMu is a leaf: copy out what is needed and call nothing that
	// can block while it is held.
	slotMu  sync.RWMutex
	slots   []slot
	carried Totals

	// Telemetry plumbing.
	reg            *telemetry.Registry
	traces         *telemetry.TraceRing
	ingestMetrics  ingest.Metrics
	walAppends     *telemetry.Counter
	walAppendCalls *telemetry.Counter
	repartitions   *telemetry.Counter
	insertBatches  *telemetry.Counter
	// batchRecords observes each InsertBatch's size. It reuses the
	// duration histogram the way wal_fsync_batch_records does: sizes are
	// recorded as whole "seconds" so second-valued quantiles read directly
	// as record counts.
	batchRecords *telemetry.Histogram
	// Handoff instrumentation: handoffs counts ownership flips (takeovers
	// and decommissions); handoffLag observes the records the successor
	// replays, committed offset to partition head at the flip
	// (records-as-seconds, like batchRecords); handoffPause observes the
	// ingest-visible pause — consumer detach to successor consuming.
	handoffs     *telemetry.Counter
	handoffLag   *telemetry.Histogram
	handoffPause *telemetry.Histogram

	// orphansSwept is how many unregistered DFS files Open deleted.
	orphansSwept int64

	rr   atomic.Uint64 // round-robin dispatcher pick for Insert
	stop chan struct{}
	// takeovers counts completed ownership flips: waitApplied parks here
	// until a deposed incarnation's successor is in the slot table.
	takeovers wal.Watermark
	wg        sync.WaitGroup
	started   atomic.Bool
	stopped   atomic.Bool
}

// ErrClosed is returned by inserts, queries, Drain and the catch-up waits on
// a stopped cluster.
var ErrClosed = errors.New("waterwheel: closed")

// ErrBusy is returned by a query, Drain or FlushAll that waits on a slot
// stalled behind a failed chunk write (ingest.ErrBusy).
var ErrBusy = ingest.ErrBusy

// New builds a cluster, panicking on persistence errors; use Open to
// handle them. Call Start before inserting.
func New(cfg Config) *Cluster {
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Open builds a cluster; call Start before inserting. With Config.DataDir
// set, previous on-disk state is restored.
func Open(cfg Config) (*Cluster, error) {
	cfg.fill()
	durPolicy, err := wal.ParseDurability(cfg.Durability)
	if err != nil {
		return nil, err
	}
	if durPolicy != wal.DurabilityAckOnWrite && cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: Durability=%q requires DataDir (an in-memory WAL has no fsync)", cfg.Durability)
	}
	nIdx := cfg.Nodes * cfg.IndexServersPerNode

	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	fsCfg := dfs.Config{
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		Latency:     cfg.DFSLatency,
		Seed:        cfg.Seed,
		Files:       cfg.Files,
	}
	var (
		ms  *meta.Server
		log *wal.Log
	)
	if cfg.DataDir != "" {
		fsCfg.Dir = filepath.Join(cfg.DataDir, "dfs")
		// Replay the metadata BEFORE opening the log: elastic scale-out may
		// have grown the slot count past the configured nIdx in a previous
		// incarnation, and slot i <-> partition i means the log must open
		// with one partition per registry slot, retired ones included.
		if ms, err = openMeta(&cfg, nIdx); err != nil {
			return nil, err
		}
		nTotal := max(nIdx, ms.Schema().Servers)
		// Claim every slot, retired ones included, the way a crash
		// replacement does: chunk names carry the slot's ownership epoch, and
		// whatever the previous process wrote under the replayed one, and
		// never registered, the orphan sweep below deletes first. The claim is
		// durable before anything runs under it.
		if err := ms.ClaimSlots(); err != nil {
			ms.Close()
			return nil, fmt.Errorf("cluster: claim slots: %w", err)
		}
		walCfg := wal.Config{
			Durability: durPolicy,
			Interval:   time.Duration(cfg.FsyncIntervalMillis) * time.Millisecond,
			Files:      cfg.Files,
			Metrics: wal.Metrics{
				FsyncBatch: reg.Histogram("waterwheel_wal_fsync_batch_records",
					"records made durable per WAL group-commit fsync (unit: records, not seconds)"),
				CommitNanos: reg.Histogram("waterwheel_wal_commit_seconds",
					"WAL group-commit fsync latency"),
				Waiters: reg.Gauge("waterwheel_wal_commit_waiters",
					"inserters parked waiting for a WAL fsync cohort"),
				Fsyncs: reg.Counter("waterwheel_wal_fsyncs_total",
					"WAL segment fsyncs issued by the durability pipeline"),
			},
		}
		// Replay starts at the restored flush offsets; nothing below them
		// needs to come back onto the heap.
		log, err = wal.OpenLogDirConfig(filepath.Join(cfg.DataDir, "wal"), nTotal, walCfg, ms.Offset)
		if err != nil {
			ms.Close()
			return nil, err
		}
	} else {
		ms = meta.NewServer(nIdx)
		log = wal.NewLog(nIdx)
	}
	var swept int64
	fs, err := dfs.Open(fsCfg)
	if err == nil {
		// Now, with nothing in flight (and nothing to do without a DataDir).
		swept, err = sweepOrphans(fs, ms)
	}
	if err != nil {
		log.Close()
		closeSegments(log)
		ms.Close()
		return nil, err
	}
	c := &Cluster{
		cfg:          cfg,
		fs:           fs,
		ms:           ms,
		log:          log,
		bal:          dispatcher.NewBalancer(),
		reg:          reg,
		traces:       telemetry.NewTraceRing(traceRingSize),
		orphansSwept: swept,
		stop:         make(chan struct{}),
	}
	c.registerHandles()
	c.coord = queryexec.NewCoordinator(queryexec.CoordinatorConfig{
		Policy:  queryexec.PolicyByName(cfg.Policy),
		Metrics: queryexec.NewCoordinatorMetrics(reg),
		Traces:  c.traces,
		// The coordinator reads the slot table once per plan and asks each
		// serving server for its bounds: a successor serves queries the
		// instant it is installed, a retired slot nobody. (An untyped nil —
		// a nil *ingest.Server in the interface would pass the coordinator's
		// nil check and panic in the call.)
		MemExecutors: func() []queryexec.MemExecutor {
			srvs := c.servers()
			out := make([]queryexec.MemExecutor, len(srvs))
			for i, srv := range srvs {
				if srv != nil {
					out[i] = srv
				}
			}
			return out
		},
		// Every plan waits until each slot has applied what its log held
		// when the plan began: a query is the insert→query barrier.
		CatchUp: c.waitHeads,
	}, c.ms, c.fs)

	schema := c.ms.Schema()
	nTotal := nIdx
	if schema.Servers > nTotal {
		nTotal = schema.Servers
	}
	c.slots = make([]slot, nTotal)
	for i := range c.slots {
		if !schema.Active(i) {
			// Retired (or never-provisioned) slot: it keeps its WAL
			// partition and chunk history but runs no server.
			c.slots[i].retired = true
			continue
		}
		c.slots[i].srv = c.newIndexServer(i, schema.IntervalOf(i), ms.Epoch(i))
	}
	qsMetrics := queryexec.NewServerMetrics(reg)
	for n := 0; n < cfg.Nodes; n++ {
		for j := 0; j < cfg.QueryServersPerNode; j++ {
			qs := queryexec.NewServer(queryexec.ServerConfig{
				ID:            n*cfg.QueryServersPerNode + j,
				Node:          n,
				CacheBytes:    cfg.CacheBytes,
				Workers:       cfg.QueryWorkers,
				InflightReads: cfg.QueryInflightReads,
				Metrics:       qsMetrics,
			}, c.fs, c.ms)
			c.qsrv = append(c.qsrv, qs)
			c.coord.AddQueryServer(qs)
		}
	}
	c.ret = newRetirer(c)
	nDisp := cfg.Nodes * cfg.DispatchersPerNode
	for i := 0; i < nDisp; i++ {
		c.disp = append(c.disp, dispatcher.New(schema, walSink{c: c}, dispatcher.SamplerConfig{Seed: cfg.Seed + int64(i)}))
	}
	c.registerFuncMetrics()
	return c, nil
}

// walSink is the dispatcher sink: routed tuples are appended to the
// target server's partition; the ack follows the log.
//
// Elastic scale-out makes routing decisions revocable: a dispatcher may
// have picked a server under a schema that a concurrent decommission has
// since replaced. The sink closes that window in two layers — a retired
// mask consulted before appending, and the partition seal that
// decommission sets after the mask, so even an append already past the
// mask check fails with ErrSealed instead of landing in a log nobody
// replays. Either way the tuples reroute through the current schema and
// the producer's ack still means "in a live partition".
type walSink struct {
	c *Cluster
	// hop counts the reroutes that led to this sink value; the dispatchers
	// hold hop 0.
	hop int
}

// rerouteHops bounds reroute retries; each hop needs a concurrent
// decommission of the freshly chosen target to continue the chain.
const rerouteHops = 16

// SendGroups persists each group with one AppendBatch's worth of work —
// the group's records handed to the log as they are, which copies them
// once into a buffer of its own, one partition lock, one segment write —
// and appends EVERY group before it waits on ANY (wal.StartAppend, then
// wal.AwaitDurable): under ack-on-fsync the partitions' group commits run
// side by side and the batch parks once per server with the waits
// overlapping, so its ack latency is the slowest server's cohort, not the
// sum over servers, with no goroutine per group.
//
// The append is all-or-nothing per group and the groups are independent
// failure domains: a group the log did NOT take (stop-the-line) rejects
// exactly its own positions, the others are acked.
//
// When a decommission invalidated the routing — the slot is retired or its
// partition sealed — the group re-resolves against the current schema (it
// may now span several servers) and re-enters the same scatter one hop
// deeper, after the straight appends are in their segments; what the deeper
// hop rejects is mapped back through the group's positions.
func (s walSink) SendGroups(groups []dispatcher.Group) (rejected []int, err error) {
	type inFlight struct {
		g   *dispatcher.Group
		p   *wal.Partition
		end int64
	}
	var (
		flightBuf [4]inFlight
		flights   = flightBuf[:0]
		reroute   []*dispatcher.Group
		errs      []error
	)
	reject := func(g *dispatcher.Group, err error) {
		rejected = g.AppendPositions(rejected, 0)
		errs = append(errs, err)
	}
	for gi := range groups {
		g := &groups[gi]
		if s.c.isRetired(g.Server) {
			reroute = append(reroute, g)
			continue
		}
		p := s.c.log.Partition(g.Server)
		s.c.walAppendCalls.Inc()
		end, err := p.StartAppend(g.Records)
		switch {
		case err == nil:
			flights = append(flights, inFlight{g, p, end})
		case errors.Is(err, wal.ErrSealed):
			reroute = append(reroute, g)
		case errors.Is(err, wal.ErrClosed):
			reject(g, ErrClosed)
		default:
			reject(g, fmt.Errorf("cluster: wal append (server %d): %w", g.Server, err))
		}
	}
	for _, g := range reroute {
		if s.hop >= rerouteHops {
			reject(g, fmt.Errorf("cluster: wal append: no active slot for key %d after %d reroutes", model.RecordKey(g.Records[0]), s.hop))
			continue
		}
		rej, err := dispatcher.SendGrouped(s.c.ms.Schema(), walSink{s.c, s.hop + 1}, g.Records)
		for _, i := range rej {
			rejected = append(rejected, g.At(i))
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	for _, f := range flights {
		if err := f.p.AwaitDurable(f.end); err != nil {
			reject(f.g, fmt.Errorf("cluster: wal append (server %d): %w", f.g.Server, err))
			continue
		}
		s.c.walAppends.Add(int64(len(f.g.Records)))
	}
	return rejected, errors.Join(errs...)
}

// Insert routes one tuple through a dispatcher (round-robin across the
// configured dispatchers, as multiple ingestion clients would). A nil
// return is the ack: the tuple is in the log (under "ack-on-fsync", on
// stable storage). A non-nil error means the tuple was NOT accepted.
func (c *Cluster) Insert(t model.Tuple) error {
	return c.disp[int(c.rr.Add(1))%len(c.disp)].Dispatch(t)
}

// InsertBatch routes a whole batch through one dispatcher as a unit:
// one schema pass, then one WAL append per server the batch routes to,
// every append issued before any durability wait (one fsync cohort per
// server, side by side, under ack-on-fsync). Each server's share is
// accepted or rejected as a whole, independently of the others. Returns the
// positions of the tuples that were NOT accepted, ascending — ts[i] is
// acked iff i is not among them — and their joined causes; err is nil iff
// nothing was rejected. Arrival order per key is preserved.
func (c *Cluster) InsertBatch(ts []model.Tuple) (rejected []int, err error) {
	if len(ts) == 0 {
		return nil, nil
	}
	return c.batchDispatcher(len(ts)).DispatchBatch(ts)
}

// InsertEncoded is InsertBatch for a batch already in wire encoding — n
// whole records back to back, as model.CountTuples counts them — which is
// routed and appended as it is, never decoded.
func (c *Cluster) InsertEncoded(buf []byte, n int) (rejected []int, err error) {
	if n == 0 {
		return nil, nil
	}
	return c.batchDispatcher(n).DispatchEncoded(buf)
}

// batchDispatcher counts a batch of n tuples and picks its dispatcher.
func (c *Cluster) batchDispatcher(n int) *dispatcher.Dispatcher {
	c.insertBatches.Inc()
	c.batchRecords.Observe(time.Duration(n) * time.Second)
	return c.disp[int(c.rr.Add(1))%len(c.disp)]
}

// Query executes a temporal range query and returns the merged result.
func (c *Cluster) Query(q model.Query) (*model.Result, error) {
	return c.coord.Execute(q)
}

// Aggregate executes an aggregate query (COUNT/MIN/MAX/SUM over a key
// range × time range) with aggregation pushdown: fully covered chunks and
// leaves are answered from metadata and header pre-aggregates without
// touching leaf bodies.
func (c *Cluster) Aggregate(q model.AggregateQuery) (*model.AggResult, error) {
	return c.coord.ExecuteAggregate(q)
}

// Drain blocks until every tuple acked before the call is applied to its
// indexing server's memtable and every flush those tuples triggered has been
// attempted, so the WAL holds in memory only what a replay would read. A
// query needs none of it: every plan makes the first half of this wait
// itself (waitHeads). It is the settling step of Close, of the chaos runner's
// barriers and of tests. Each head is read once: the wait does not chase a
// writer that keeps going. Consumed advances only after a batch is in the
// trees, which makes waiting for it a barrier rather than a hint; a slot
// taken over mid-wait is waited for on its successor. A non-nil error says
// the wait cannot end: the error a slot's consumer died of (a replay gap, an
// undecodable record — the slot's inserts are still acked from the log, and
// applied by nobody until it is taken over), ErrBusy (a consumer held behind
// a failed chunk write), the error a flusher died of because no retry could
// mend it, or ErrClosed.
func (c *Cluster) Drain() error {
	if c.stopped.Load() {
		return ErrClosed
	}
	if err := c.waitHeads(); err != nil {
		return err
	}
	// Applied is not persisted: wait out the flush pipelines too ("insert,
	// Drain, crash" stays deterministic). A unit is done once its commit is
	// durable and the log cut behind it.
	for _, srv := range c.servers() {
		if srv != nil {
			if err := srv.DrainFlushes(); err != nil {
				return err
			}
		}
	}
	// A quiet moment: whatever retired files were gated on queries that
	// have since completed can go now.
	c.ret.sweep()
	return nil
}

// waitHeads blocks until every slot has applied its log up to the head as
// read now, or says why it cannot (see waitApplied): every query's wait
// before it plans (the coordinator's CatchUp), and the first half of Drain
// and FlushAll. It covers every serving slot, not only those whose nominal
// interval meets a query: a tuple routed under an older schema can sit
// unapplied in a slot that no longer owns its key. A slot that has caught up
// costs two atomic loads, and the walk allocates nothing.
func (c *Cluster) waitHeads() error {
	for i := 0; i < c.log.Partitions(); i++ {
		if err := c.waitApplied(i, c.log.Partition(i).Next()); err != nil {
			return err
		}
	}
	return nil
}

// waitApplied blocks until slot's current incarnation has applied every
// record below head: the one catch-up wait. Unless the slot has, it demands
// head of the partition, which ends the consumer's batching window at once.
// An incarnation deposed mid-wait fails with ErrStopped before its successor
// is in the slot table: park on the takeover count, resolve again. A retired
// slot's final flush was it. A consumer stalled behind a failed chunk write
// answers ingest.ErrBusy.
func (c *Cluster) waitApplied(slot int, head int64) error {
	for {
		flips := c.takeovers.Load()
		srv := c.server(slot)
		if srv == nil || srv.Consumed() >= head {
			return nil
		}
		c.log.Partition(slot).Demand(head)
		err := srv.WaitApplied(head)
		switch {
		case err == nil:
			return nil
		case c.stopped.Load():
			return ErrClosed
		case !errors.Is(err, ingest.ErrStopped):
			return err
		}
		if c.takeovers.Wait(flips+1, c.stop) != nil {
			return ErrClosed
		}
	}
}

// FlushAll forces every indexing server to flush its memtables: an
// explicit flush is a durability point — when it returns nil, everything
// acked before the call is in chunks on stable storage, the metadata naming
// them is too, and the log holds only what arrived since. Inserts are acked
// from the log ahead of the consumers, so it first waits, as a query does,
// until each slot has applied its log's head; a consumer's error or ErrBusy
// ends it there, as it ends a query. Otherwise the error is a flusher's that no retry
// can mend; on a stopped cluster it is ErrClosed.
func (c *Cluster) FlushAll() error {
	if c.stopped.Load() {
		return ErrClosed
	}
	if err := c.waitHeads(); err != nil {
		return err
	}
	var errs []error
	for _, srv := range c.servers() {
		if srv != nil {
			errs = append(errs, srv.FlushAll())
		}
	}
	return errors.Join(errs...)
}

// DropChunksBefore removes every chunk whose temporal region ends before
// the horizon — stream-store retention. The chunks leave the metadata
// registry first, in one edit (no new subqueries can target them); their
// cached bytes are evicted from every query server and the file deletes are
// deferred until queries planned before the drop have drained, so a
// concurrent query never trips over a half-retired chunk. Returns the
// number of chunks dropped. The drops are durable before any file is
// queued, so a crash at any step leaves a registry that names only files
// still on the DFS.
func (c *Cluster) DropChunksBefore(horizon model.Timestamp) int {
	dropped := c.ms.DropChunksBefore(horizon)
	c.ret.retire(dropped)
	return len(dropped)
}

// OrphansSwept reports how many DFS files Open deleted because the restored
// metadata does not name them.
func (c *Cluster) OrphansSwept() int64 { return c.orphansSwept }

// Recovered reports how many WAL records indexing servers replayed on start
// — what the restart and every crash since cost in replay.
func (c *Cluster) Recovered() int64 { return c.Totals().Recovered }

// Accessors used by experiments, examples and the public API.

// Metadata returns the metadata server.
func (c *Cluster) Metadata() *meta.Server { return c.ms }

// FS returns the distributed file system.
func (c *Cluster) FS() *dfs.FS { return c.fs }

// Coordinator returns the query coordinator.
func (c *Cluster) Coordinator() *queryexec.Coordinator { return c.coord }

// IndexServers returns a snapshot of the slot table. The index IS the
// slot id, so retired slots appear as nil entries — callers iterating
// must skip them.
func (c *Cluster) IndexServers() []*ingest.Server { return c.servers() }

// ActiveSlots returns the slot ids that currently run an indexing server.
func (c *Cluster) ActiveSlots() []int {
	return fold(c, []int{}, func(ids []int, i int, _ *ingest.Server) []int { return append(ids, i) })
}

// QueryServers returns the query servers.
func (c *Cluster) QueryServers() []*queryexec.Server { return c.qsrv }

// Dispatchers returns the dispatchers.
func (c *Cluster) Dispatchers() []*dispatcher.Dispatcher { return c.disp }

// WAL returns the write-ahead log.
func (c *Cluster) WAL() *wal.Log { return c.log }

// Telemetry returns the metric registry.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.reg }

// TraceRing returns the traces of the last traced queries.
func (c *Cluster) TraceRing() *telemetry.TraceRing { return c.traces }

// Ingested returns the total tuples accepted by the indexing servers.
func (c *Cluster) Ingested() int64 { return c.Totals().Ingested }

// MemLen returns the total buffered (unflushed) tuples.
func (c *Cluster) MemLen() int {
	return fold(c, 0, func(n, _ int, srv *ingest.Server) int { return n + srv.MemLen() })
}

// MemBytes returns the memtable footprint (trees, side stores and snapshots
// not yet registered as chunks).
func (c *Cluster) MemBytes() int64 {
	return fold(c, int64(0), func(n int64, _ int, srv *ingest.Server) int64 { return n + srv.MemBytes() })
}
