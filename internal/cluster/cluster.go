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
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/compact"
	"waterwheel/internal/dfs"
	"waterwheel/internal/dispatcher"
	"waterwheel/internal/durable"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/transport"
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
	// AdaptivePartitioning enables the key balancer (default on; set
	// DisableAdaptive to turn off).
	DisableAdaptive bool
	// BalanceIntervalMillis is the balancer cadence; 0 disables the
	// background loop (use TickBalance for manual control).
	BalanceIntervalMillis int64
	// UseBloom enables leaf time-sketch pruning (default on; set
	// DisableBloom to turn off).
	DisableBloom bool
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
	// Bloom tunes chunk sketch construction.
	Bloom chunk.BuildOptions
	// Seed drives DFS placement and samplers.
	Seed int64
	// DFSFaultSeed seeds the DFS fault-injection RNG (chaos testing); kept
	// separate from Seed so injecting faults never perturbs placement.
	DFSFaultSeed int64
	// SleepFn replaces the real sleep for simulated DFS I/O time — a virtual
	// clock makes fault-injection runs deterministic and free of wall-clock
	// waits. Nil uses real sleeps.
	SleepFn func(time.Duration)
	// FlushFailHook is handed to every indexing server (including crash
	// replacements): consulted before each chunk DFS write, a non-nil error
	// fails the attempt. Chaos-testing injection surface.
	FlushFailHook func(server, seq int, attempt int32) error
	// Telemetry, when non-nil, is the metric registry every component
	// reports into; nil runs the cluster without instrumentation (the
	// hot paths then cost only nil checks).
	Telemetry *telemetry.Registry
	// DataDir, when non-empty, makes the deployment durable: chunks back
	// onto DataDir/dfs, the WAL onto DataDir/wal, and the metadata server
	// snapshots to DataDir/meta.snap (written by every checkpoint: see
	// Checkpoint). A cluster opened over an existing DataDir restores the
	// previous state and replays each indexing server's WAL tail from its
	// recorded offset (§V).
	DataDir string
	// Files performs the fsyncs, renames and unlinks of the durable files
	// (nil: the plain OS) — the seam a test watches a checkpoint's order
	// through, or fails one of its steps at.
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
	// HotStandby keeps a WAL-tailing standby shadow per active indexing
	// server: a kill becomes a takeover instead of a
	// replay-from-offset, and PromoteStandby performs a planned handoff.
	// After every takeover or promotion a fresh standby is started for the
	// new owner automatically.
	HotStandby bool
	// StandbyLagRecords is the catch-up threshold of a planned handoff:
	// PromoteStandby waits until the standby's replay position is within
	// this many records of the partition head before flipping ownership
	// (default 64).
	StandbyLagRecords int
	// ShipStandbyWAL tails standbys through the WAL-shipping transport (a
	// loopback RPC server) instead of in-process partition reads —
	// exercising the exact path a standby on another host would use.
	ShipStandbyWAL bool
	// TierWarmAfterMillis / TierColdAfterMillis age chunks through the
	// retention tiers: a chunk whose max time lags the newest registered
	// data by WarmAfter is demoted to warm, by ColdAfter to cold. Cold
	// chunks are compaction candidates (merged into downsampled chunks).
	// Both zero disables tiering entirely — TickCompact is then a no-op.
	TierWarmAfterMillis int64
	TierColdAfterMillis int64
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
	if c.StandbyLagRecords <= 0 {
		c.StandbyLagRecords = 64
	}
	c.Bloom.DisableBloom = c.Bloom.DisableBloom || c.DisableBloom
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
	comp  *compact.Compactor
	ret   *retirer

	// idx[i] is slot i's indexing server — nil once the slot is retired.
	// retired[i] flips (permanently) when slot i is decommissioned; the WAL
	// sink consults it to reroute stragglers dispatched under a pre-removal
	// schema. Both grow under idxMu as elastic scale-out adds slots.
	idxMu   sync.RWMutex
	idx     []*ingest.Server
	retired []bool

	// elasticMu serializes topology operations (add, decommission, kill,
	// promote, rebalance) against each other; the data path never takes it.
	elasticMu sync.Mutex

	// standbys maps slot -> its hot standby (HotStandby mode or explicit
	// StartStandby). closeTail releases a shipping client, when one exists.
	standbyMu sync.Mutex
	standbys  map[int]*standbyHandle

	// shipSrv is the lazily started loopback WAL-shipping endpoint used
	// when ShipStandbyWAL routes standby tails through the transport.
	shipMu   sync.Mutex
	shipSrv  *transport.Server
	shipAddr string

	// Telemetry plumbing; all handles are nil-safe no-ops when
	// Config.Telemetry is unset.
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
	// Handoff instrumentation: handoffs counts ownership flips (planned
	// promotions and standby takeovers); handoffLag observes the standby's
	// replay lag behind the partition head at the flip (records-as-seconds,
	// like batchRecords); handoffPause observes the ingest-visible pause —
	// ownership fence to new-owner consumer running.
	handoffs     *telemetry.Counter
	handoffLag   *telemetry.Histogram
	handoffPause *telemetry.Histogram

	// ckptMu makes checkpoints take turns; commits counts flush commits
	// cluster-wide, and the checkpointer parks on it (see Checkpoint).
	// ckptStarted numbers the checkpoints as they begin, and ckptDurable is
	// the number of the last one that completed: what was dropped from
	// metadata before checkpoint n began is absent from every snapshot once
	// ckptDurable >= n (the retirer's rule for unlinking a chunk file).
	ckptMu      sync.Mutex
	commits     wal.Watermark
	ckptStarted atomic.Int64
	ckptDurable atomic.Int64
	ckptAuto    atomic.Int64 // how many the checkpointer took by itself
	checkpoints *telemetry.Counter
	ckptNanos   *telemetry.Histogram
	// orphansSwept is how many unregistered DFS files Open deleted.
	orphansSwept int64

	rr   atomic.Uint64 // round-robin dispatcher pick for Insert
	stop chan struct{}
	// consStop holds one stop channel per indexing-server consumer so a
	// single consumer can be "crashed" without stopping the cluster.
	consMu   sync.Mutex
	consStop []chan struct{}
	// takeovers counts completed ownership flips: waitApplied parks here
	// until a deposed incarnation's successor is in the slot table.
	takeovers wal.Watermark
	wg        sync.WaitGroup
	started   atomic.Bool
	stopped   atomic.Bool
}

// ErrClosed is returned by Drain and the catch-up waits on a stopped cluster.
var ErrClosed = errors.New("waterwheel: closed")

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
	fsCfg := dfs.Config{
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		Latency:     cfg.DFSLatency,
		Seed:        cfg.Seed,
		FaultSeed:   cfg.DFSFaultSeed,
		Sleep:       cfg.SleepFn,
		Files:       cfg.Files,
	}
	if reg != nil {
		localReads := reg.Histogram(`waterwheel_dfs_read_seconds{locality="local"}`,
			"DFS read latency (modeled I/O cost) by replica locality")
		remoteReads := reg.Histogram(`waterwheel_dfs_read_seconds{locality="remote"}`,
			"DFS read latency (modeled I/O cost) by replica locality")
		fsCfg.ObserveRead = func(lat time.Duration, local bool) {
			if local {
				localReads.Observe(lat)
			} else {
				remoteReads.Observe(lat)
			}
		}
	}
	var (
		ms  *meta.Server
		log *wal.Log
	)
	if cfg.DataDir != "" {
		fsCfg.Dir = filepath.Join(cfg.DataDir, "dfs")
		// Restore metadata BEFORE opening the log: elastic scale-out may
		// have grown the slot count past the configured nIdx in a previous
		// incarnation, and slot i <-> partition i means the log must open
		// with one partition per snapshot slot, retired ones included.
		snap, err := os.ReadFile(metaSnapPath(cfg.DataDir))
		switch {
		case err == nil:
			ms, err = meta.Restore(snap)
			if err != nil {
				return nil, fmt.Errorf("cluster: metadata restore: %w", err)
			}
		case os.IsNotExist(err):
			ms = meta.NewServer(nIdx)
		default:
			return nil, fmt.Errorf("cluster: metadata snapshot: %w", err)
		}
		nTotal := nIdx
		if s := ms.Schema().Servers; s > nTotal {
			nTotal = s
		}
		// Claim every slot, retired ones included, the way a crash
		// replacement does — in a new epoch generation: chunk names carry the
		// slot's ownership epoch, and whatever the previous process wrote
		// under the restored one or a later one it never checkpointed must
		// not be met again. The claim is checkpointed below, before any
		// consumer starts.
		ms.StartGeneration()
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
			return nil, err
		}
	} else {
		ms = meta.NewServer(nIdx)
		log = wal.NewLog(nIdx)
	}
	fs, err := dfs.Open(fsCfg)
	if err != nil {
		return nil, err
	}
	// Now, with nothing in flight (and nothing to do without a DataDir).
	swept, err := sweepOrphans(fs, ms)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:          cfg,
		fs:           fs,
		ms:           ms,
		log:          log,
		bal:          dispatcher.NewBalancer(),
		reg:          reg,
		orphansSwept: swept,
		stop:         make(chan struct{}),
	}
	if reg != nil {
		c.traces = telemetry.NewTraceRing(traceRingSize)
	}
	c.ingestMetrics = ingest.Metrics{
		InsertNanos: reg.Histogram("waterwheel_ingest_insert_seconds",
			"sampled end-to-end insert latency on indexing servers"),
		FlushNanos: reg.Histogram("waterwheel_ingest_flush_seconds",
			"memtable flush latency (chunk build + DFS write + registration)"),
		BackpressureNanos: reg.Histogram("waterwheel_ingest_backpressure_seconds",
			"time threshold-crossing inserts spent blocked on a full flush queue"),
	}
	c.walAppends = reg.Counter("waterwheel_wal_appends_total", "records appended to WAL partitions")
	c.walAppendCalls = reg.Counter("waterwheel_wal_append_calls_total",
		"append calls on WAL partitions: one per indexing server a batch routes to, one per single insert")
	c.repartitions = reg.Counter("waterwheel_repartitions_total", "adaptive key repartitions installed")
	c.insertBatches = reg.Counter("waterwheel_insert_batches_total", "batches routed through InsertBatch")
	c.batchRecords = reg.Histogram("waterwheel_insert_batch_records",
		"tuples per InsertBatch call (unit: records, not seconds)")
	c.handoffs = reg.Counter("waterwheel_handoffs_total",
		"region ownership handoffs (planned promotions and standby takeovers)")
	c.handoffLag = reg.Histogram("waterwheel_handoff_lag_records",
		"standby replay lag behind the partition head at an ownership flip (unit: records, not seconds)")
	c.handoffPause = reg.Histogram("waterwheel_handoff_pause_seconds",
		"ingest-visible pause of a handoff: ownership fence until the new owner's consumer is running")
	c.checkpoints = reg.Counter("waterwheel_checkpoints_total",
		"completed checkpoints: chunk files and metadata snapshot on stable storage, WAL segments behind them unlinked")
	c.ckptNanos = reg.Histogram("waterwheel_checkpoint_seconds",
		"checkpoint latency, capture to last unlink (stage: checkpoint)")
	c.coord = queryexec.NewCoordinator(queryexec.CoordinatorConfig{
		Policy:  queryexec.PolicyByName(cfg.Policy),
		Metrics: queryexec.NewCoordinatorMetrics(reg),
		Traces:  c.traces,
	}, c.ms, c.fs)

	schema := c.ms.Schema()
	nTotal := nIdx
	if schema.Servers > nTotal {
		nTotal = schema.Servers
	}
	c.standbys = make(map[int]*standbyHandle)
	for i := 0; i < nTotal; i++ {
		if !schema.Active(i) {
			// Retired (or never-provisioned) slot: it keeps its WAL
			// partition and chunk history but runs no server.
			c.idx = append(c.idx, nil)
			c.retired = append(c.retired, true)
			continue
		}
		srv := c.newIndexServer(i, schema.IntervalOf(i), ms.Epoch(i), false)
		c.idx = append(c.idx, srv)
		c.retired = append(c.retired, false)
		c.coord.SetMemExecutor(i, srv)
	}
	qsMetrics := queryexec.NewServerMetrics(reg)
	for n := 0; n < cfg.Nodes; n++ {
		for j := 0; j < cfg.QueryServersPerNode; j++ {
			qs := queryexec.NewServer(queryexec.ServerConfig{
				ID:            n*cfg.QueryServersPerNode + j,
				Node:          n,
				CacheBytes:    cfg.CacheBytes,
				UseBloom:      !cfg.DisableBloom,
				Workers:       cfg.QueryWorkers,
				InflightReads: cfg.QueryInflightReads,
				Metrics:       qsMetrics,
			}, c.fs, c.ms)
			c.qsrv = append(c.qsrv, qs)
			c.coord.AddQueryServer(qs)
		}
	}
	c.ret = newRetirer(c)
	compBuild := cfg.Bloom
	c.comp = compact.New(compact.Config{
		WarmAfterMillis: cfg.TierWarmAfterMillis,
		ColdAfterMillis: cfg.TierColdAfterMillis,
		Leaves:          cfg.TemplateLeaves,
		Build:           compBuild,
	}, c.fs, c.ms, compact.NewMetrics(reg), c.ret.retire)
	nDisp := cfg.Nodes * cfg.DispatchersPerNode
	for i := 0; i < nDisp; i++ {
		c.disp = append(c.disp, dispatcher.New(schema, walSink{c: c}, dispatcher.SamplerConfig{Seed: cfg.Seed + int64(i)}))
	}
	c.registerFuncMetrics()
	if err := c.Checkpoint(); err != nil {
		c.Stop()
		return nil, fmt.Errorf("cluster: open checkpoint: %w", err)
	}
	return c, nil
}

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

// server returns slot i's indexing server, nil when the slot is retired
// or out of range.
func (c *Cluster) server(i int) *ingest.Server {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	if i < 0 || i >= len(c.idx) {
		return nil
	}
	return c.idx[i]
}

// servers returns a snapshot of the slot table; retired slots are nil.
func (c *Cluster) servers() []*ingest.Server {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	return append([]*ingest.Server(nil), c.idx...)
}

// isRetired reports whether slot i has been decommissioned.
func (c *Cluster) isRetired(i int) bool {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	return i >= 0 && i < len(c.retired) && c.retired[i]
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
// one encode buffer, one partition lock, one segment write — and appends
// EVERY group before it waits on ANY (wal.StartAppend, then
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
		end, err := p.StartAppend(encodeRecords(g.Tuples))
		switch {
		case err == nil:
			flights = append(flights, inFlight{g, p, end})
		case errors.Is(err, wal.ErrSealed):
			reroute = append(reroute, g)
		default:
			reject(g, fmt.Errorf("cluster: wal append (server %d): %w", g.Server, err))
		}
	}
	for _, g := range reroute {
		if s.hop >= rerouteHops {
			reject(g, fmt.Errorf("cluster: wal append: no active slot for key %d after %d reroutes", g.Tuples[0].Key, s.hop))
			continue
		}
		rej, err := dispatcher.SendGrouped(s.c.ms.Schema(), walSink{s.c, s.hop + 1}, g.Tuples)
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
		s.c.walAppends.Add(int64(len(f.g.Tuples)))
	}
	return rejected, errors.Join(errs...)
}

// encodeRecords encodes ts into one buffer and returns one record per
// tuple aliasing it — the buffer is sized exactly, so the records can never
// share appended bytes.
func encodeRecords(ts []model.Tuple) [][]byte {
	total := 0
	for i := range ts {
		total += model.EncodedSize(&ts[i])
	}
	buf := make([]byte, 0, total)
	datas := make([][]byte, len(ts))
	for i := range ts {
		pos := len(buf)
		buf = model.AppendTuple(buf, &ts[i])
		datas[i] = buf[pos:len(buf):len(buf)]
	}
	return datas
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
// it writes one), AddIndexServer and Stop run it synchronously.
func (c *Cluster) Checkpoint() error {
	if c.cfg.DataDir == "" {
		return nil
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
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
	if err := os.WriteFile(path+".tmp", snap, 0o644); err != nil {
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
	if c.started.Swap(true) {
		return
	}
	for i, srv := range c.servers() {
		if srv == nil {
			continue // a retired slot has no consumer
		}
		c.runConsumer(i, srv, c.detachConsumer(i))
		if c.cfg.HotStandby {
			c.StartStandby(i)
		}
	}
	if c.cfg.DataDir != "" {
		c.wg.Add(1)
		go c.checkpointer()
	}
	if !c.cfg.DisableAdaptive && c.cfg.BalanceIntervalMillis > 0 {
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
	_ = c.Checkpoint() // best effort; what it would record is also in the WAL
	// Query traffic is over; force-delete any chunk files still parked
	// behind in-flight-query horizons.
	c.ret.drain()
	if c.cfg.DataDir != "" {
		for i := 0; i < c.log.Partitions(); i++ {
			c.log.Partition(i).CloseFile()
		}
	}
}

// stopIngest is every shutdown's first half (c.stopped is set): release
// whoever waits on c.stop, detach the consumers, discard the standbys,
// close the log (which wakes a parked wal.read, so the shipping endpoint
// closes at once), wait for consumers and balancer, stop the servers.
func (c *Cluster) stopIngest(stopServer func(*ingest.Server)) {
	close(c.stop)
	for i := range c.servers() {
		c.detachConsumer(i)
	}
	c.standbyMu.Lock()
	hs := make([]*standbyHandle, 0, len(c.standbys))
	for slot, h := range c.standbys {
		hs = append(hs, h)
		delete(c.standbys, slot)
	}
	c.standbyMu.Unlock()
	for _, h := range hs {
		h.release()
		h.sb.Close()
	}
	c.log.Close()
	c.shipMu.Lock()
	if c.shipSrv != nil {
		c.shipSrv.Close()
		c.shipSrv = nil
	}
	c.shipMu.Unlock()
	c.wg.Wait()
	for _, srv := range c.servers() {
		if srv != nil {
			stopServer(srv)
		}
	}
}

// HardCrash simulates a host crash in DataDir mode: no checkpoint, no
// drain, and the OS page cache dies with the host — every WAL byte past the
// last fsync watermark is discarded, and every chunk file no checkpoint has
// synced is cut to zero bytes (its name may survive). The cluster is unusable
// afterwards; Open the same DataDir to get the surviving state. This is
// the probe for the ack-durability gap: under "ack-on-fsync" every acked
// tuple is below the watermark and survives; under "ack-on-write" acked
// tuples still in the page cache are lost.
func (c *Cluster) HardCrash() error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("cluster: HardCrash requires DataDir")
	}
	if c.stopped.Swap(true) {
		return fmt.Errorf("cluster: already stopped")
	}
	// Abort (not Close) the flushers: in-flight work dies without
	// checkpointing, like the host it ran on.
	c.stopIngest((*ingest.Server).Abort)
	first := c.fs.CrashDiscardUnsynced()
	for i := 0; i < c.log.Partitions(); i++ {
		if err := c.log.Partition(i).CrashDiscardUnsynced(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	c.insertBatches.Inc()
	c.batchRecords.Observe(time.Duration(len(ts)) * time.Second)
	d := c.disp[int(c.rr.Add(1))%len(c.disp)]
	return d.DispatchBatch(ts)
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

// Drain is the insert→query barrier: it blocks until every tuple acked
// before the call is applied to its indexing server's memtable, every
// flush those tuples triggered has been attempted, and the live regions
// covering them are published — so a query issued after a nil Drain sees
// all of them, exactly once, and the WAL holds in memory only what a
// replay would read (inserts are acked from the log, ahead of the
// consumers). Each head is read once: the barrier does not chase a writer
// that keeps going. Consumed advances only after a batch is in the trees,
// which makes waiting for it a barrier rather than a hint; a slot taken
// over mid-wait is waited for on its successor. A non-nil error says the
// barrier cannot be met: the error a slot's consumer died of (a replay
// gap, an undecodable record — the slot's inserts are still acked from the
// log, and applied by nobody until it is taken over), the error a flusher
// died of because no retry could mend it, or ErrClosed.
func (c *Cluster) Drain() error {
	if c.stopped.Load() {
		return ErrClosed
	}
	for i := 0; i < c.log.Partitions(); i++ {
		if err := c.waitApplied(i, c.log.Partition(i).Next()); err != nil {
			return err
		}
	}
	// Applied is not persisted: wait out the flush pipelines too ("insert,
	// Drain, query/crash" stays deterministic), then force what trails an
	// offset by a beat — the consumer's live-region report, so a query plans
	// against the memtable's true extent, and the flusher's WAL release.
	for i, srv := range c.servers() {
		if srv != nil {
			if err := srv.DrainFlushes(); err != nil {
				return err
			}
			srv.PublishLive()
			c.log.Partition(i).Release(c.replayFloor(i, c.ms.Offset(i)))
		}
	}
	// A quiet moment: whatever retired files were gated on queries that
	// have since completed can go now.
	c.ret.sweep()
	return nil
}

// waitApplied blocks until slot's current incarnation has applied every
// record below head: the one catch-up wait. An incarnation deposed mid-wait
// fails with ErrStopped before its successor is in the slot table: park on
// the takeover count, resolve again. A retired slot's final flush was it.
func (c *Cluster) waitApplied(slot int, head int64) error {
	for {
		flips := c.takeovers.Load()
		srv := c.server(slot)
		if srv == nil {
			return nil
		}
		err := srv.WaitApplied(head, c.stop)
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

// FlushAll forces every indexing server to flush its memtables and ends
// with a checkpoint: an explicit flush is a durability point — when it
// returns nil, what was buffered is in chunks on stable storage, the
// metadata naming them is too, and the log holds only what arrived since.
// The error is a flusher's that no retry can mend, or the checkpoint's.
func (c *Cluster) FlushAll() error {
	var errs []error
	for _, srv := range c.servers() {
		if srv != nil {
			errs = append(errs, srv.FlushAll())
		}
	}
	return errors.Join(append(errs, c.Checkpoint())...)
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
	for _, d := range c.disp {
		d.UpdateSchema(newSchema)
	}
	for i, srv := range c.servers() {
		if srv != nil {
			srv.SetKeys(newSchema.IntervalOf(i))
		}
	}
	c.standbyMu.Lock()
	for slot, h := range c.standbys {
		h.sb.SetKeys(newSchema.IntervalOf(slot))
	}
	c.standbyMu.Unlock()
	c.repartitions.Inc()
	return true
}

// DropChunksBefore removes every chunk whose temporal region ends before
// the horizon — stream-store retention. The chunk leaves the metadata
// registry first (no new subqueries can target it); its cached bytes are
// evicted from every query server and the file delete is deferred until
// queries planned before the drop have drained, so a concurrent query
// never trips over a half-retired chunk. Returns the number of chunks
// dropped. With tiering enabled, prefer letting the compactor demote and
// merge chunks first: retention then only ever discards the coldest,
// already-downsampled tier.
func (c *Cluster) DropChunksBefore(horizon model.Timestamp) int {
	var dropped []meta.ChunkInfo
	for _, ci := range c.ms.ChunksFor(model.FullRegion()) {
		if ci.Region.Times.Hi >= horizon {
			continue
		}
		if !c.ms.DropChunk(ci.ID) {
			continue
		}
		dropped = append(dropped, ci)
	}
	c.ret.retire(dropped)
	return len(dropped)
}

// TickCompact runs one compaction round — demote aging chunks through
// the tiers, merge groups of cold chunks into downsampled chunks — and
// sweeps the retirement queue. No-op unless tiering is configured.
// Returns (chunks demoted, merges completed).
func (c *Cluster) TickCompact() (demoted, merged int) {
	demoted, merged = c.comp.Tick()
	c.ret.sweep()
	return demoted, merged
}

// OrphansSwept reports how many DFS files Open deleted because the restored
// metadata does not name them.
func (c *Cluster) OrphansSwept() int64 { return c.orphansSwept }

// AutoCheckpoints reports how many checkpoints the checkpointer has taken on
// its flush-commit cadence, not counting the ones a caller asked for.
func (c *Cluster) AutoCheckpoints() int64 { return c.ckptAuto.Load() }

// Recovered reports how many WAL records the current indexing servers
// replayed on start — what the last crash or restart cost in replay.
func (c *Cluster) Recovered() int64 {
	var n int64
	for _, srv := range c.servers() {
		if srv != nil {
			n += srv.Stats().Recovered.Load()
		}
	}
	return n
}

// PendingRetiredDeletes reports how many retired chunk files are parked
// awaiting in-flight-query drain.
func (c *Cluster) PendingRetiredDeletes() int { return c.ret.pending() }

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
		return min(committed, h.sb.Consumed())
	}
	return committed
}

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
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	out := make([]int, 0, len(c.idx))
	for i, srv := range c.idx {
		if srv != nil {
			out = append(out, i)
		}
	}
	return out
}

// QueryServers returns the query servers.
func (c *Cluster) QueryServers() []*queryexec.Server { return c.qsrv }

// Dispatchers returns the dispatchers.
func (c *Cluster) Dispatchers() []*dispatcher.Dispatcher { return c.disp }

// WAL returns the write-ahead log.
func (c *Cluster) WAL() *wal.Log { return c.log }

// Telemetry returns the metric registry (nil when telemetry is off).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.reg }

// TraceRing returns the retained query traces (nil when telemetry is off).
func (c *Cluster) TraceRing() *telemetry.TraceRing { return c.traces }

// Ingested returns the total tuples accepted by the indexing servers.
func (c *Cluster) Ingested() int64 {
	var n int64
	for _, srv := range c.servers() {
		if srv != nil {
			n += srv.Stats().Ingested.Load()
		}
	}
	return n
}

// MemLen returns the total buffered (unflushed) tuples.
func (c *Cluster) MemLen() int {
	n := 0
	for _, srv := range c.servers() {
		if srv != nil {
			n += srv.MemLen()
		}
	}
	return n
}

// detachConsumer stops slot i's consumer, if one runs, and installs a fresh
// stop channel for its successor (the table grows with scale-out).
func (c *Cluster) detachConsumer(i int) chan struct{} {
	c.consMu.Lock()
	defer c.consMu.Unlock()
	for len(c.consStop) <= i {
		c.consStop = append(c.consStop, nil)
	}
	if cs := c.consStop[i]; cs != nil {
		close(cs)
	}
	cs := make(chan struct{})
	c.consStop[i] = cs
	if c.stopped.Load() { // no successor: stopIngest has been (or is) here
		close(cs)
		c.consStop[i] = nil
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
	c.standbyMu.Lock()
	defer c.standbyMu.Unlock()
	h := c.standbys[i]
	delete(c.standbys, i)
	return h
}

// standby returns slot i's standby handle, nil if it has none.
func (c *Cluster) standby(i int) *standbyHandle {
	c.standbyMu.Lock()
	defer c.standbyMu.Unlock()
	return c.standbys[i]
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
	c.standbyMu.Lock()
	c.standbys[i] = &standbyHandle{sb: sb, closeTail: closeTail}
	c.standbyMu.Unlock()
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
	c.idxMu.Lock()
	c.idx[i] = repl
	c.idxMu.Unlock()
	c.coord.SetMemExecutor(i, repl)
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
	c.idxMu.Lock()
	c.idx = append(c.idx, srv)
	c.retired = append(c.retired, false)
	c.idxMu.Unlock()
	c.coord.SetMemExecutor(id, srv)
	if c.started.Load() {
		c.runConsumer(id, srv, c.detachConsumer(id))
	}
	// The split slot's nominal interval narrowed; its actual interval
	// stays wide until its buffered tuples flush (§III-D), handled by the
	// metadata server. Only then do the dispatchers learn the new schema —
	// the new slot's consumer is already running, so no tuple ever waits.
	if old := c.server(split); old != nil {
		old.SetKeys(newSchema.IntervalOf(split))
	}
	c.standbyMu.Lock()
	if h := c.standbys[split]; h != nil {
		h.sb.SetKeys(newSchema.IntervalOf(split))
	}
	c.standbyMu.Unlock()
	for _, d := range c.disp {
		d.UpdateSchema(newSchema)
	}
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
	for j, s := range c.servers() {
		if s != nil && j != i {
			s.SetKeys(newSchema.IntervalOf(j))
		}
	}
	c.standbyMu.Lock()
	for slot, h := range c.standbys {
		if slot != i {
			h.sb.SetKeys(newSchema.IntervalOf(slot))
		}
	}
	c.standbyMu.Unlock()
	for _, d := range c.disp {
		d.UpdateSchema(newSchema)
	}
	// 2. Retire + seal: a straggler dispatched under the old schema either
	// sees the mask before appending or bounces off the sealed partition —
	// both reroute it through the new schema, so after this point the
	// partition head is final (modulo appends already inside the lock,
	// which land before Seal returns).
	c.idxMu.Lock()
	c.retired[i] = true
	c.idxMu.Unlock()
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
	c.idxMu.Lock()
	c.idx[i] = nil
	c.idxMu.Unlock()
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
// consuming; use CrashIndexServer to also wait for catch-up.
func (c *Cluster) KillIndexServer(i int) error {
	c.elasticMu.Lock()
	defer c.elasticMu.Unlock()
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	return c.takeover(i, c.takeStandby(i))
}

// CrashIndexServer simulates an indexing-server failure and recovery (§V):
// the server's goroutine stops, its in-memory state is discarded, and a
// successor (standby shadow or WAL replay) takes over. The call blocks
// until the successor has caught up with the partition head at call time.
func (c *Cluster) CrashIndexServer(i int) error {
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	head := c.log.Partition(i).Next()
	if err := c.KillIndexServer(i); err != nil {
		return err
	}
	return c.waitApplied(i, head)
}
