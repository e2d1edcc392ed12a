// Package chaos is a seeded fault-injection harness for a full Waterwheel
// cluster. It has one runner and one op table. A schedule is a list of ops:
// inserts (one at a time, batched, skewed, or in a background burst that
// later ops land in), temporal range queries (solo and in concurrent
// bursts), aggregate queries cross-checked against the tuple path, flushes,
// balancer ticks, retention drops, WAL truncation, faults — DFS node
// kill/revive, transient DFS write/read error injection, indexing-server
// crashes (plain and provably mid-flush) — topology changes, and restarts
// and host crashes from disk. Run generates one from an RNG seed; Schedules
// holds the scripted ones, each aimed at a hostile moment. The runner drives
// the cluster through the schedule while checking global invariants after
// every step:
//
//   - soundness: every returned tuple was acked, lies inside the query
//     region, matches the oracle's key/time for its sequence number, and
//     appears at most once per result;
//   - results arrive in the global (key, time, payload) sort order;
//   - WAL/metadata flush offsets never regress;
//   - queries fail only while a read fault or DFS node loss is plausible,
//     and answer ErrBusy only while chunk writes can fail;
//   - completeness: every query returns every tuple in its region that was
//     acked before it was issued — a query is the insert→query barrier —
//     and at every barrier (faults healed, pipeline drained) a full-region
//     query does so for the whole store. Tuples in retention-dropped chunks
//     are exempt but must still never duplicate.
//
// What a seed fixes: the schedule — and therefore the op trace — is a pure
// function of (seed, op count). Tuple-level randomness comes from a sub-RNG
// seeded by (seed, op index), and the cluster runs with a no-op DFS sleeper,
// a fault RNG seeded from the harness seed, and manual balancer ticks, so a
// failing seed replays the identical schedule. The verdict is not a function
// of the seed: consumers and flushers run free, so where a flush lands
// against a crash or a fault, and with it whether a timing-dependent
// violation shows, can differ from run to run of the same seed.
//
// A hard crash (Options.HardCrash, with a DataDir) kills the host instead
// of stopping it: unsynced WAL bytes are discarded like a dying page cache,
// the cluster reopens from disk, and completeness is re-verified. Under
// Durability="ack-on-fsync" any acked tuple lost to the crash is a
// violation; under weaker policies losses are counted in Report.LostAcked —
// the measured ack-durability gap.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// Fault classes a run can prove it exercised (Report.FaultsSeen keys).
const (
	FaultDFSNodeLoss   = "dfs-node-loss"
	FaultDFSWriteError = "dfs-write-error"
	FaultDFSReadError  = "dfs-read-error"
	FaultCrash         = "index-server-crash"
	FaultCrashMidFlush = "index-server-crash-mid-flush"
	FaultWALAppend     = "wal-append-error"
	// Elastic classes (Options.Elastic runs and the scripted schedules).
	FaultElasticAdd   = "elastic-add-server"
	FaultElasticDecom = "elastic-decommission"
	FaultTakeover     = "takeover"
	// FaultRepartition: a balancer tick moved the key intervals.
	FaultRepartition = "repartition"
)

// Options configures one harness run.
type Options struct {
	// Seed determines the whole scenario; same seed, same schedule.
	Seed int64
	// Ops is the generated schedule's length (default 60). It always begins
	// with inserts and ends with a barrier; a restart or a hard crash, and
	// the barrier after it, follow.
	Ops int
	// Nodes is the simulated node count (default 3, replication 2).
	Nodes int
	// DataDir, when set, runs the cluster durably (disk-backed WAL/DFS).
	DataDir string
	// Restart, with DataDir, ends the schedule with a restart op — stop the
	// cluster, reopen it from disk — and a barrier that re-verifies
	// completeness: end-to-end durability.
	Restart bool
	// Durability is the cluster's insert-ack policy ("", "ack-on-write",
	// "ack-on-fsync", "interval"); non-default values require DataDir.
	Durability string
	// HardCrash, with DataDir, ends the schedule with a hard-crash op and a
	// barrier: drain + checkpoint, insert a small acked tail guaranteed to miss the
	// flush pipeline, then kill the cluster discarding every WAL byte past
	// the fsync watermark (the page cache dies with the host), reopen, and
	// re-verify. Under "ack-on-fsync" zero acked tuples may be lost; under
	// any other policy lost acked tuples are counted in Report.LostAcked
	// instead of flagged as violations — that loss window is the documented
	// cost of the policy. Takes precedence over Restart.
	HardCrash bool
	// Elastic mixes elastic scale-out ops into the random schedule —
	// add-server, decommission and more kills. Slot ids in the schedule are
	// resolved against the live topology at execution time, so the op
	// sequence stays a pure function of the seed even as the slot set
	// changes.
	Elastic bool
	// Telemetry, when set, is plumbed into the cluster, and the run's
	// handoff metrics (count, pause, lag) are read into the Report; a
	// handoff pause over takeoverPauseBound is a violation.
	Telemetry *telemetry.Registry
}

func (o *Options) fill() {
	if o.Ops <= 0 {
		o.Ops = 60
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
}

// Report is the outcome of a run. A correct system yields zero violations
// for every seed.
type Report struct {
	Seed       int64
	Trace      []string // one line per executed op; outcome-independent
	Violations []string // invariant breaches, each tagged with its op index
	Inserted   int
	Queries    int
	// AggChecks counts aggregate queries whose result was verified exactly
	// against the tuples a simultaneous range query returned.
	AggChecks int
	// LostAcked counts acked tuples missing after a hard crash under a
	// durability policy that permits loss (anything but "ack-on-fsync").
	// Such losses are expected — the run still verifies soundness and
	// uniqueness — but the count quantifies the ack-durability gap.
	LostAcked int
	// Replayed counts the WAL records the reopened cluster replayed after a
	// hard crash — bounded by the flush pipeline, not by the length of the
	// run; OrphansSwept the DFS files its Open deleted because the replayed
	// metadata named none of them.
	Replayed     int64
	OrphansSwept int64
	// BatchRejections counts vectorized inserts in which an armed WAL append
	// fault actually rejected tuples; PartialRejections counts those among
	// them that were also partly acked (0 < acked < len) — the only ones in
	// which the oracle can tell the reported positions from wrong ones.
	BatchRejections   int
	PartialRejections int
	// Dropped counts the chunks retention ops removed.
	Dropped    int
	FaultsSeen map[string]bool
	// Handoffs, PauseMax, PauseP99 and LagMax are read from
	// Options.Telemetry once the run ends (zero without it):
	// waterwheel_handoffs_total, the max and p99 of
	// waterwheel_handoff_pause_seconds (bucket upper bounds) and the max of
	// waterwheel_handoff_lag_records, in records.
	Handoffs           int64
	PauseMax, PauseP99 time.Duration
	LagMax             int64
}

// opKind enumerates schedule steps.
type opKind int

const (
	opInsert opKind = iota
	opInsertBatch
	opQuery
	opQueryConcurrent
	opAggQuery
	opFlush
	opBalance
	opRetention
	opCheckpoint
	opKillDFS
	opReviveDFS
	opWriteFaults
	opReadFaults
	opCrash
	opCrashMidFlush
	opBarrier
	// Elastic ops (only generated when Options.Elastic is set).
	opAddServer
	opDecommission
	// Scripted ops, never generated at random: a background burst, waiting
	// it out, a skewed burst for the balancer to repartition around, and a
	// restart and a hard crash from disk (also Options.Restart's and
	// Options.HardCrash's trailing ops).
	opBurstBG
	opJoin
	opSkewBurst
	opRestart
	opHardCrash
)

var opNames = map[opKind]string{
	opInsert: "insert", opInsertBatch: "insert-batch", opQuery: "query",
	opQueryConcurrent: "query-concurrent", opFlush: "flush-all",
	opAggQuery: "agg-query", opBalance: "tick-balance", opRetention: "retention",
	opCheckpoint: "checkpoint", opKillDFS: "kill-dfs",
	opReviveDFS: "revive-dfs", opWriteFaults: "write-faults",
	opReadFaults: "read-faults", opCrash: "crash",
	opCrashMidFlush: "crash-mid-flush", opBarrier: "barrier",
	opAddServer: "add-server", opDecommission: "decommission",
	opBurstBG: "burst-bg", opJoin: "join", opSkewBurst: "skew-burst",
	opRestart: "restart", opHardCrash: "hard-crash",
}

// op is one pre-generated schedule step. All parameters are fixed at
// schedule-generation time so the trace cannot depend on execution outcome.
type op struct {
	kind opKind
	n    int     // batch or burst size, fail-next count, node or server id
	alt  bool    // variant switch (rate-based vs fail-next faults, batched burst, ...)
	rate float64 // fault probability for rate-based injection
}

func (o op) String() string {
	switch o.kind {
	case opInsert, opQueryConcurrent, opSkewBurst, opJoin:
		return fmt.Sprintf("%s n=%d", opNames[o.kind], o.n)
	case opInsertBatch:
		return fmt.Sprintf("%s n=%d fault=%v", opNames[o.kind], o.n, o.alt)
	case opBurstBG:
		return fmt.Sprintf("%s n=%d batched=%v", opNames[o.kind], o.n, o.alt)
	case opKillDFS, opReviveDFS:
		return fmt.Sprintf("%s node=%d", opNames[o.kind], o.n)
	case opCrash, opCrashMidFlush, opDecommission:
		// n is a pick index, resolved against the live slot set at exec time.
		return fmt.Sprintf("%s pick=%d", opNames[o.kind], o.n)
	case opWriteFaults, opReadFaults:
		if o.alt {
			return fmt.Sprintf("%s rate=%.2f", opNames[o.kind], o.rate)
		}
		return fmt.Sprintf("%s next=%d", opNames[o.kind], o.n)
	default:
		return opNames[o.kind]
	}
}

// weights shape the schedule mix; inserts and queries dominate, faults are
// frequent enough that every multi-seed run exercises each class.
var weights = []struct {
	kind opKind
	w    int
}{
	{opInsert, 22}, {opInsertBatch, 8}, {opQuery, 14}, {opQueryConcurrent, 6},
	{opAggQuery, 8}, {opFlush, 7}, {opBalance, 5},
	{opRetention, 4}, {opCheckpoint, 4}, {opKillDFS, 4}, {opReviveDFS, 6},
	{opWriteFaults, 5}, {opReadFaults, 5}, {opCrash, 3}, {opCrashMidFlush, 2},
	{opBarrier, 7},
}

// elasticWeights extends the mix for Options.Elastic runs: topology churn
// is rare enough that data ops still dominate, frequent enough that a
// multi-seed run grows, shrinks and fails over the slot set several times.
var elasticWeights = []struct {
	kind opKind
	w    int
}{
	{opAddServer, 2}, {opDecommission, 2}, {opCrash, 4},
}

// genSchedule derives the op sequence from opts alone: the seed draws the
// ops, the cluster's node and slot counts bound their id parameters,
// Elastic adds the topology-churn ops to the mix, and a DataDir run ends in
// a hard crash or a restart when opts asks for one. Server picks are stored
// as raw indexes and reduced modulo the live slot set at execution time, so
// the schedule stays a pure function of the seed even though the topology
// it runs against evolves.
func genSchedule(opts Options) []op {
	cfg := clusterConfig(opts)
	nOps, nodes, nIdx := opts.Ops, cfg.Nodes, cfg.Nodes*cfg.IndexServersPerNode
	master := rand.New(rand.NewSource(opts.Seed))
	mix := weights
	if opts.Elastic {
		mix = append(append([]struct {
			kind opKind
			w    int
		}{}, weights...), elasticWeights...)
	}
	total := 0
	for _, w := range mix {
		total += w.w
	}
	sched := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		var o op
		if i < 3 {
			o.kind = opInsert // open with data so early ops have substance
		} else if i == nOps-1 {
			o.kind = opBarrier // always end healed and fully verified
		} else {
			pick := master.Intn(total)
			for _, w := range mix {
				if pick < w.w {
					o.kind = w.kind
					break
				}
				pick -= w.w
			}
		}
		switch o.kind {
		case opInsert:
			o.n = 20 + master.Intn(100)
		case opInsertBatch:
			o.n = 20 + master.Intn(200)
			o.alt = master.Intn(2) == 0 // arm a one-shot WAL append fault
		case opQueryConcurrent:
			o.n = 2 + master.Intn(5)
		case opKillDFS, opReviveDFS:
			o.n = master.Intn(nodes)
		case opCrash, opCrashMidFlush, opDecommission:
			o.n = master.Intn(nIdx)
		case opWriteFaults:
			o.alt = master.Intn(2) == 0
			o.n = 1 + master.Intn(6)
			o.rate = 0.2 + 0.5*master.Float64()
		case opReadFaults:
			o.alt = master.Intn(2) == 0
			o.n = 1 + master.Intn(6)
			o.rate = 0.2 + 0.4*master.Float64()
		}
		sched = append(sched, o)
	}
	switch {
	case opts.DataDir == "":
	case opts.HardCrash:
		sched = append(sched, op{kind: opHardCrash}, op{kind: opBarrier})
	case opts.Restart:
		sched = append(sched, op{kind: opRestart}, op{kind: opBarrier})
	}
	return sched
}

// entry is one submitted tuple in the oracle, indexed by the sequence
// number embedded in its payload: acked, unless marked rejected.
type entry struct {
	key model.Key
	ts  model.Timestamp
	// rejected: the batch error named this tuple's position, so it was not
	// acked. Completeness never requires it; any query returning it is a
	// violation.
	rejected bool
	// maybeDropped: a retention horizon passed this entry's timestamp, so
	// a chunk holding it may have been dropped — presence is optional,
	// uniqueness still mandatory.
	maybeDropped bool
	// lost: a query found it missing after a hard crash under a policy that
	// may lose acked tuples (ackLossOK); counted in Report.LostAcked once.
	lost bool
}

// runner holds the mutable state of one run.
type runner struct {
	opts Options
	c    *cluster.Cluster
	rep  *Report

	entries    []entry
	virtualNow model.Timestamp
	maxOffsets []int64
	killedDFS  map[int]bool
	// readFaultsPossible: a read-fault op ran since the last barrier, so
	// query errors are excusable until the next heal.
	readFaultsPossible bool
	// writeFaults: chunk writes may fail (a write-fault op ran since the
	// last heal), so a query may find a slot stalled behind them (ErrBusy).
	writeFaults bool
	// ackLossOK: a hard crash happened under a durability policy that does
	// not promise fsync-before-ack, so missing acked tuples are tallied in
	// Report.LostAcked rather than reported as violations.
	ackLossOK bool
	nIdx      int
	// bg counts the tuples the background burst in flight, if any, has
	// acked out of its bgLen, and fails with its insert error.
	bg    *wal.Watermark
	bgLen int64
	// err ends the run: the cluster could not reopen.
	err error
}

const (
	baseTime  model.Timestamp = 1_000_000 // virtual stream start, ms
	keyDomain                 = 1 << 20
)

// clusterConfig builds the small, flush-happy cluster the harness drives:
// tiny chunks so flushes and chunk queries happen constantly, a shallow
// flush queue so backpressure and mid-flight failures are reachable. It
// models no DFS latency, so nothing sleeps.
func clusterConfig(opts Options) cluster.Config {
	cfg := cluster.Config{
		Nodes:                 opts.Nodes,
		IndexServersPerNode:   2,
		QueryServersPerNode:   2,
		DispatchersPerNode:    1,
		ChunkBytes:            4 << 10,
		Replication:           2,
		FlushQueueDepth:       4,
		TemplateLeaves:        32,
		BalanceIntervalMillis: 0, // manual TickBalance only
		Seed:                  opts.Seed,
		DataDir:               opts.DataDir,
		Durability:            opts.Durability,
		Telemetry:             opts.Telemetry,
	}
	if opts.DataDir != "" {
		cfg.Files = &durable.Files{} // what HardCrash crashes
	}
	return cfg
}

// newRunner opens the cluster for opts and returns a runner ready to
// execute a schedule.
func newRunner(opts Options) (*runner, error) {
	opts.fill()
	cfg := clusterConfig(opts)
	nIdx := cfg.Nodes * cfg.IndexServersPerNode
	c, err := cluster.Open(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	return &runner{
		opts:       opts,
		c:          c,
		rep:        &Report{Seed: opts.Seed, FaultsSeen: map[string]bool{}},
		virtualNow: baseTime,
		maxOffsets: make([]int64, nIdx),
		killedDFS:  map[int]bool{},
		nIdx:       nIdx,
	}, nil
}

// Run executes one seeded scenario and returns its report. It never calls
// t.Fatal itself so callers (tests, wwbench) decide how to surface
// violations; an error is returned only when the cluster cannot open.
func Run(opts Options) (*Report, error) {
	opts.fill()
	return run(opts, genSchedule(opts))
}

// run drives sched against a fresh cluster for opts — the one runner of
// generated and scripted schedules alike — and reads the handoff metrics
// into the report.
func run(opts Options, sched []op) (*Report, error) {
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	r.runSchedule(sched)
	r.join(len(sched), 0)
	if r.c != nil {
		r.c.Stop()
	}
	r.collectMetrics(len(sched))
	return r.rep, r.err
}

func (r *runner) runSchedule(sched []op) {
	for i, o := range sched {
		r.trace(i, "%s", o)
		r.exec(i, o)
		if r.err != nil {
			return
		}
		r.checkOffsets(i)
	}
}

// reopen opens the cluster again from the DataDir, starts it and drains
// the replay: the one way a run comes back from a restart or a host crash.
// A cluster that does not open ends the run with the error.
func (r *runner) reopen(i int, after string) bool {
	c, err := cluster.Open(clusterConfig(r.opts))
	if err != nil {
		r.c, r.err = nil, fmt.Errorf("chaos: reopen after %s: %w", after, err)
		return false
	}
	r.c = c
	c.Start()
	c.Drain()
	r.trace(i, "%s: reopened with %d active slots", after, len(c.ActiveSlots()))
	return true
}

// hardCrash probes the ack-durability gap. It settles the cluster (heal,
// drain, flush, checkpoint) so the fsync watermark provably covers
// everything acked so far, then inserts a fixed tail of tuples small
// enough that no flush — and therefore no flush-path SyncTo — will run
// before the crash. Under "ack-on-fsync" each of those acks already paid
// for an fsync, so the tail survives the crash; under "ack-on-write" the
// tail sits in the page cache and is discarded with it, surfacing as
// Report.LostAcked at the barrier after the reopen.
func (r *runner) hardCrash(i int) {
	r.heal()
	r.c.Drain()
	r.c.FlushAll()
	r.c.Drain()
	if err := r.c.Checkpoint(); err != nil {
		r.violate(i, "checkpoint before hard crash: %v", err)
	}
	sub := r.subRNG(i)
	const tail = 40 // ~1 KiB across all partitions: below every flush threshold
	for j := 0; j < tail; j++ {
		r.virtualNow += model.Timestamp(1 + sub.Int63n(20))
		r.insert(model.Key(sub.Uint64()%keyDomain), r.virtualNow)
	}
	policy := r.opts.Durability
	if policy == "" {
		policy = "ack-on-write"
	}
	r.trace(i, "hard-crash: %d acked tail tuples under %s, then host dies", tail, policy)
	if err := r.c.HardCrash(); err != nil {
		r.violate(i, "hard crash: %v", err)
	}
	if r.reopen(i, "hard-crash") {
		r.rep.Replayed, r.rep.OrphansSwept = r.c.Recovered(), r.c.OrphansSwept()
		r.ackLossOK = r.opts.Durability != "ack-on-fsync"
	}
}

func (r *runner) trace(i int, format string, args ...any) {
	r.rep.Trace = append(r.rep.Trace, fmt.Sprintf("%03d %s", i, fmt.Sprintf(format, args...)))
}

func (r *runner) violate(i int, format string, args ...any) {
	r.rep.Violations = append(r.rep.Violations,
		fmt.Sprintf("op %03d: %s", i, fmt.Sprintf(format, args...)))
}

// subRNG returns the per-op randomness source: a fixed mix of the seed and
// the op index, so replaying a seed replays every tuple and range.
func (r *runner) subRNG(i int) *rand.Rand {
	return rand.New(rand.NewSource(r.opts.Seed*1_000_003 + int64(i)*7919))
}

func (r *runner) exec(i int, o op) {
	// A background burst runs on under the ops aimed at it — kills, topology
	// changes, flushes, balancer ticks, queries — and is waited out by every
	// op that adds to the oracle, settles it or replaces the cluster.
	switch o.kind {
	case opJoin:
		r.join(i, o.n)
	case opInsert, opInsertBatch, opSkewBurst, opBurstBG, opCrashMidFlush, opBarrier, opRestart, opHardCrash:
		r.join(i, 0)
	}
	switch o.kind {
	case opInsert:
		r.insertBatch(i, o.n)
	case opInsertBatch:
		r.insertVectorBatch(i, o.n, o.alt)
	case opQuery:
		r.query(i)
	case opQueryConcurrent:
		r.queryConcurrent(i, o.n)
	case opAggQuery:
		r.aggQuery(i)
	case opFlush:
		r.c.FlushAll()
	case opBalance:
		if r.c.TickBalance() {
			r.rep.FaultsSeen[FaultRepartition] = true
		}
	case opRetention:
		r.retention(i)
	case opCheckpoint:
		if err := r.c.Checkpoint(); err != nil {
			r.violate(i, "checkpoint: %v", err)
		}
	case opKillDFS:
		r.c.FS().KillNode(o.n)
		r.killedDFS[o.n] = true
		r.rep.FaultsSeen[FaultDFSNodeLoss] = true
	case opReviveDFS:
		r.c.FS().ReviveNode(o.n)
		delete(r.killedDFS, o.n)
	case opWriteFaults:
		if o.alt {
			r.c.FS().SetWriteFailRate(o.rate)
		} else {
			r.c.FS().FailNextWrites(o.n)
		}
		r.writeFaults = true
		r.rep.FaultsSeen[FaultDFSWriteError] = true
	case opReadFaults:
		if o.alt {
			r.c.FS().SetReadFailRate(o.rate)
		} else {
			r.c.FS().FailNextReads(o.n)
		}
		r.readFaultsPossible = true
		r.rep.FaultsSeen[FaultDFSReadError] = true
	case opCrash:
		server := r.pickSlot(o.n)
		if err := r.c.KillIndexServer(server); err != nil {
			r.violate(i, "kill index server %d: %v", server, err)
		}
		r.rep.FaultsSeen[FaultCrash] = true
		r.rep.FaultsSeen[FaultTakeover] = true
	case opCrashMidFlush:
		r.crashMidFlush(i, r.pickSlot(o.n))
	case opAddServer:
		r.addServer(i)
	case opDecommission:
		r.decommission(i, o.n)
	case opBarrier:
		r.barrier(i)
	case opBurstBG:
		r.burstBG(i, o.n, o.alt)
	case opSkewBurst:
		r.skewBurst(i, o.n)
	case opRestart:
		r.heal()
		r.c.Stop()
		r.reopen(i, "restart")
	case opHardCrash:
		r.hardCrash(i)
	}
}

// pickSlot reduces a schedule pick index to a live slot id. The slot set
// may have grown or shrunk since the schedule was generated; the reduction
// is deterministic given the op history, so a seed still replays its op
// trace exactly.
func (r *runner) pickSlot(pick int) int {
	slots := r.c.ActiveSlots()
	return slots[pick%len(slots)]
}

// maxExtraSlots caps schedule-driven add-server growth so a churn-heavy
// seed cannot grow the cluster without bound.
const maxExtraSlots = 4

func (r *runner) addServer(i int) {
	if len(r.c.ActiveSlots()) >= r.nIdx+maxExtraSlots {
		r.trace(i, "add-server skipped: at slot cap")
		return
	}
	id, err := r.c.AddIndexServer()
	if err != nil {
		r.violate(i, "add index server: %v", err)
		return
	}
	r.trace(i, "add-server: slot %d joined, %d active", id, len(r.c.ActiveSlots()))
	r.rep.FaultsSeen[FaultElasticAdd] = true
}

func (r *runner) decommission(i, pick int) {
	slots := r.c.ActiveSlots()
	if len(slots) < 3 {
		r.trace(i, "decommission skipped: only %d active slots", len(slots))
		return
	}
	server := slots[pick%len(slots)]
	// Decommission drains the slot through the flush pipeline; with DFS
	// nodes down a replicated write can be impossible and the drain would
	// never finish. Revive nodes first (any operator would) but leave
	// rate-based write faults armed — those retries must still converge.
	for node := range r.killedDFS {
		r.c.FS().ReviveNode(node)
		delete(r.killedDFS, node)
	}
	if err := r.c.DecommissionIndexServer(server); err != nil {
		r.violate(i, "decommission index server %d: %v", server, err)
		return
	}
	r.trace(i, "decommission: slot %d drained out, %d active", server, len(r.c.ActiveSlots()))
	r.rep.FaultsSeen[FaultElasticDecom] = true
}

// insertBatch acks n tuples through the dispatchers one Insert at a time
// and records them in the oracle.
func (r *runner) insertBatch(i, n int) {
	sub := r.subRNG(i)
	hot := model.Key(sub.Uint64() % keyDomain)
	for j := 0; j < n; j++ {
		r.insert(r.randTuple(sub, hot))
	}
}

// randTuple draws the key and time of a stream's next tuple: keys mostly
// uniform, 30 % in a skewed cluster at hot; timestamps mostly advance the
// virtual stream clock, with a late tail (some beyond the side-store
// threshold).
func (r *runner) randTuple(sub *rand.Rand, hot model.Key) (model.Key, model.Timestamp) {
	var key model.Key
	if sub.Intn(10) < 3 {
		key = hot + model.Key(sub.Uint64()%256) // skewed cluster
	} else {
		key = model.Key(sub.Uint64() % keyDomain)
	}
	r.virtualNow += model.Timestamp(1 + sub.Int63n(30))
	ts := r.virtualNow
	switch lat := sub.Intn(100); {
	case lat < 3: // very late: side-store territory (>60 s)
		ts -= 60_000 + model.Timestamp(sub.Int63n(60_000))
	case lat < 13: // mildly late: stays in the main tree
		ts -= model.Timestamp(sub.Int63n(30_000))
	}
	return key, max(ts, 0)
}

func (r *runner) insert(key model.Key, ts model.Timestamp) {
	if err := r.c.Insert(r.tupleAt(0, key, ts)); err != nil {
		// Rejected means not acked: the oracle must not expect it. The
		// harness injects no WAL-file faults, so rejections are not normally
		// reachable here — but the contract is what we hold the system to.
		return
	}
	r.entries = append(r.entries, entry{key: key, ts: ts})
	r.rep.Inserted++
}

// insertVectorBatch drives n tuples through Cluster.InsertBatch in one
// call, optionally with a one-shot WAL append fault armed (submitBatch).
func (r *runner) insertVectorBatch(i, n int, fault bool) {
	sub := r.subRNG(i)
	hot := model.Key(sub.Uint64() % keyDomain)
	batch := make([]model.Tuple, 0, n)
	for j := 0; j < n; j++ {
		key, ts := r.randTuple(sub, hot)
		batch = append(batch, r.tupleAt(len(batch), key, ts))
	}
	r.submitBatch(i, batch, fault)
}

// tupleAt returns the tuple at (key, ts) whose payload is the oracle
// sequence number it gets as the j-th tuple of the next batch submitted.
func (r *runner) tupleAt(j int, key model.Key, ts model.Timestamp) model.Tuple {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(len(r.entries)+j))
	return model.Tuple{Key: key, Time: ts, Payload: payload}
}

// submitBatch drives batch through Cluster.InsertBatch — the vectorized
// wire-to-leaf path — optionally arming a one-shot WAL append fault on a
// partition the batch routes to first. The cluster reports the exact
// positions it rejected. Every tuple of the batch gets an oracle entry, the
// reported ones marked rejected, so the barrier's checks prove the report
// exact in both directions: an acked tuple that was dropped fails
// completeness, and a rejected tuple that leaked into the trees is returned
// by the full-region query and flagged.
func (r *runner) submitBatch(i int, batch []model.Tuple, fault bool) {
	target := -1
	if fault {
		// Aim at the partition a mid-batch tuple routes to, so the shot
		// reliably fires rather than waiting on a partition the batch
		// never reaches.
		target = r.c.Metadata().Schema().ServerFor(batch[len(batch)/2].Key)
		r.c.WAL().Partition(target).FailNextAppends(1)
		r.rep.FaultsSeen[FaultWALAppend] = true
	}
	rejected, err := r.c.InsertBatch(batch)
	if target >= 0 {
		// Disarm an unfired shot (a concurrent schema change may have routed
		// the batch around the target partition) so it cannot reject an
		// unrelated later insert.
		r.c.WAL().Partition(target).FailNextAppends(0)
	}
	if (err == nil) != (len(rejected) == 0) {
		r.violate(i, "InsertBatch rejected %d/%d tuples with error %v", len(rejected), len(batch), err)
	}
	if err != nil {
		if !fault {
			r.violate(i, "InsertBatch failed with no armed fault: %v", err)
		}
		r.rep.BatchRejections++
		if len(rejected) < len(batch) {
			r.rep.PartialRejections++
		}
	}
	base := len(r.entries)
	for j := range batch {
		r.entries = append(r.entries, entry{key: batch[j].Key, ts: batch[j].Time})
	}
	last := -1
	for _, at := range rejected {
		if at <= last || at >= len(batch) {
			r.violate(i, "InsertBatch rejected positions %v: not ascending inside a batch of %d", rejected, len(batch))
			break
		}
		r.entries[base+at].rejected, last = true, at
	}
	r.rep.Inserted += len(batch) - len(rejected)
}

// burstBatch is the InsertBatch size of a batched background burst and of
// a skew burst.
const burstBatch = 64

// burstBG reserves n oracle entries on the main thread (keys, timestamps
// and sequence numbers are fixed before launch), then acks them from a
// goroutine — one Insert at a time, or in InsertBatch calls of burstBatch
// when batched — so the ops after it land mid-burst; a join with n > 0
// places the next op n tuples into it. No WAL fault is armed while it runs,
// so every insert must ack: an error is itself a violation, reported at the
// next join.
func (r *runner) burstBG(i, n int, batched bool) {
	sub := r.subRNG(1000 + i)
	tuples := make([]model.Tuple, 0, n)
	for j := 0; j < n; j++ {
		key := model.Key(sub.Uint64() % keyDomain)
		r.virtualNow += model.Timestamp(1 + sub.Int63n(20))
		tuples = append(tuples, r.tupleAt(0, key, r.virtualNow))
		r.entries = append(r.entries, entry{key: key, ts: r.virtualNow})
		r.rep.Inserted++
	}
	size := 1
	if batched {
		size = burstBatch
	}
	c, acked := r.c, &wal.Watermark{}
	r.bg, r.bgLen = acked, int64(n)
	go func() {
		for len(tuples) > 0 {
			batch := tuples[:min(size, len(tuples))]
			tuples = tuples[len(batch):]
			var err error
			if batched {
				_, err = c.InsertBatch(batch)
			} else {
				err = c.Insert(batch[0])
			}
			if err != nil {
				acked.Fail(fmt.Errorf("background insert seq %d: %w", binary.BigEndian.Uint64(batch[0].Payload), err))
				return
			}
			acked.Add(int64(len(batch)))
		}
	}()
}

// join waits until the background burst, if any, has acked n of its tuples
// — all of them, and then it is over, when n is 0 — and reports its insert
// error.
func (r *runner) join(i, n int) {
	if r.bg == nil {
		return
	}
	want := r.bgLen
	if n > 0 {
		want = min(want, int64(n))
	}
	err := r.bg.Wait(want, nil)
	if err != nil {
		r.violate(i, "%v", err)
	}
	if err != nil || want == r.bgLen {
		r.bg = nil
	}
}

// skewBurst concentrates n tuples in a narrow key band, fed in InsertBatch
// calls of burstBatch, so the balancer's next tick has real skew to
// repartition around.
func (r *runner) skewBurst(i, n int) {
	sub := r.subRNG(i)
	hot := model.Key(sub.Uint64() % keyDomain)
	for j := 0; j < n; j += burstBatch {
		batch := make([]model.Tuple, 0, burstBatch)
		for len(batch) < min(burstBatch, n-j) {
			r.virtualNow += model.Timestamp(1 + sub.Int63n(10))
			batch = append(batch, r.tupleAt(len(batch), hot+model.Key(sub.Uint64()%512), r.virtualNow))
		}
		r.submitBatch(i, batch, false)
	}
}

// randQuery draws one temporal range query from sub: 80% a proper
// sub-range on both dimensions, 20% the full region.
func (r *runner) randQuery(sub *rand.Rand) model.Query {
	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	if sub.Intn(5) > 0 {
		lo := model.Key(sub.Uint64() % keyDomain)
		q.Keys = model.KeyRange{Lo: lo, Hi: lo + model.Key(sub.Uint64()%(keyDomain/4))}
		span := int64(r.virtualNow-baseTime) + 130_000
		tlo := baseTime - 130_000 + model.Timestamp(sub.Int63n(span))
		q.Times = model.TimeRange{Lo: tlo, Hi: tlo + model.Timestamp(sub.Int63n(span))}
	}
	return q
}

// acked returns how many oracle entries are acked now: all of them but
// those of the background burst, if any, that it has not acked yet. The
// burst's entries are the last ones (every op that adds entries joins it
// first).
func (r *runner) acked() int {
	n := len(r.entries)
	if r.bg != nil {
		n -= int(r.bgLen - r.bg.Load())
	}
	return n
}

// queryFailed checks a query's error against the faults in force: ErrBusy
// needs failing chunk writes (write faults armed, or every DFS node down),
// anything else a read fault or a DFS node loss.
func (r *runner) queryFailed(i int, what string, err error) {
	switch {
	case errors.Is(err, cluster.ErrBusy):
		if !r.writeFaults && len(r.killedDFS) < r.opts.Nodes {
			r.violate(i, "%s answered ErrBusy with no write fault armed: %v", what, err)
		}
	case !r.readFaultsPossible && len(r.killedDFS) == 0:
		r.violate(i, "%s failed with no read fault plausible: %v", what, err)
	}
}

// query runs one random temporal range query and checks it.
func (r *runner) query(i int) {
	q := r.randQuery(r.subRNG(i))
	r.rep.Queries++
	acked := r.acked()
	res, err := r.c.Query(q)
	if err != nil {
		r.queryFailed(i, "query", err)
		return
	}
	r.checkResult(i, q, res, acked)
}

// aggQuery cross-checks the aggregation-pushdown path against the tuple
// path: the SUM aggregate over a random region is sandwiched between two
// tuple queries of the same region. Each of the three sees every tuple
// acked before it was issued, so with nothing acked in between they see
// the same set; but a background burst may ack tuples between the calls.
// Visibility only grows, so when both tuple queries fold to the same
// partial the visible set provably did not move and the aggregate (which
// ran in between) must match it bit-for-bit. Chaos payloads are the
// 8-byte oracle sequence number, so field 0 is a valid uint64 on every
// tuple. When the folds differ the burst acked in between and the op only
// checks the tuple results.
func (r *runner) aggQuery(i int) {
	q := r.randQuery(r.subRNG(i))
	fold := func(res *model.Result) model.AggPartial {
		var p model.AggPartial
		for j := range res.Tuples {
			p.AddTuple(&res.Tuples[j], 0)
		}
		return p
	}
	r.rep.Queries++
	acked := r.acked()
	before, err := r.c.Query(q)
	if err != nil {
		r.queryFailed(i, "query", err)
		return
	}
	r.checkResult(i, q, before, acked)
	agg, err := r.c.Aggregate(model.AggregateQuery{
		Keys: q.Keys, Times: q.Times, Kind: model.AggSum, Field: 0,
	})
	if err != nil {
		r.queryFailed(i, "aggregate", err)
		return
	}
	r.rep.Queries++
	acked = r.acked()
	after, err := r.c.Query(q)
	if err != nil {
		r.queryFailed(i, "query", err)
		return
	}
	r.checkResult(i, q, after, acked)
	want := fold(before)
	if want != fold(after) {
		return // the burst acked in between: the sandwich cannot pin the exact answer
	}
	if agg.Count != want.Count || agg.Values != want.Values || agg.Sum != want.Sum {
		r.violate(i, "aggregate mismatch: count=%d/%d values=%d/%d sum=%d/%d (got/want)",
			agg.Count, want.Count, agg.Values, want.Values, agg.Sum, want.Sum)
	} else if want.Values > 0 && (agg.Min != want.Min || agg.Max != want.Max) {
		r.violate(i, "aggregate min/max mismatch: min=%d/%d max=%d/%d (got/want)",
			agg.Min, want.Min, agg.Max, want.Max)
	} else {
		r.rep.AggChecks++
	}
}

// queryConcurrent fires k random queries at the cluster at once — the
// schedule's probe for read-path races: overlapping queries contend on
// the dispatch workers, the shared extent flights and the LRU caches.
// The query specs are drawn up front from the op's sub-RNG and the
// (read-only) results are checked serially afterwards, so the op stays
// deterministic and oracle checks never race. Every query is checked
// against what was acked before the burst was issued.
func (r *runner) queryConcurrent(i, k int) {
	sub := r.subRNG(i)
	qs := make([]model.Query, k)
	for j := range qs {
		qs[j] = r.randQuery(sub)
	}
	results := make([]*model.Result, k)
	errs := make([]error, k)
	acked := r.acked()
	var wg sync.WaitGroup
	for j := range qs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			results[j], errs[j] = r.c.Query(qs[j])
		}(j)
	}
	wg.Wait()
	for j := range qs {
		r.rep.Queries++
		if errs[j] != nil {
			r.queryFailed(i, fmt.Sprintf("concurrent query %d", j), errs[j])
			continue
		}
		r.checkResult(i, qs[j], results[j], acked)
	}
}

// retention drops chunks wholly before a horizon trailing the stream clock
// and marks the oracle entries before it as optional-but-unique: a tuple
// at or after the horizon is in no chunk the drop touches.
func (r *runner) retention(i int) {
	sub := r.subRNG(i)
	horizon := r.virtualNow - 100_000 + model.Timestamp(sub.Int63n(50_000))
	for j := range r.entries {
		if r.entries[j].ts < horizon {
			r.entries[j].maybeDropped = true
		}
	}
	// The count varies with flush timing, so it stays out of the trace.
	r.rep.Dropped += r.c.DropChunksBefore(horizon)
}

// crashMidFlush forces every DFS write to fail, floods one indexing server
// past its flush threshold, waits until a snapshot is provably stuck in
// the pipeline (PendingFlushes > 0), and crashes the server with the flush
// in flight. The fault class counts as covered only when the stuck
// snapshot was actually observed.
func (r *runner) crashMidFlush(i, server int) {
	sub := r.subRNG(i)
	r.c.FS().SetWriteFailRate(1)
	kr := r.c.Metadata().Schema().IntervalOf(server)
	span := uint64(kr.Hi - kr.Lo)
	if span > 1<<16 {
		span = 1 << 16
	}
	// ~24 B per tuple vs a 4 KiB chunk threshold: 256 tuples cross it.
	for j := 0; j < 256; j++ {
		r.virtualNow += model.Timestamp(1 + sub.Int63n(3))
		r.insert(kr.Lo+model.Key(sub.Uint64()%(span+1)), r.virtualNow)
	}
	// Retired slots appear as nil in the slot table; a slot this op
	// targeted can retire under a concurrent schedule.
	srv := r.c.IndexServers()[server]
	stuck := srv != nil && srv.AwaitPendingFlush(wal.Deadline(2*time.Second))
	if err := r.c.KillIndexServer(server); err != nil {
		r.violate(i, "kill index server %d: %v", server, err)
	}
	r.rep.FaultsSeen[FaultTakeover] = true
	r.c.FS().ClearFaults()
	if stuck {
		r.rep.FaultsSeen[FaultCrashMidFlush] = true
		r.rep.FaultsSeen[FaultCrash] = true
		r.rep.FaultsSeen[FaultDFSWriteError] = true
	}
}

// heal clears injected faults and revives every killed DFS node.
func (r *runner) heal() {
	r.c.FS().ClearFaults()
	r.writeFaults = false
	for node := range r.killedDFS {
		r.c.FS().ReviveNode(node)
		delete(r.killedDFS, node)
	}
}

// barrier heals all faults, drains ingestion and the flush pipelines, and
// verifies completeness over the whole store: every acked tuple (minus
// retention-dropped ones) is returned exactly once by a full-region query.
func (r *runner) barrier(i int) {
	r.heal()
	r.c.Drain()
	r.verifyComplete(i)
	r.readFaultsPossible = false
}

func (r *runner) verifyComplete(i int) {
	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	acked := r.acked()
	res, err := r.c.Query(q)
	if err != nil {
		r.violate(i, "full-region query failed at barrier: %v", err)
		return
	}
	r.checkResult(i, q, res, acked)
}

// checkResult enforces the per-query invariants: soundness, order and
// uniqueness, and completeness — every eligible entry below acked, the
// count acked before the query was issued, whose tuple lies in its region.
func (r *runner) checkResult(i int, q model.Query, res *model.Result, acked int) {
	seen := make(map[uint64]bool, len(res.Tuples))
	for j := range res.Tuples {
		t := &res.Tuples[j]
		if j > 0 && model.CompareTuples(&res.Tuples[j-1], t) > 0 {
			r.violate(i, "result unsorted at index %d: %v after %v", j, t, &res.Tuples[j-1])
		}
		if !q.Keys.Contains(t.Key) || !q.Times.Contains(t.Time) {
			r.violate(i, "tuple %v outside query region %v/%v", t, q.Keys, q.Times)
		}
		if len(t.Payload) != 8 {
			r.violate(i, "tuple %v carries a malformed payload", t)
			continue
		}
		seq := binary.BigEndian.Uint64(t.Payload)
		if seq >= uint64(len(r.entries)) {
			r.violate(i, "tuple %v has unknown seq %d (acked %d)", t, seq, len(r.entries))
			continue
		}
		e := r.entries[seq]
		if e.rejected {
			r.violate(i, "seq %d (key=%d time=%d) was rejected, yet a query returned it", seq, e.key, e.ts)
		}
		if e.key != t.Key || e.ts != t.Time {
			r.violate(i, "seq %d returned as (%d,%d), acked as (%d,%d)",
				seq, t.Key, t.Time, e.key, e.ts)
		}
		if seen[seq] {
			r.violate(i, "seq %d returned more than once", seq)
		}
		seen[seq] = true
	}
	missing := 0
	for seq := range r.entries[:acked] {
		e := &r.entries[seq]
		if e.rejected || e.maybeDropped || seen[uint64(seq)] {
			continue
		}
		if !q.Keys.Contains(e.key) || !q.Times.Contains(e.ts) {
			continue
		}
		if r.ackLossOK {
			// Post-hard-crash under a policy that acks before fsync: the
			// loss is expected, quantified once, and not a violation.
			if !e.lost {
				e.lost = true
				r.rep.LostAcked++
			}
			continue
		}
		missing++
		if missing <= 5 { // cap the noise; the count is reported below
			r.violate(i, "acked seq %d (key=%d time=%d) missing from a query issued after its ack", seq, e.key, e.ts)
		}
	}
	if missing > 5 {
		r.violate(i, "%d acked tuples missing from the query in total", missing)
	}
}

// checkOffsets asserts that no indexing server's committed WAL offset ever
// moves backwards — the §V recovery contract.
func (r *runner) checkOffsets(i int) {
	ms := r.c.Metadata()
	// The slot set can grow mid-run; track every slot ever seen. Retired
	// slots keep their final offset, which the invariant still covers.
	nSlots := ms.Schema().Servers
	for len(r.maxOffsets) < nSlots {
		r.maxOffsets = append(r.maxOffsets, 0)
	}
	for s := 0; s < nSlots; s++ {
		off := ms.Offset(s)
		if off < r.maxOffsets[s] {
			r.violate(i, "server %d WAL offset regressed %d -> %d", s, r.maxOffsets[s], off)
		}
		r.maxOffsets[s] = off
	}
}

// collectMetrics reads the handoff metrics out of Options.Telemetry into
// the report, and flags a handoff whose ingest pause exceeds
// takeoverPauseBound.
func (r *runner) collectMetrics(i int) {
	if r.opts.Telemetry == nil {
		return
	}
	for _, m := range r.opts.Telemetry.Snapshot() {
		switch {
		case m.Name == "waterwheel_handoffs_total":
			r.rep.Handoffs = int64(m.Value)
		case m.Histogram == nil:
		case m.Name == "waterwheel_handoff_pause_seconds":
			r.rep.PauseMax, r.rep.PauseP99 = m.Histogram.Max, m.Histogram.P99
		case m.Name == "waterwheel_handoff_lag_records":
			// Recorded as records-as-seconds; convert back.
			r.rep.LagMax = int64(m.Histogram.Max / time.Second)
		}
	}
	if r.rep.PauseMax > takeoverPauseBound {
		r.violate(i, "handoff ingest pause %v exceeds bound %v", r.rep.PauseMax, takeoverPauseBound)
	}
}
