package chaos

import (
	"slices"
	"strings"
	"testing"
)

// report fails the test on violations, printing the seed and the tail of
// the op trace so the scenario can be replayed exactly.
func report(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Violations) == 0 {
		return
	}
	tail := rep.Trace
	if len(tail) > 30 {
		tail = tail[len(tail)-30:]
	}
	t.Errorf("seed %d: %d invariant violations:\n  %s\nop trace (tail):\n  %s",
		rep.Seed, len(rep.Violations),
		strings.Join(rep.Violations, "\n  "),
		strings.Join(tail, "\n  "))
}

// TestChaosSeeds drives the full harness over a bank of fixed seeds: 8 in
// -short mode, more in full mode. Every run must finish with zero
// invariant violations; a failure prints the seed and op trace needed to
// reproduce it (go test ./internal/chaos -run TestChaosSeeds/seed=N).
func TestChaosSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	ops := 60
	if !testing.Short() {
		for s := int64(9); s <= 24; s++ {
			seeds = append(seeds, s)
		}
		ops = 140
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(sName(seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Options{Seed: seed, Ops: ops})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			report(t, rep)
			if rep.Inserted == 0 || rep.Queries == 0 {
				t.Errorf("seed %d: degenerate schedule (inserted=%d queries=%d)",
					seed, rep.Inserted, rep.Queries)
			}
		})
	}
}

func sName(seed int64) string {
	return "seed=" + string(rune('0'+seed/10)) + string(rune('0'+seed%10))
}

// TestChaosTraceDeterminism: the same seed must produce the identical op
// trace on every run — the property that makes a failing seed replayable.
func TestChaosTraceDeterminism(t *testing.T) {
	opts := Options{Seed: 5, Ops: 50}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace diverged at op %d:\n  run1: %s\n  run2: %s", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.Inserted != b.Inserted || a.Queries != b.Queries {
		t.Errorf("op counts diverged: (%d,%d) vs (%d,%d)",
			a.Inserted, a.Queries, b.Inserted, b.Queries)
	}
	report(t, a)
	report(t, b)
}

// TestScheduleTraceDeterminism: a scripted schedule — a background burst,
// kills, an add and a restart from disk among its ops — produces the
// identical op trace on every run, as a generated one does.
func TestScheduleTraceDeterminism(t *testing.T) {
	var s Schedule
	for _, s = range Schedules {
		if s.Name == "takeover-then-restart" {
			break
		}
	}
	var traces [2][]string
	for k := range traces {
		rep, err := s.Run(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		report(t, rep)
		traces[k] = rep.Trace
	}
	if !slices.Equal(traces[0], traces[1]) {
		t.Fatalf("the traces of two runs of %s differ:\n  run1: %s\n  run2: %s", s.Name,
			strings.Join(traces[0], "\n        "), strings.Join(traces[1], "\n        "))
	}
}

// TestChaosFaultClassCoverage runs a hand-built schedule that provably
// exercises each required fault class — DFS node loss, transient DFS write
// error (observed via the injection counters), and an indexing-server
// crash with a flush stuck in flight (observed via PendingFlushes) — and
// still ends with zero invariant violations.
func TestChaosFaultClassCoverage(t *testing.T) {
	r, err := newRunner(Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sched := []op{
		{kind: opInsert, n: 80},
		{kind: opInsert, n: 80},
		{kind: opBarrier},
		// Class 1: DFS node loss while inserting and querying.
		{kind: opKillDFS, n: 0},
		{kind: opInsert, n: 60},
		{kind: opQuery},
		{kind: opBarrier},
		// Class 2: transient DFS write errors under a forced flush.
		{kind: opWriteFaults, n: 4},
		{kind: opFlush},
		{kind: opBarrier},
		// Transient read errors under a query.
		{kind: opReadFaults, n: 3},
		{kind: opQuery},
		{kind: opBarrier},
		// Class 3: crash with a snapshot provably stuck mid-flush.
		{kind: opCrashMidFlush, n: 1},
		{kind: opBarrier},
		// Plain crash + WAL replay on a different server.
		{kind: opCrash, n: 4},
		{kind: opInsert, n: 40},
		{kind: opBarrier},
	}
	r.runSchedule(sched)
	m := r.c.FS().Metrics()
	injectedWrites := m.InjectedWriteFailures.Load()
	r.c.Stop()

	report(t, r.rep)
	for _, class := range []string{FaultDFSNodeLoss, FaultDFSWriteError, FaultCrash, FaultCrashMidFlush} {
		if !r.rep.FaultsSeen[class] {
			t.Errorf("fault class %q not covered", class)
		}
	}
	if injectedWrites == 0 {
		t.Error("no DFS write failures were actually injected")
	}
}

// TestChaosBatchWALFault runs a hand-built schedule that provably drives
// the vectorized insert path into a WAL append fault on ONE of the servers
// a batch routes to — every insert-batch op with a fault arms a one-shot
// rejection on a partition the batch reaches — and then verifies the
// reported positions at heal barriers: completeness proves no acked tuple
// was dropped, and a rejected tuple that a query returns is flagged.
//
// The chaos key domain (1<<20) lies wholly inside server 0's interval of
// the initial even split of the 64-bit key space, where every fault rejects
// its whole batch and any report of positions passes. So the schedule first
// feeds the samplers enough keys for a balancer tick to fire (256 samples at
// one in 16), which spreads the domain over all six servers; from then on a
// fault rejects one server's share and the run must see partial acks.
func TestChaosBatchWALFault(t *testing.T) {
	r, err := newRunner(Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sched := []op{
		{kind: opInsert, n: 4500},
		{kind: opBalance},
		{kind: opInsertBatch, n: 150, alt: true},
		{kind: opBarrier},
		{kind: opInsertBatch, n: 200, alt: true},
		{kind: opQuery},
		{kind: opInsertBatch, n: 120}, // no fault: must fully ack
		{kind: opBarrier},
		// A fault while a crash-recovered server replays its WAL tail.
		{kind: opCrash, n: 0},
		{kind: opInsertBatch, n: 150, alt: true},
		{kind: opBarrier},
	}
	r.runSchedule(sched)
	version := r.c.Metadata().Schema().Version
	r.c.Stop()
	report(t, r.rep)
	if !r.rep.FaultsSeen[FaultWALAppend] {
		t.Error("WAL append fault class not covered")
	}
	if version < 2 {
		t.Error("the balancer tick did not repartition: every chaos key still routes to server 0")
	}
	if r.rep.BatchRejections != 3 {
		t.Errorf("%d of the 3 armed WAL faults rejected anything", r.rep.BatchRejections)
	}
	if r.rep.PartialRejections == 0 {
		t.Error("every fault rejected its whole batch (0 < acked < len never happened): the probe cannot tell right positions from wrong ones")
	}
	if r.rep.Inserted == 0 {
		t.Error("degenerate schedule: nothing inserted")
	}
}

// TestChaosAggregateChecks drives a hand-built schedule of flushes and
// barriers and cross-checks temporal and aggregate queries against the
// oracle over a mix of chunks and memtable data. The run must prove that
// aggregate results were verified exactly — random schedules may skip
// every check when ingestion never quiesces around an aggregate.
func TestChaosAggregateChecks(t *testing.T) {
	r, err := newRunner(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sched := []op{
		{kind: opInsert, n: 100},
		{kind: opFlush},
		{kind: opInsert, n: 100},
		{kind: opFlush},
		{kind: opQuery},
		// Barrier before each aggregate check: with ingestion quiescent the
		// sandwich always pins an exact answer, so AggChecks must advance.
		{kind: opBarrier},
		{kind: opAggQuery},
		{kind: opInsert, n: 100},
		{kind: opFlush},
		{kind: opBarrier},
		{kind: opAggQuery},
		{kind: opQueryConcurrent, n: 4},
		{kind: opBarrier},
	}
	r.runSchedule(sched)
	r.c.Stop()
	report(t, r.rep)
	if r.rep.AggChecks == 0 {
		t.Error("no aggregate query was verified against the tuple path")
	}
}

// TestChaosDurableRestart runs a seed against a disk-backed cluster, then
// stops it, reopens from the same data directory and re-verifies that
// every acked tuple survived — recovery across a full process "restart".
func TestChaosDurableRestart(t *testing.T) {
	rep, err := Run(Options{Seed: 11, Ops: 40, DataDir: t.TempDir(), Restart: true})
	if err != nil {
		t.Fatal(err)
	}
	report(t, rep)
	if rep.Inserted == 0 {
		t.Error("degenerate schedule: nothing inserted")
	}
}

// TestChaosHardCrashAckOnFsync: with fsync-acknowledged inserts, a hard
// crash (WAL truncated to the fsync watermark, no checkpoint, flushers
// aborted) must lose zero acked tuples — any loss is a violation, and
// LostAcked stays zero because the policy permits none.
func TestChaosHardCrashAckOnFsync(t *testing.T) {
	rep, err := Run(Options{
		Seed: 21, Ops: 40, DataDir: t.TempDir(),
		Durability: "ack-on-fsync", HardCrash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	report(t, rep)
	if rep.LostAcked != 0 {
		t.Errorf("ack-on-fsync lost %d acked tuples across a hard crash", rep.LostAcked)
	}
	if rep.Inserted == 0 {
		t.Error("degenerate schedule: nothing inserted")
	}
}

// TestChaosHardCrashAckOnWriteLosesTail replays the SAME seed under the
// default ack-on-write policy: the hard-crash op's acked tail lives only in
// the page cache when the host dies, so the run must demonstrate acked-tuple
// loss (that is the gap ack-on-fsync closes) while still committing zero
// soundness or uniqueness violations.
func TestChaosHardCrashAckOnWriteLosesTail(t *testing.T) {
	rep, err := Run(Options{Seed: 21, Ops: 40, DataDir: t.TempDir(), HardCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	report(t, rep) // loss is expected and accounted; violations are not
	if rep.LostAcked == 0 {
		t.Error("ack-on-write hard crash lost nothing: the durability gap probe is inert")
	}
}

// TestChaosHardCrashInterval: background-fsync durability makes loss
// timing-dependent, so the run only asserts soundness (no violations) and
// that whatever was lost is accounted, not silently missing.
func TestChaosHardCrashInterval(t *testing.T) {
	rep, err := Run(Options{
		Seed: 22, Ops: 40, DataDir: t.TempDir(),
		Durability: "interval", HardCrash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	report(t, rep)
}
