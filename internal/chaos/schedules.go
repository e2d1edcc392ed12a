package chaos

import (
	"fmt"
	"time"

	"waterwheel/internal/telemetry"
)

// The scripted schedules are the hand-aimed counterpart of the generated
// ones: each puts a failover, a topology change or a repartition at a
// specific hostile moment — mid-burst, mid-flush, mid-handoff, back to
// back — and the one runner holds the cluster to the same oracle-backed
// invariants. Each runs DataDir-backed under "ack-on-fsync" (so a lost
// acked tuple can never be excused), with a telemetry registry so the run
// also asserts on the metrics an operator would watch during a migration:
// at least one handoff, and every handoff's ingest pause, measured by the
// cluster itself into waterwheel_handoff_pause_seconds, under
// takeoverPauseBound. Every takeover is a cold one: a fresh server replays
// the slot's WAL from the committed offset.

// takeoverPauseBound is the ceiling every handoff's ingest pause is held
// to: less than one flush interval. The harness cluster flushes its 4 KiB
// memtables continuously and group-commits on a 50 ms cadence; a healthy
// takeover detaches the consumer, CASes ownership and reattaches in well
// under a millisecond, so 500 ms (one conservative flush cycle, with the
// histogram's 2x bucket quantization and CI scheduling noise absorbed) only
// trips when a drain, flush or replay sneaks into the pause window —
// exactly the regression it exists to catch.
const takeoverPauseBound = 500 * time.Millisecond

// Schedule is one named scripted scenario: a fixed op list, run exactly as
// a generated one is. Pick indexes are reduced against the live slot set at
// execution time.
type Schedule struct {
	Name string
	Seed int64
	ops  []op
}

// Schedules is the scripted suite. The comments name the moment each
// schedule attacks.
var Schedules = []Schedule{
	{
		// Owner dies while a background burst is in full flight: acks race
		// the kill, the successor replays a moving WAL tail.
		Name: "kill-mid-burst", Seed: 9001,
		ops: []op{
			{kind: opInsert, n: 200}, {kind: opBurstBG, n: 400}, {kind: opCrash, n: 1}, {kind: opJoin},
			{kind: opInsert, n: 120}, {kind: opBarrier},
		},
	},
	{
		// Owner dies with a flush snapshot provably stuck in the pipeline
		// (every DFS write failing): the takeover must not lose the
		// unflushed suffix the snapshot was carrying.
		Name: "kill-mid-flush", Seed: 9002,
		ops: []op{
			{kind: opInsert, n: 200}, {kind: opCrashMidFlush, n: 0}, {kind: opInsert, n: 100}, {kind: opBarrier},
		},
	},
	{
		// Kill lands immediately after a handoff flips ownership under load,
		// while the successor is still replaying its handoff debt.
		Name: "kill-mid-handoff", Seed: 9003,
		ops: []op{
			{kind: opBurstBG, n: 400}, {kind: opCrash, n: 0}, {kind: opCrash, n: 0}, {kind: opJoin},
			{kind: opInsert, n: 120}, {kind: opBarrier},
		},
	},
	{
		// Double failover, same slot: the second kill takes over the taker
		// before it has finished settling.
		Name: "double-failover-same-slot", Seed: 9004,
		ops: []op{
			{kind: opInsert, n: 250}, {kind: opCrash, n: 2}, {kind: opCrash, n: 2}, {kind: opInsert, n: 120}, {kind: opBarrier},
		},
	},
	{
		// Double failover, distinct slots, under load: two takeovers race
		// one background burst.
		Name: "double-failover-two-slots", Seed: 9005,
		ops: []op{
			{kind: opBurstBG, n: 500}, {kind: opCrash, n: 0}, {kind: opCrash, n: 3}, {kind: opJoin}, {kind: opBarrier},
		},
	},
	{
		// Scale-out mid-burst: the widest interval splits while acks are in
		// flight; tuples routed to the old owner after the split must land
		// exactly once. The freshly split slot is then handed off, and its
		// successor replays a partition that holds only the post-split suffix.
		Name: "add-mid-burst", Seed: 9006,
		ops: []op{
			{kind: opInsert, n: 200}, {kind: opBurstBG, n: 500}, {kind: opAddServer}, {kind: opJoin},
			{kind: opInsert, n: 150}, {kind: opCrash, n: 6}, {kind: opBarrier},
		},
	},
	{
		// Scale-in mid-burst: the retiring slot's partition seals under a
		// live burst, so straggler appends must reroute, not vanish.
		Name: "decommission-mid-burst", Seed: 9007,
		ops: []op{
			{kind: opInsert, n: 200}, {kind: opBurstBG, n: 500}, {kind: opDecommission, n: 1}, {kind: opJoin},
			{kind: opInsert, n: 150}, {kind: opBarrier},
		},
	},
	{
		// The neighbor that absorbed a decommissioned interval dies right
		// after the merge: its successor must replay the widened region.
		Name: "decommission-then-kill-neighbor", Seed: 9008,
		ops: []op{
			{kind: opInsert, n: 300}, {kind: opDecommission, n: 2}, {kind: opCrash, n: 2}, {kind: opInsert, n: 120}, {kind: opBarrier},
		},
	},
	{
		// Handoff right after a skew-driven repartition: the owner's key
		// interval moved under it before the flip, and its successor replays
		// tuples from both the old and the new interval. The burst fills the
		// balancer's sample (4 096 inserts at one sample in 16).
		Name: "handoff-under-repartition", Seed: 9009,
		ops: []op{
			{kind: opSkewBurst, n: 4500}, {kind: opBalance}, {kind: opCrash, n: 0},
			{kind: opInsert, n: 120}, {kind: opBarrier},
		},
	},
	{
		// Two handoffs back to back under sustained load: each successor
		// replays a moving WAL tail.
		Name: "planned-handoffs-under-load", Seed: 9010,
		ops: []op{
			{kind: opBurstBG, n: 600}, {kind: opCrash, n: 1}, {kind: opCrash, n: 3}, {kind: opJoin}, {kind: opBarrier},
		},
	},
	{
		// Takeovers followed by a full restart-from-disk: the reopened
		// coordinator must rebuild the post-churn topology from metadata
		// alone and still answer the complete oracle.
		Name: "takeover-then-restart", Seed: 9011,
		ops: []op{
			{kind: opInsert, n: 250}, {kind: opCrash, n: 1}, {kind: opAddServer}, {kind: opInsert, n: 150},
			{kind: opBarrier}, {kind: opRestart}, {kind: opBarrier},
		},
	},
	{
		// Six cold takeovers spread evenly across one burst fed the way
		// clients feed it, in InsertBatch calls: each kill lands while acks
		// are in flight, a seventh of the burst after the one before.
		Name: "six-kills-under-batched-burst", Seed: 9012,
		ops: []op{
			{kind: opBurstBG, n: 7000, alt: true},
			{kind: opJoin, n: 1000}, {kind: opCrash, n: 0}, {kind: opJoin, n: 2000}, {kind: opCrash, n: 1},
			{kind: opJoin, n: 3000}, {kind: opCrash, n: 2}, {kind: opJoin, n: 4000}, {kind: opCrash, n: 3},
			{kind: opJoin, n: 5000}, {kind: opCrash, n: 4}, {kind: opJoin, n: 6000}, {kind: opCrash, n: 5},
			{kind: opJoin}, {kind: opBarrier},
		},
	},
	{
		// Repartitions under churn. Each skew burst fills the balancer's
		// sample and lands on a fresh hot band, so each tick moves the
		// intervals; kills, one decommission and one add then hit slots
		// whose intervals just moved.
		Name: "repartition-under-churn", Seed: 9013,
		ops: []op{
			{kind: opSkewBurst, n: 4500}, {kind: opBalance}, {kind: opCrash, n: 0},
			{kind: opSkewBurst, n: 4500}, {kind: opBalance}, {kind: opDecommission, n: 1},
			{kind: opSkewBurst, n: 4500}, {kind: opBalance}, {kind: opAddServer}, {kind: opCrash, n: 2},
			{kind: opInsert, n: 200}, {kind: opBarrier},
		},
	},
}

// Run executes the schedule against a fresh cluster in dataDir under
// "ack-on-fsync" with a telemetry registry, and flags a run that recorded
// no handoff. Like the package's Run it never fails a test itself; callers
// inspect Report.Violations.
func (s Schedule) Run(dataDir string) (*Report, error) {
	rep, err := run(Options{
		Seed:       s.Seed,
		Nodes:      3,
		DataDir:    dataDir,
		Durability: "ack-on-fsync",
		Telemetry:  telemetry.NewRegistry(),
	}, s.ops)
	if err == nil && rep.Handoffs == 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("op %03d: schedule %s recorded no handoffs", len(s.ops), s.Name))
	}
	return rep, err
}
