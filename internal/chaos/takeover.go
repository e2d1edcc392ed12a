package chaos

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// The takeover suite is the scripted counterpart of the random elastic
// schedule: a table of named, seeded scenarios that each aim a failover or
// topology change at a specific hostile moment — mid-burst, mid-flush,
// mid-handoff, back-to-back — and then hold the cluster to the same
// oracle-backed invariants the random harness enforces:
//
//   - zero acked-tuple loss under ack-on-fsync at every heal barrier;
//   - results sorted and region-contained on every verifying query;
//   - WAL/metadata offsets never regress;
//   - every handoff's ingest pause, measured by the cluster itself into
//     waterwheel_handoff_pause_seconds, stays under takeoverPauseBound.
//
// Every takeover is a cold one: a fresh server replays the slot's WAL from
// the committed offset. Scenarios run with DataDir-backed durability under
// "ack-on-fsync" (so a lost acked tuple can never be excused), and a
// telemetry registry so the suite asserts against the exact metrics an
// operator would watch during a real migration.

// takeoverPauseBound is the ceiling the suite holds every handoff's ingest
// pause to — the ISSUE's "less than one flush interval". The harness
// cluster flushes its 4 KiB memtables continuously and group-commits on a
// 50 ms cadence; a healthy takeover detaches the consumer, CASes ownership
// and reattaches in well under a millisecond, so 500 ms (one conservative
// flush cycle, with the histogram's 2x bucket quantization and CI
// scheduling noise absorbed) only trips when a drain, flush or replay
// sneaks into the pause window — exactly the regression it exists to catch.
const takeoverPauseBound = 500 * time.Millisecond

// tkStep is one scripted step. pick indexes are reduced against the live
// slot set at execution time, exactly like the random schedule's.
type tkStep struct {
	op string // see takeoverRunner.step
	n  int    // tuple count for bursts, pick index for slot-targeted ops
}

// TakeoverSchedule is one named scripted scenario.
type TakeoverSchedule struct {
	Name  string
	Seed  int64
	Steps []tkStep
}

// TakeoverSchedules is the suite: every scenario the acceptance gate runs.
// Each entry targets one hostile interleaving the elastic design must
// survive; the comments name the moment being attacked.
var TakeoverSchedules = []TakeoverSchedule{
	{
		// Owner dies while a background burst is in full flight: acks race
		// the kill, the successor replays a moving WAL tail.
		Name: "kill-mid-burst", Seed: 9001,
		Steps: []tkStep{
			{"burst", 200}, {"burst-bg", 400}, {"kill", 1}, {"join", 0},
			{"burst", 120}, {"barrier", 0},
		},
	},
	{
		// Owner dies with a flush snapshot provably stuck in the pipeline
		// (every DFS write failing): the takeover must not lose the
		// unflushed suffix the snapshot was carrying.
		Name: "kill-mid-flush", Seed: 9002,
		Steps: []tkStep{
			{"burst", 200}, {"midflush-kill", 0}, {"burst", 100}, {"barrier", 0},
		},
	},
	{
		// Kill lands immediately after a handoff flips ownership under load,
		// while the successor is still replaying its handoff debt.
		Name: "kill-mid-handoff", Seed: 9003,
		Steps: []tkStep{
			{"burst-bg", 400}, {"kill", 0}, {"kill", 0}, {"join", 0},
			{"burst", 120}, {"barrier", 0},
		},
	},
	{
		// Double failover, same slot: the second kill takes over the taker
		// before it has finished settling.
		Name: "double-failover-same-slot", Seed: 9004,
		Steps: []tkStep{
			{"burst", 250}, {"kill", 2}, {"kill", 2}, {"burst", 120}, {"barrier", 0},
		},
	},
	{
		// Double failover, distinct slots, under load: two takeovers race
		// one background burst.
		Name: "double-failover-two-slots", Seed: 9005,
		Steps: []tkStep{
			{"burst-bg", 500}, {"kill", 0}, {"kill", 3}, {"join", 0}, {"barrier", 0},
		},
	},
	{
		// Scale-out mid-burst: the widest interval splits while acks are in
		// flight; tuples routed to the old owner after the split must land
		// exactly once. The freshly split slot is then handed off, and its
		// successor replays a partition that holds only the post-split suffix.
		Name: "add-mid-burst", Seed: 9006,
		Steps: []tkStep{
			{"burst", 200}, {"burst-bg", 500}, {"add", 0}, {"join", 0},
			{"burst", 150}, {"kill", 6}, {"barrier", 0},
		},
	},
	{
		// Scale-in mid-burst: the retiring slot's partition seals under a
		// live burst, so straggler appends must reroute, not vanish.
		Name: "decommission-mid-burst", Seed: 9007,
		Steps: []tkStep{
			{"burst", 200}, {"burst-bg", 500}, {"decom", 1}, {"join", 0},
			{"burst", 150}, {"barrier", 0},
		},
	},
	{
		// The neighbor that absorbed a decommissioned interval dies right
		// after the merge: its successor must replay the widened region.
		Name: "decommission-then-kill-neighbor", Seed: 9008,
		Steps: []tkStep{
			{"burst", 300}, {"decom", 2}, {"kill", 2}, {"burst", 120}, {"barrier", 0},
		},
	},
	{
		// Handoff right after a skew-driven repartition: the owner's key
		// interval moved under it before the flip, and its successor replays
		// tuples from both the old and the new interval.
		Name: "handoff-under-repartition", Seed: 9009,
		Steps: []tkStep{
			{"skew-burst", 400}, {"balance", 0}, {"kill", 0},
			{"burst", 120}, {"barrier", 0},
		},
	},
	{
		// Two handoffs back to back under sustained load: each successor
		// replays a moving WAL tail.
		Name: "planned-handoffs-under-load", Seed: 9010,
		Steps: []tkStep{
			{"burst-bg", 600}, {"kill", 1}, {"kill", 3}, {"join", 0},
			{"barrier", 0},
		},
	},
	{
		// Takeovers followed by a full restart-from-disk: the reopened
		// coordinator must rebuild the post-churn topology from metadata
		// alone and still answer the complete oracle.
		Name: "takeover-then-restart", Seed: 9011,
		Steps: []tkStep{
			{"burst", 250}, {"kill", 1}, {"add", 0}, {"burst", 150},
			{"barrier", 0}, {"restart", 0}, {"barrier", 0},
		},
	},
}

// TakeoverReport is a scenario's outcome: the base oracle report plus the
// handoff metrics the suite asserted against.
type TakeoverReport struct {
	*Report
	Schedule string
	Handoffs int64         // waterwheel_handoffs_total
	PauseMax time.Duration // waterwheel_handoff_pause_seconds max (bucket upper bound)
	PauseP99 time.Duration // ... p99
	LagMax   int64         // waterwheel_handoff_lag_records max, in records
}

// takeoverRunner drives one scripted scenario. It reuses the random
// harness's runner (oracle, invariant checks, barrier machinery) and adds
// background bursts: tuples are pre-generated and reserved in the oracle on
// the main thread, then acked from a goroutine so failovers land mid-ack.
type takeoverRunner struct {
	*runner
	bg    sync.WaitGroup
	bgErr chan string
}

// RunTakeover executes one scenario against a fresh DataDir-backed cluster
// under ack-on-fsync, and returns its report. Like Run it
// never fails the test itself; callers inspect Report.Violations.
func RunTakeover(s TakeoverSchedule, dataDir string) (*TakeoverReport, error) {
	opts := Options{
		Seed:       s.Seed,
		Nodes:      3,
		DataDir:    dataDir,
		Durability: "ack-on-fsync",
		Elastic:    true,
		Telemetry:  telemetry.NewRegistry(),
	}
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	tr := &takeoverRunner{runner: r, bgErr: make(chan string, 16)}
	for i, st := range s.Steps {
		tr.trace(i, "%s n=%d", st.op, st.n)
		tr.step(i, st)
		tr.checkOffsets(i)
	}
	tr.join(len(s.Steps))
	tr.barrier(len(s.Steps))
	rep := tr.collectMetrics(s)
	tr.c.Stop()
	return rep, nil
}

func (tr *takeoverRunner) step(i int, st tkStep) {
	switch st.op {
	case "burst":
		tr.join(i)
		tr.insertBatch(i, st.n)
	case "skew-burst":
		tr.join(i)
		tr.skewBurst(i, st.n)
	case "burst-bg":
		tr.join(i)
		tr.burstBG(i, st.n)
	case "join":
		tr.join(i)
	case "flush":
		tr.c.FlushAll()
	case "balance":
		tr.c.TickBalance()
	case "midflush-kill":
		tr.join(i)
		tr.crashMidFlush(i, tr.pickSlot(st.n))
		tr.rep.FaultsSeen[FaultTakeover] = true
	case "add":
		tr.addServer(i)
	case "decom":
		tr.decommission(i, st.n)
	case "kill":
		server := tr.pickSlot(st.n)
		if err := tr.c.KillIndexServer(server); err != nil {
			tr.violate(i, "kill index server %d: %v", server, err)
		}
		tr.rep.FaultsSeen[FaultCrash] = true
		tr.rep.FaultsSeen[FaultTakeover] = true
	case "barrier":
		tr.join(i)
		tr.barrier(i)
	case "restart":
		tr.join(i)
		tr.restart(i)
	default:
		tr.violate(i, "unknown takeover step %q", st.op)
	}
}

// burstBG reserves n oracle entries on the main thread (keys, timestamps
// and sequence numbers are fixed deterministically before launch), then
// acks them from a goroutine so subsequent steps land mid-burst. The
// scenarios arm no WAL faults, so every one of these inserts must ack —
// an insert error is itself a violation, collected at the next join.
func (tr *takeoverRunner) burstBG(i, n int) {
	sub := tr.subRNG(int(1000 + i))
	tuples := make([]model.Tuple, 0, n)
	for j := 0; j < n; j++ {
		key := model.Key(sub.Uint64() % keyDomain)
		tr.virtualNow += model.Timestamp(1 + sub.Int63n(20))
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, uint64(len(tr.entries)))
		tuples = append(tuples, model.Tuple{Key: key, Time: tr.virtualNow, Payload: payload})
		tr.entries = append(tr.entries, entry{key: key, ts: tr.virtualNow})
		tr.rep.Inserted++
	}
	c := tr.c
	tr.bg.Add(1)
	go func() {
		defer tr.bg.Done()
		for j := range tuples {
			if err := c.Insert(tuples[j]); err != nil {
				select {
				case tr.bgErr <- fmt.Sprintf("background insert seq %d: %v",
					binary.BigEndian.Uint64(tuples[j].Payload), err):
				default:
				}
				return
			}
		}
	}()
}

// join waits out any background burst and surfaces its errors. Every step
// that touches the oracle or replaces the cluster joins first.
func (tr *takeoverRunner) join(i int) {
	tr.bg.Wait()
	for {
		select {
		case msg := <-tr.bgErr:
			tr.violate(i, "%s", msg)
		default:
			return
		}
	}
}

// skewBurst concentrates n tuples in a narrow key band so the balancer's
// next tick has real skew to repartition around.
func (tr *takeoverRunner) skewBurst(i, n int) {
	sub := tr.subRNG(i)
	hot := model.Key(sub.Uint64() % keyDomain)
	for j := 0; j < n; j++ {
		tr.virtualNow += model.Timestamp(1 + sub.Int63n(10))
		tr.insert(hot+model.Key(sub.Uint64()%512), tr.virtualNow)
	}
}

// restart stops the cluster and reopens it from the DataDir — the
// coordinator-restart-from-metadata path, after elastic churn.
func (tr *takeoverRunner) restart(i int) {
	tr.heal()
	tr.c.Stop()
	c2, err := cluster.Open(clusterConfig(tr.opts))
	if err != nil {
		tr.violate(i, "reopen after takeover churn: %v", err)
		return
	}
	tr.c = c2
	c2.Start()
	c2.Drain()
	tr.trace(i, "restart: reopened from %s with %d active slots",
		tr.opts.DataDir, len(c2.ActiveSlots()))
}

// collectMetrics reads the handoff metrics out of the registry and turns
// them into assertions: at least one handoff must have been recorded, and
// no pause may exceed takeoverPauseBound.
func (tr *takeoverRunner) collectMetrics(s TakeoverSchedule) *TakeoverReport {
	rep := &TakeoverReport{Report: tr.rep, Schedule: s.Name}
	for _, m := range tr.opts.Telemetry.Snapshot() {
		switch m.Name {
		case "waterwheel_handoffs_total":
			rep.Handoffs = int64(m.Value)
		case "waterwheel_handoff_pause_seconds":
			if m.Histogram != nil {
				rep.PauseMax = m.Histogram.Max
				rep.PauseP99 = m.Histogram.P99
			}
		case "waterwheel_handoff_lag_records":
			if m.Histogram != nil {
				// Recorded as records-as-seconds; convert back.
				rep.LagMax = int64(m.Histogram.Max / time.Second)
			}
		}
	}
	if rep.Handoffs == 0 {
		tr.violate(len(s.Steps), "schedule %s recorded no handoffs", s.Name)
	}
	if rep.PauseMax > takeoverPauseBound {
		tr.violate(len(s.Steps), "handoff ingest pause %v exceeds bound %v",
			rep.PauseMax, takeoverPauseBound)
	}
	return rep
}
