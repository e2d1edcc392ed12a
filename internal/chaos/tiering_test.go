package chaos

import (
	"testing"

	"waterwheel/internal/telemetry"
)

// TestChaosRetentionTieringSchedule is the retention suite: a hand-built
// schedule that interleaves tiered retention (demote → compact → drop)
// with concurrent queries, WAL truncation and standby takeovers. Enough
// virtual stream time passes that chunks age through warm into cold and
// real merges happen; the heal barriers then prove zero acked-tuple loss
// (completeness) and the query checks prove zero mid-query retirement
// errors — a chunk registered when a query planned stays readable until
// the query completes.
func TestChaosRetentionTieringSchedule(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := newRunner(Options{Seed: 77, Tiering: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var sched []op
	// ~7200 inserts advance the virtual clock ~75 s — past the 60 s cold
	// threshold — while retention, queries and takeovers interleave.
	for k := 0; k < 60; k++ {
		sched = append(sched, op{kind: opInsert, n: 120})
		switch k % 6 {
		case 1:
			sched = append(sched, op{kind: opFlush}, op{kind: opQuery})
		case 2:
			sched = append(sched, op{kind: opRetention}, op{kind: opQueryConcurrent, n: 4})
		case 3:
			sched = append(sched, op{kind: opCheckpoint}, op{kind: opAggQuery})
		case 4:
			sched = append(sched, op{kind: opKillWithStandby, n: k}, op{kind: opQuery})
		case 5:
			sched = append(sched, op{kind: opPromote, n: k}, op{kind: opRetention}, op{kind: opBarrier})
		}
	}
	sched = append(sched, op{kind: opBarrier})
	r.runSchedule(sched)
	demotions := reg.Counter("waterwheel_tier_demotions_total", "").Value()
	merges := reg.Counter("waterwheel_compactions_total", "").Value()
	r.c.Stop()

	report(t, r.rep)
	if demotions == 0 {
		t.Error("no chunks ever demoted: the schedule never exercised tiering")
	}
	if merges == 0 {
		t.Error("no cold chunks ever merged: the schedule never exercised compaction")
	}
}

// TestChaosTieringSeeds runs the randomized harness with tiering on over
// a bank of seeds: retention ops demote and compact before dropping, and
// every run must still finish with zero invariant violations.
func TestChaosTieringSeeds(t *testing.T) {
	seeds := []int64{41, 42, 43, 44}
	ops := 60
	if !testing.Short() {
		seeds = append(seeds, 45, 46, 47, 48)
		ops = 120
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(sName(seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Options{Seed: seed, Ops: ops, Tiering: true})
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
