package chaos

import "testing"

// TestChaosRetentionSchedule is the retention suite: a hand-built schedule
// that interleaves retention drops with concurrent queries, WAL truncation
// and takeovers. Enough virtual stream time passes that the horizon trails
// past flushed chunks and real drops happen; the heal barriers then prove
// zero acked-tuple loss at or after every horizon (completeness) and the
// query checks prove zero mid-query retirement errors — a chunk registered
// when a query planned stays readable until the query completes.
func TestChaosRetentionSchedule(t *testing.T) {
	r, err := newRunner(Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var sched []op
	// ~7200 inserts advance the virtual clock ~75 s — past the 50–100 s lag
	// of the retention horizon — while retention, queries and takeovers
	// interleave.
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
			sched = append(sched, op{kind: opCrash, n: k}, op{kind: opQuery})
		case 5:
			sched = append(sched, op{kind: opCrash, n: k}, op{kind: opRetention}, op{kind: opBarrier})
		}
	}
	sched = append(sched, op{kind: opBarrier})
	r.runSchedule(sched)
	r.c.Stop()

	report(t, r.rep)
	t.Logf("retention dropped %d chunks", r.rep.Dropped)
	if r.rep.Dropped == 0 {
		t.Error("retention never dropped a chunk: the schedule never exercised it")
	}
}
