package waterwheel

import (
	"math"
	"testing"
	"time"

	"waterwheel/internal/workload"
)

// TestDriftingIngestRebuildsAmortize drives a drifting key stream through
// two indexing servers at 1 MiB chunks with the balancer off: every
// consumer block lands past the last separator of its tree, so every skew
// check finds the edge leaf over the threshold. The template's check
// schedule must still bound the rebuilds per fill by a logarithm of the
// fill over the check cadence — a fixed cadence rebuilt about 9 times per
// flush here — and a COUNT(*) issued right after the last ack must see
// every acked tuple. How long that COUNT(*) waits for the consumers is
// logged, not gated.
func TestDriftingIngestRebuildsAmortize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("streams 1.5 M tuples")
	}
	const (
		total      = 1_500_000
		chunkBytes = 1 << 20
		checkEvery = 4096 // the template's default skew-check cadence
	)
	db := openTestDB(t, Options{IndexServersPerNode: 2, ChunkBytes: chunkBytes})
	g := workload.NewNormal(workload.NormalConfig{
		Sigma: 1e6, EventsPerSecond: 1000, DriftPerSecond: 2e5, Seed: 1,
	})
	buf := make([]Tuple, 256)
	size := 0
	start := time.Now()
	for acked := 0; acked < total; {
		batch := buf[:min(len(buf), total-acked)]
		for i := range batch {
			batch[i] = g.Next()
		}
		size = batch[0].Size()
		if err := db.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		acked += len(batch)
	}
	acks := time.Since(start)
	start = time.Now()
	res, err := db.Aggregate(AggregateQuery{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d tuples acked in %v; the first COUNT(*) answered %v later", total, acks, time.Since(start))
	if res.Count != total {
		t.Fatalf("COUNT(*) = %d, want every acked tuple (%d)", res.Count, total)
	}
	st := db.Stats()
	fill := math.Ceil(chunkBytes / float64(size))
	perFill := int64(math.Ceil(math.Log2(fill/checkEvery))) + 1
	fills := st.Flushes + int64(len(db.ActiveSlots()))
	t.Logf("%d template rebuilds over %d flushes and %d live trees (bound %d per fill)",
		st.TemplateUpdates, st.Flushes, len(db.ActiveSlots()), perFill)
	if st.TemplateUpdates > perFill*fills {
		t.Errorf("%d template rebuilds over %d fills, want at most %d per fill of %.0f tuples",
			st.TemplateUpdates, fills, perFill, fill)
	}
}
