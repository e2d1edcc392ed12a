package bench

import (
	"fmt"
	"sync"
	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// runHandoff measures elastic live region migration under sustained
// ingest: a feeder keeps inserting while the harness flips slot ownership
// — planned handoffs (standby promotions) in one pass, failover takeovers
// (owner kills, the standby takes over) in the other — and the table
// reports the pause and lag histograms the cluster records. The headline
// claim is the pause column: ingest into the WAL never stops, and the
// consumer gap per handoff stays far under a flush interval.
func runHandoff(opt Options) (*Report, error) {
	n := opt.n(120_000)
	const handoffs = 6
	rep := &Report{
		ID:     "handoff",
		Title:  "Live region migration: ingest pause and standby lag per handoff",
		Header: []string{"mode", "handoffs", "pause_mean", "pause_p99", "pause_max", "lag_max_recs", "tuples/s", "verified"},
		Notes: []string{
			"pause = consumer detach to successor consuming (waterwheel_handoff_pause_seconds)",
			"lag = WAL records the successor replays to catch up (waterwheel_handoff_lag_records)",
			"ingest continues through every flip; verified = full-region count equals inserts",
		},
	}
	for _, mode := range []string{"planned", "failover"} {
		reg := telemetry.NewRegistry()
		c, err := cluster.Open(cluster.Config{
			Nodes: 3, IndexServersPerNode: 2, ChunkBytes: 256 << 10,
			HotStandby: true, Seed: opt.Seed, Telemetry: reg,
		})
		if err != nil {
			return nil, err
		}
		c.Start()
		// inserted counts acked tuples; the feeder fails it with its error.
		var inserted wal.Watermark
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			rng := newRand(opt.Seed)
			batch := make([]model.Tuple, 0, 64)
			for i := 0; i < n; i++ {
				batch = append(batch, model.Tuple{
					Key:     model.Key(rng.Uint64()),
					Time:    model.Timestamp(i),
					Payload: []byte{byte(i)},
				})
				if len(batch) == cap(batch) || i == n-1 {
					if _, err := c.InsertBatch(batch); err != nil {
						inserted.Fail(err)
						return
					}
					inserted.Add(int64(len(batch)))
					batch = batch[:0]
				}
			}
		}()
		for h := 0; h < handoffs; h++ {
			target := int64(n) * int64(h+1) / int64(handoffs+1)
			if inserted.Wait(target, nil) != nil {
				break // reported below
			}
			slots := c.ActiveSlots()
			slot := slots[h%len(slots)]
			var err error
			if mode == "planned" {
				err = c.PromoteStandby(slot)
			} else {
				err = c.KillIndexServer(slot)
			}
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("handoff %d (%s, slot %d): %w", h, mode, slot, err)
			}
			opt.logf("handoff %s %d/%d: slot %d flipped at %d inserts",
				mode, h+1, handoffs, slot, inserted.Load())
		}
		wg.Wait()
		if err := inserted.Wait(int64(n), nil); err != nil {
			c.Stop()
			return nil, err
		}
		wall := time.Since(start)
		c.Drain() // a failed barrier shows as verified = NO below
		res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
		if err != nil {
			c.Stop()
			return nil, err
		}
		verified := "yes"
		if len(res.Tuples) != n {
			verified = fmt.Sprintf("NO (%d/%d)", len(res.Tuples), n)
		}
		var flips int64
		var pause *telemetry.HistogramSnapshot
		var lagMax int64
		for _, m := range reg.Snapshot() {
			switch m.Name {
			case "waterwheel_handoffs_total":
				flips = int64(m.Value)
			case "waterwheel_handoff_pause_seconds":
				pause = m.Histogram
			case "waterwheel_handoff_lag_records":
				if m.Histogram != nil {
					lagMax = int64(m.Histogram.Max / time.Second)
				}
			}
		}
		pm, p99, pmax := time.Duration(0), time.Duration(0), time.Duration(0)
		if pause != nil {
			pm, p99, pmax = pause.Mean, pause.P99, pause.Max
		}
		rep.Add(mode, flips, pm.String(), p99.String(), pmax.String(), lagMax,
			fmt.Sprintf("%.0f", float64(n)/wall.Seconds()), verified)
		c.Stop()
	}
	return rep, nil
}

func init() {
	register("handoff", runHandoff)
}
