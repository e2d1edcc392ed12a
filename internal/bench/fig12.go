package bench

import (
	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// newNormalCluster builds the adaptive-partitioning testbed: 4 nodes x 2
// indexing servers, no simulated I/O (the experiment isolates partitioning
// effects). The cluster is returned unstarted: ingestMakespan drives the
// consumers itself. It has no background balancer: only the adaptive runs
// call TickBalance, so the static runs keep the even schema.
func newNormalCluster(seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:               4,
		IndexServersPerNode: 2,
		QueryServersPerNode: 1,
		ChunkBytes:          512 << 10,
		Seed:                seed,
	})
}

// ingestMakespan pushes the tuples through an UNSTARTED cluster's ingest
// pipeline and measures, per indexing server, the wall time spent on its
// share: first the dispatch and WAL append of every tuple routed to it,
// then — one server at a time, nothing else running — the consumption of
// its partition into its memtable. The aggregate throughput is
// total/makespan — how a real cluster whose servers run in parallel would
// perform. (The host has too few cores to measure that parallelism
// directly; the makespan model charges each server its own work and takes
// the slowest.) The partitions are closed on the way, so the cluster only
// serves to be stopped afterwards.
func ingestMakespan(c *cluster.Cluster, tuples []model.Tuple, rebalanceEvery int) float64 {
	perServer := make([]time.Duration, len(c.IndexServers()))
	schema := c.Metadata().Schema()
	for i := range tuples {
		if rebalanceEvery > 0 && i > 0 && i%rebalanceEvery == 0 {
			if c.TickBalance() {
				schema = c.Metadata().Schema()
			}
		}
		srv := schema.ServerFor(tuples[i].Key)
		t0 := time.Now()
		c.Insert(tuples[i])
		perServer[srv] += time.Since(t0)
	}
	for i, srv := range c.IndexServers() {
		p := c.WAL().Partition(i)
		p.Close() // Consume returns once a closed partition is drained
		t0 := time.Now()
		srv.Consume(p, nil)
		perServer[i] += time.Since(t0)
	}
	var max time.Duration
	for _, d := range perServer {
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return 0
	}
	return float64(len(tuples)) / max.Seconds()
}

var sigmas = []float64{10, 100, 1000, 5000}

// Fig12a: insertion throughput with and without adaptive key
// partitioning, as key skewness varies (normal keys, σ = 10..5000).
// Expected shape: adaptive ≥ static for every σ; static is pinned to one
// server's rate because the normal distribution concentrates in a single
// interval of the even schema.
func runFig12a(opt Options) (*Report, error) {
	n := opt.n(200_000)
	rep := &Report{
		ID:     "fig12a",
		Title:  "Insertion throughput vs key skewness (normal keys)",
		Header: []string{"sigma", "adaptive", "static"},
		Notes: []string{
			"aggregate throughput = total tuples / slowest server's insertion time (single-core host)",
			"paper Fig.12(a): adaptive consistently above static",
		},
	}
	for _, sigma := range sigmas {
		g := workload.NewNormal(workload.NormalConfig{Sigma: sigma, Seed: opt.Seed})
		tuples := pregenerate(g, n)

		ca := newNormalCluster(opt.Seed)
		rateA := ingestMakespan(ca, tuples, n/100)
		ca.Stop()

		cs := newNormalCluster(opt.Seed)
		rateS := ingestMakespan(cs, tuples, 0)
		cs.Stop()

		rep.Add(sigma, humanRate(rateA), humanRate(rateS))
		opt.logf("fig12a sigma=%.0f done", sigma)
	}
	return rep, nil
}

// Fig12b: query latency with and without adaptive key partitioning.
// 1000 (scaled) random queries with key selectivity 0.1 over the recent
// 60 seconds. Expected shape: adaptive at or below static — balanced data
// placement improves subquery pruning and spreads memtable scans.
func runFig12b(opt Options) (*Report, error) {
	n := opt.n(200_000)
	queries := opt.n(200)
	rep := &Report{
		ID:     "fig12b",
		Title:  "Query latency vs key skewness (sel=0.1, recent 60s)",
		Header: []string{"sigma", "adaptive mean", "static mean"},
		Notes:  []string{"paper Fig.12(b): adaptive at or below static"},
	}
	for _, sigma := range sigmas {
		row := []any{sigma}
		for _, adaptive := range []bool{true, false} {
			g := workload.NewNormal(workload.NormalConfig{Sigma: sigma, Seed: opt.Seed})
			tuples := pregenerate(g, n)
			c := newNormalCluster(opt.Seed)
			c.Start()
			for i := range tuples {
				if adaptive && i > 0 && i%(n/10) == 0 {
					c.TickBalance()
				}
				c.Insert(tuples[i])
			}
			c.Drain()
			qg := workload.NewQueryGen(g.KeySpan(), opt.Seed)
			now := g.Now()
			rec := &recorder{}
			for q := 0; q < queries; q++ {
				t0 := time.Now()
				if _, err := c.Query(model.Query{
					Keys:  qg.KeyRange(0.1),
					Times: workload.Recent(now, 60_000),
				}); err != nil {
					c.Stop()
					return nil, err
				}
				rec.Record(time.Since(t0))
			}
			c.Stop()
			row = append(row, rec.Mean().Round(time.Microsecond).String())
		}
		rep.Add(row...)
		opt.logf("fig12b sigma=%.0f done", sigma)
	}
	return rep, nil
}

func init() {
	register("fig12a", runFig12a)
	register("fig12b", runFig12b)
}
