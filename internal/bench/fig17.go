package bench

import (
	"fmt"

	"waterwheel/internal/cluster"
)

// Fig17: insertion throughput as the cluster grows (paper: 16→128 EC2
// nodes, scaled here to 2→16 simulated nodes). Aggregate throughput uses
// the makespan model (total tuples / slowest server's time on its share of
// the pipeline, see ingestMakespan) — the host has too few cores, so server
// parallelism is simulated; the makespan is exactly the quantity a real
// cluster's wall clock reflects.
// Expected shape: near-linear growth, because (a) the data partitioning
// lets every indexing server work independently and (b) adaptive
// partitioning keeps the per-server load even.
func runFig17(opt Options) (*Report, error) {
	perNode := opt.n(50_000)
	rep := &Report{
		ID:     "fig17",
		Title:  "Insertion throughput vs cluster size (tuples/s, makespan model)",
		Header: []string{"nodes", "tdrive", "network", "speedup(tdrive)"},
		Notes: []string{
			"node counts scaled 1/8 vs paper (16-128 -> 2-16)",
			"paper Fig.17: approximately linear scaling on both datasets",
		},
	}
	var base float64
	for _, nodes := range []int{2, 4, 8, 16} {
		row := []any{nodes}
		var tdriveRate float64
		for _, ds := range []string{"tdrive", "network"} {
			c := cluster.New(cluster.Config{
				Nodes:               nodes,
				IndexServersPerNode: 2,
				QueryServersPerNode: 1,
				DispatchersPerNode:  1,
				ChunkBytes:          1 << 30, // isolate pure insertion
				Seed:                opt.Seed,
			})
			n := perNode * nodes
			g := generatorByName(ds, opt.Seed)
			tuples := pregenerate(g, n)
			// Rebalance early and often: under the even initial schema the
			// clustered key distributions pin to one server, and the serial
			// warm-up would otherwise dominate the makespan.
			rate := ingestMakespan(c, tuples, n/100)
			c.Stop()
			row = append(row, humanRate(rate))
			if ds == "tdrive" {
				tdriveRate = rate
			}
		}
		if base == 0 {
			base = tdriveRate
		}
		row = append(row, fmt.Sprintf("%.2fx", tdriveRate/base))
		rep.Add(row...)
		opt.logf("fig17 nodes=%d done", nodes)
	}
	return rep, nil
}

func init() {
	register("fig17", runFig17)
}
