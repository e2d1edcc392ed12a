package bench

import (
	"time"

	"waterwheel/internal/cluster"
	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/workload"
)

// Fig13: query latency under the four subquery dispatch policies on both
// datasets, with simulated HDFS I/O so locality and balance matter.
// 1000 (scaled) random queries with selectivity 0.1 on both domains.
// Expected order (best → worst): LADA, hashing, shared-queue, round-robin.
func runFig13(opt Options) (*Report, error) {
	n := opt.n(400_000)
	queries := opt.n(150)
	rep := &Report{
		ID:     "fig13",
		Title:  "Query latency by subquery dispatch policy (sel=0.1 both domains)",
		Header: []string{"dataset", "lada", "hashing", "shared-queue", "round-robin"},
		Notes:  []string{"paper Fig.13: LADA < hashing < shared-queue < round-robin"},
	}
	for _, ds := range []string{"tdrive", "network"} {
		row := []any{ds}
		for _, policyName := range []string{"lada", "hashing", "shared-queue", "round-robin"} {
			c := cluster.New(cluster.Config{
				Nodes:               4,
				IndexServersPerNode: 1,
				QueryServersPerNode: 1,
				DispatchersPerNode:  1,
				ChunkBytes:          512 << 10, // many chunks -> many subqueries
				// Each server's cache holds roughly its 1/4 share of the hot
				// working set: consistent chunk->server assignment (hashing,
				// LADA) keeps hitting; policies that spray subqueries
				// (round-robin, shared queue) thrash every cache.
				CacheBytes: 1 << 20,
				// Low-jitter open delay so locality and caching dominate the
				// measurement rather than the 2-50ms open lottery.
				DFSLatency: dfs.LatencyModel{
					OpenMin:           2 * time.Millisecond,
					OpenMax:           8 * time.Millisecond,
					LocalBytesPerSec:  1 << 30,
					RemoteBytesPerSec: 110 << 20,
					WriteBytesPerSec:  110 << 20,
				},
				Policy: policyName,
				Seed:   opt.Seed,
			})
			c.Start()
			g := generatorByName(ds, opt.Seed)
			tuples := pregenerate(g, n)
			// Warm up the partitioning, then load.
			for i := range tuples {
				if i == n/100 {
					c.TickBalance()
				}
				c.Insert(tuples[i])
			}
			c.Drain()
			// Query mix with hot spots (80% of queries target a few fixed
			// rectangles): repeated chunk visits are where cache locality —
			// and thus the policy choice — shows.
			qg := workload.NewQueryGen(g.KeySpan(), opt.Seed)
			now := g.Now()
			span := int64(now) * 8 / 10
			type rect struct {
				kr model.KeyRange
				tr model.TimeRange
			}
			hot := make([]rect, 8)
			for i := range hot {
				hot[i] = rect{kr: qg.KeyRange(0.2), tr: qg.Historical(0, now, span/4)}
			}
			rec := &recorder{}
			for q := 0; q < queries; q++ {
				r := hot[q%len(hot)]
				if q%5 == 4 {
					r = rect{kr: qg.KeyRange(0.2), tr: qg.Historical(0, now, span/4)}
				}
				t0 := time.Now()
				if _, err := c.Query(model.Query{Keys: r.kr, Times: r.tr}); err != nil {
					c.Stop()
					return nil, err
				}
				rec.Record(time.Since(t0))
			}
			c.Stop()
			row = append(row, rec.Mean().Round(time.Microsecond).String())
			opt.logf("fig13 %s %s done", ds, policyName)
		}
		rep.Add(row...)
	}
	return rep, nil
}

func init() {
	register("fig13", runFig13)
}

// ensure the queryexec policy names resolve (guards against drift between
// the experiment and PolicyByName).
var _ = []queryexec.Policy{queryexec.LADA{}, queryexec.RoundRobin{}, queryexec.Hashing{}, queryexec.SharedQueue{}}
