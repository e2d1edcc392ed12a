package bench

import (
	"math/rand"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
	"waterwheel/internal/queryexec"
	"waterwheel/internal/workload"
)

// newRand builds a deterministic source for workload synthesis.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Ablations for the design choices DESIGN.md §5 calls out. These are not
// paper figures; they isolate the contribution of individual mechanisms.

// ablationCluster builds a loaded cluster for query-side ablations.
func ablationCluster(opt Options, policy string) (*cluster.Cluster, workload.Generator, int) {
	n := opt.n(150_000)
	c := cluster.New(cluster.Config{
		Nodes:               2,
		IndexServersPerNode: 2,
		QueryServersPerNode: 2,
		ChunkBytes:          256 << 10,
		CacheBytes:          4 << 20,
		DFSLatency:          paperLatency(),
		Policy:              policy,
		Seed:                opt.Seed,
	})
	c.Start()
	g := workload.NewTDrive(workload.TDriveConfig{Seed: opt.Seed, EventsPerSecond: n / 60})
	tuples := pregenerate(g, n)
	for i := range tuples {
		if i == n/10 {
			c.TickBalance()
		}
		c.Insert(tuples[i])
	}
	c.Drain()
	return c, g, n
}

// AblationBloom: leaf time-sketch pruning on vs off. The workload is
// bursty in time — every source reports during even-numbered 10-second
// windows only — so a leaf's [minT, maxT] envelope spans the whole stream
// while the sketch knows the gaps. Queries into odd windows are prunable
// only by the sketch, which is exactly the case §IV-B builds it for.
func runAblationBloom(opt Options) (*Report, error) {
	n := opt.n(150_000)
	queries := opt.n(50)
	rep := &Report{
		ID:     "ablation-bloom",
		Title:  "Leaf time-sketch (bloom) pruning on vs off (bursty arrivals)",
		Header: []string{"metric", "bloom on", "bloom off"},
	}
	type agg struct {
		lat                 *recorder
		leaves, skipped, mb int64
	}
	results := map[bool]*agg{}
	const burst = 10_000 // ms
	for _, disable := range []bool{false, true} {
		c := cluster.New(cluster.Config{
			Nodes:               2,
			IndexServersPerNode: 2,
			QueryServersPerNode: 2,
			ChunkBytes:          128 << 10,
			CacheBytes:          4 << 20,
			DFSLatency:          paperLatency(),
			Build:               chunk.BuildOptions{DisableBloom: disable},
			Seed:                opt.Seed,
		})
		c.Start()
		rng := newRand(opt.Seed)
		var now model.Timestamp
		for i := 0; i < n; i++ {
			// Event time advances ~1 ms per tuple but skips odd windows.
			now = model.Timestamp(i)
			if (now/burst)%2 == 1 {
				now += burst // jump to the next even window
			}
			c.Insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: now, Payload: make([]byte, 10)})
		}
		c.Drain()
		c.FlushAll() // everything queryable from chunks
		a := &agg{lat: &recorder{}}
		qg := workload.NewQueryGen(model.FullKeyRange(), opt.Seed)
		windows := int(now / burst)
		if windows < 2 {
			windows = 2 // tiny scales: window 1 is silent by construction
		}
		for q := 0; q < queries; q++ {
			// A window fully inside an odd (silent) burst.
			w := model.Timestamp((2*q+1)%windows) * burst
			t0 := time.Now()
			res, err := c.Query(model.Query{
				Keys:  qg.KeyRange(0.5),
				Times: model.TimeRange{Lo: w + 1000, Hi: w + 9000},
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			a.lat.Record(time.Since(t0))
			a.leaves += int64(res.LeavesRead)
			a.skipped += int64(res.LeavesSkipped)
			a.mb += res.BytesRead
		}
		results[disable] = a
		c.Stop()
		opt.logf("ablation-bloom disable=%v done", disable)
	}
	on, off := results[false], results[true]
	rep.Add("mean latency", on.lat.Mean().Round(time.Microsecond).String(), off.lat.Mean().Round(time.Microsecond).String())
	rep.Add("leaves read", on.leaves, off.leaves)
	rep.Add("leaves pruned", on.skipped, off.skipped)
	rep.Add("chunk bytes read", on.mb, off.mb)
	return rep, nil
}

// AblationTemplate: template reuse on vs off at the system level. With
// reuse off, every flush rebuilds the tree structure, so sustained
// ingestion slows down.
func runAblationTemplate(opt Options) (*Report, error) {
	n := opt.n(300_000)
	rep := &Report{
		ID:     "ablation-template",
		Title:  "Template reuse across flushes on vs off (ingest throughput)",
		Header: []string{"variant", "throughput"},
	}
	for _, noReuse := range []bool{false, true} {
		c := cluster.New(cluster.Config{
			Nodes:               1,
			IndexServersPerNode: 2,
			ChunkBytes:          128 << 10, // frequent flushes magnify the difference
			NoTemplateReuse:     noReuse,
			Seed:                opt.Seed,
		})
		c.Start()
		g := workload.NewNormal(workload.NormalConfig{Sigma: 1e15, Seed: opt.Seed})
		tuples := pregenerate(g, n)
		start := time.Now()
		for i := range tuples {
			c.Insert(tuples[i])
		}
		c.Drain() // the rate covers dispatch → WAL → consume, not just the ack
		rate := perSecond(int64(n), time.Since(start))
		c.Stop()
		label := "template reuse"
		if noReuse {
			label = "rebuild every flush"
		}
		rep.Add(label, humanRate(rate))
		opt.logf("ablation-template noReuse=%v done", noReuse)
	}
	return rep, nil
}

// AblationLADA: decompose LADA against a locality-only policy (hashing)
// and a balance-only policy (shared queue), reporting latency and cache
// hit rates — the two components LADA combines.
func runAblationLADA(opt Options) (*Report, error) {
	queries := opt.n(60)
	rep := &Report{
		ID:     "ablation-lada",
		Title:  "LADA components: balance-only and locality-only vs both",
		Header: []string{"policy", "mean latency", "cache hits/query"},
	}
	for _, policy := range []string{"lada", "hashing", "shared-queue"} {
		c, g, _ := ablationCluster(opt, policy)
		qg := workload.NewQueryGen(g.KeySpan(), opt.Seed)
		now := g.Now()
		rec := &recorder{}
		var hits int64
		for q := 0; q < queries; q++ {
			t0 := time.Now()
			res, err := c.Query(model.Query{
				Keys:  qg.KeyRange(0.1),
				Times: qg.Historical(0, now, int64(now)/10),
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			rec.Record(time.Since(t0))
			hits += int64(res.CacheHits)
		}
		c.Stop()
		rep.Add(policy, rec.Mean().Round(time.Microsecond).String(), hits/int64(queries))
		opt.logf("ablation-lada %s done", policy)
	}
	return rep, nil
}

// AblationSideStore: side store for very-late tuples on vs off. With it
// off, a few very late tuples inflate ordinary chunks' temporal regions
// and drag extra chunks into every temporally selective query.
func runAblationSideStore(opt Options) (*Report, error) {
	n := opt.n(100_000)
	queries := opt.n(50)
	rep := &Report{
		ID:     "ablation-sidestore",
		Title:  "Side store for very-late tuples on vs off",
		Header: []string{"variant", "mean latency", "subqueries/query"},
	}
	for _, disable := range []bool{false, true} {
		sideThreshold := int64(5_000)
		if disable {
			sideThreshold = -1
		}
		c := cluster.New(cluster.Config{
			Nodes:               2,
			IndexServersPerNode: 2,
			QueryServersPerNode: 2,
			ChunkBytes:          128 << 10,
			DFSLatency:          paperLatency(),
			SideThresholdMillis: sideThreshold,
			Seed:                opt.Seed,
		})
		c.Start()
		g := workload.NewNetwork(workload.NetworkConfig{
			Seed: opt.Seed, EventsPerSecond: n / 60,
			LateFrac: 0.01, LateMaxMillis: 50_000, // 1% of tuples up to 50s late
		})
		tuples := pregenerate(g, n)
		for i := range tuples {
			c.Insert(tuples[i])
		}
		c.Drain()
		qg := workload.NewQueryGen(g.KeySpan(), opt.Seed)
		now := g.Now()
		rec := &recorder{}
		var subs int64
		for q := 0; q < queries; q++ {
			t0 := time.Now()
			res, err := c.Query(model.Query{
				Keys:  qg.KeyRange(0.1),
				Times: qg.Historical(0, now, 2_000),
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			rec.Record(time.Since(t0))
			subs += int64(res.SubQueries)
		}
		c.Stop()
		label := "side store on"
		if disable {
			label = "side store off"
		}
		rep.Add(label, rec.Mean().Round(time.Microsecond).String(), subs/int64(queries))
		opt.logf("ablation-sidestore disable=%v done", disable)
	}
	return rep, nil
}

func init() {
	register("ablation-bloom", runAblationBloom)
	register("ablation-template", runAblationTemplate)
	register("ablation-lada", runAblationLADA)
	register("ablation-sidestore", runAblationSideStore)
}

var _ queryexec.Policy = queryexec.LADA{}
