package bench

import (
	"time"

	"waterwheel/internal/baseline"
	"waterwheel/internal/cluster"
	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// wwStore adapts a Waterwheel cluster to the baseline.Store interface for
// the overall comparison.
type wwStore struct {
	c *cluster.Cluster
	// rebalanced tracks whether the warm-up repartition ran.
	inserted    int
	rebalanceAt int
}

func newWWStore(chunkBytes int64, lat dfs.LatencyModel, seed int64, rebalanceAt int) *wwStore {
	c := cluster.New(cluster.Config{
		Nodes:               4,
		IndexServersPerNode: 2,
		QueryServersPerNode: 2,
		ChunkBytes:          chunkBytes,
		CacheBytes:          32 << 20,
		DFSLatency:          lat,
		Seed:                seed,
	})
	c.Start()
	return &wwStore{c: c, rebalanceAt: rebalanceAt}
}

func (w *wwStore) Insert(t model.Tuple) {
	w.inserted++
	if w.rebalanceAt > 0 && w.inserted == w.rebalanceAt {
		w.c.TickBalance()
	}
	w.c.Insert(t)
}

// InsertBatch routes a whole batch through Cluster.InsertBatch (one
// dispatch, one WAL append per server) while preserving the
// warm-up repartition trigger at the same insert count.
func (w *wwStore) InsertBatch(ts []model.Tuple) {
	if w.rebalanceAt > 0 && w.inserted < w.rebalanceAt && w.inserted+len(ts) >= w.rebalanceAt {
		w.c.TickBalance()
	}
	w.inserted += len(ts)
	w.c.InsertBatch(ts)
}

// Drain waits until every inserted tuple is applied and queryable.
func (w *wwStore) Drain() { w.c.Drain() }

// ingestTuples streams tuples into a store, using the vectorized batch path
// when batch > 1 and the store supports it (the baselines only expose
// per-tuple Insert, so they always take the scalar loop). A store that
// acks inserts ahead of applying them (Waterwheel: the ack follows the
// log) is drained before returning, so timing this call measures the
// whole pipeline and queries after it see every tuple.
func ingestTuples(s baseline.Store, tuples []model.Tuple, batch int) {
	type batcher interface{ InsertBatch([]model.Tuple) }
	if bs, ok := s.(batcher); ok && batch > 1 {
		for pos := 0; pos < len(tuples); pos += batch {
			end := pos + batch
			if end > len(tuples) {
				end = len(tuples)
			}
			bs.InsertBatch(tuples[pos:end])
		}
	} else {
		for i := range tuples {
			s.Insert(tuples[i])
		}
	}
	if d, ok := s.(interface{ Drain() }); ok {
		d.Drain()
	}
}

func (w *wwStore) Query(q model.Query) (*model.Result, error) { return w.c.Query(q) }
func (w *wwStore) Flush()                                     { w.c.FlushAll() }
func (w *wwStore) Close()                                     { w.c.Stop() }

// newStores builds the three systems with comparable storage settings.
func newStores(seed int64, withIO bool, chunkBytes int64, warmup int) map[string]baseline.Store {
	lat := dfs.LatencyModel{}
	if withIO {
		lat = paperLatency()
	}
	newFS := func() *dfs.FS {
		return dfs.New(dfs.Config{Nodes: 4, Replication: 3, Seed: seed, Latency: lat})
	}
	return map[string]baseline.Store{
		"waterwheel": newWWStore(chunkBytes, lat, seed, warmup),
		"hbase-like": baseline.NewLSM(baseline.LSMConfig{MemBytes: chunkBytes}, newFS()),
		"druid-like": baseline.NewTS(baseline.TSConfig{SegmentBytes: chunkBytes}, newFS()),
	}
}

var storeOrder = []string{"waterwheel", "hbase-like", "druid-like"}

// queryWindows are the paper's four temporal shapes (§VI-D1). Durations
// are scaled 1/10 (the harness ingests ~90 s of event time instead of the
// paper's long runs): recent 0.5 s / 6 s / 30 s, historical 30 s.
type windowSpec struct {
	name      string
	durMillis int64
	recent    bool
}

var queryWindows = []windowSpec{
	{"recent 0.5s", 500, true},
	{"recent 6s", 6_000, true},
	{"recent 30s", 30_000, true},
	{"historic 30s", 30_000, false},
}

// runOverallQueries implements Fig.14 (Network) and Fig.16 (T-Drive):
// query latency of the three systems across temporal windows and key
// selectivities, at a fixed pre-ingested dataset.
func runOverallQueries(id, dataset string, opt Options) (*Report, error) {
	n := opt.n(200_000)
	perCell := opt.n(10)
	rep := &Report{
		ID:     id,
		Title:  "Query latency comparison, " + dataset + " data (mean)",
		Header: []string{"window", "key sel", "waterwheel", "hbase-like", "druid-like"},
		Notes: []string{
			"temporal windows scaled 1/10 vs paper (event-time span ~90s)",
			"paper Fig.14/16: Waterwheel lowest; HBase degrades with key selectivity; Druid flat-but-high vs key selectivity",
		},
	}
	stores := newStores(opt.Seed, true, 256<<10, n/100)
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	// ~90 s of event time: rate = n / 90.
	rate := n / 90
	if rate < 100 {
		rate = 100
	}
	g := newDatasetGenerator(dataset, opt.Seed, rate)
	tuples := pregenerate(g, n)
	for name, s := range stores {
		ingestTuples(s, tuples, opt.Batch)
		opt.logf("%s ingest into %s done", id, name)
	}
	now := g.Now()
	for _, w := range queryWindows {
		for _, sel := range []float64{0.01, 0.05, 0.1} {
			row := []any{w.name, sel}
			for _, name := range storeOrder {
				qg := workload.NewQueryGen(g.KeySpan(), opt.Seed+int64(sel*1000))
				rec := &recorder{}
				for q := 0; q < perCell; q++ {
					var tr model.TimeRange
					if w.recent {
						tr = workload.Recent(now, w.durMillis)
					} else {
						tr = qg.Historical(0, now, w.durMillis)
					}
					qr := model.Query{Keys: qg.KeyRange(sel), Times: tr}
					t0 := time.Now()
					if _, err := stores[name].Query(qr); err != nil {
						return nil, err
					}
					rec.Record(time.Since(t0))
				}
				row = append(row, rec.Mean().Round(time.Microsecond).String())
			}
			rep.Add(row...)
		}
		opt.logf("%s window %s done", id, w.name)
	}
	return rep, nil
}

// newDatasetGenerator builds a generator with an explicit event rate.
func newDatasetGenerator(dataset string, seed int64, rate int) workload.Generator {
	switch dataset {
	case "network":
		return workload.NewNetwork(workload.NetworkConfig{Seed: seed, EventsPerSecond: rate})
	default:
		return workload.NewTDrive(workload.TDriveConfig{Seed: seed, EventsPerSecond: rate})
	}
}

func runFig14(opt Options) (*Report, error) { return runOverallQueries("fig14", "network", opt) }
func runFig16(opt Options) (*Report, error) { return runOverallQueries("fig16", "tdrive", opt) }

// Fig15: maximum insertion throughput of the three systems on both
// datasets, with simulated storage I/O. Expected shape: Waterwheel about
// an order of magnitude above both baselines — it never merges fresh data
// into historical data, while the LSM store pays compaction and the
// segment store pays per-tuple inverted-index maintenance and seal-time
// sorting.
func runFig15(opt Options) (*Report, error) {
	n := opt.n(300_000)
	rep := &Report{
		ID:     "fig15",
		Title:  "Insertion throughput comparison (tuples/s)",
		Header: []string{"dataset", "waterwheel", "hbase-like", "druid-like"},
		Notes:  []string{"paper Fig.15: Waterwheel ~10x the baselines"},
	}
	for _, ds := range []string{"tdrive", "network"} {
		row := []any{ds}
		stores := newStores(opt.Seed, true, 1<<20, n/100)
		g := newDatasetGenerator(ds, opt.Seed, 100_000)
		tuples := pregenerate(g, n)
		for _, name := range storeOrder {
			s := stores[name]
			start := time.Now()
			ingestTuples(s, tuples, opt.Batch)
			rate := perSecond(int64(n), time.Since(start))
			row = append(row, humanRate(rate))
			opt.logf("fig15 %s %s done", ds, name)
		}
		for _, s := range stores {
			s.Close()
		}
		rep.Add(row...)
	}
	return rep, nil
}

func init() {
	register("fig14", runFig14)
	register("fig15", runFig15)
	register("fig16", runFig16)
}
