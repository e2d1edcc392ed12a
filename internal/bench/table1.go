package bench

import (
	"time"

	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// Table1: the capability matrix of the paper's introduction — key-range
// query efficiency, time-range query efficiency, and insertion rate for
// the three systems. "Efficient" is decided empirically on *bytes
// inspected*: a selective range query must fetch at most a tenth of what
// a full scan fetches, i.e., an index on that dimension actually avoids
// reading data. (Wall time is a poor criterion here: returning 1% of the
// tuples is cheaper than returning all of them even with zero pruning.)
func runTable1(opt Options) (*Report, error) {
	n := opt.n(100_000)
	rep := &Report{
		ID:     "table1",
		Title:  "Capability matrix (paper Table I)",
		Header: []string{"system", "key range", "time range", "insertion rate"},
		Notes: []string{
			"check mark = selective range query fetches <=1/10 of a full scan's bytes (the dimension is indexed)",
			"paper Table I: HBase/levelDB key-only; Druid/Gorilla/BTrDb time-only; Waterwheel both + high rate",
		},
	}
	stores := newStores(opt.Seed, false, 256<<10, n/10)
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	rate := n / 90
	if rate < 100 {
		rate = 100
	}
	g := newDatasetGenerator("network", opt.Seed, rate)
	tuples := pregenerate(g, n)
	span := g.KeySpan()

	for _, name := range storeOrder {
		s := stores[name]
		start := time.Now()
		for i := range tuples {
			s.Insert(tuples[i])
		}
		ingestRate := perSecond(int64(n), time.Since(start))
		s.Flush()
		now := g.Now()

		qg := workload.NewQueryGen(span, opt.Seed)
		// Average over several drawn ranges: with heavy-tailed keys a single
		// random range can land on the hottest subnet and misrepresent the
		// typical selective query.
		byteCost := func(mk func() model.Query) int64 {
			const reps = 9
			var total int64
			for r := 0; r < reps; r++ {
				res, err := s.Query(mk())
				if err != nil {
					return 1 << 62
				}
				total += res.BytesRead
			}
			return total / reps
		}
		full := byteCost(func() model.Query {
			return model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
		})
		keySel := byteCost(func() model.Query {
			return model.Query{Keys: qg.KeyRange(0.01), Times: model.FullTimeRange()}
		})
		timeSel := byteCost(func() model.Query {
			return model.Query{Keys: model.FullKeyRange(), Times: workload.Recent(now, 1000)}
		})

		mark := func(selective, full int64) string {
			if selective*10 < full {
				return "yes"
			}
			return "no"
		}
		rep.Add(name, mark(keySel, full), mark(timeSel, full), humanRate(ingestRate))
		opt.logf("table1 %s done", name)
	}
	return rep, nil
}

func init() {
	register("table1", runTable1)
}
