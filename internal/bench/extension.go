package bench

import (
	"encoding/binary"
	"math/rand"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/cluster"
	"waterwheel/internal/model"
)

// ExtSecondary measures the §VIII extension: per-leaf bloom filters over a
// non-key, non-temporal payload attribute. An equality predicate on the
// attribute combined with a wide key range is the worst case for the base
// system (every leaf scanned); the secondary index prunes leaves whose
// filter cannot contain the value.
func runExtSecondary(opt Options) (*Report, error) {
	n := opt.n(200_000)
	queries := opt.n(50)
	rep := &Report{
		ID:     "ext-secondary",
		Title:  "Secondary attribute index (paper §VIII future work): on vs off",
		Header: []string{"metric", "secondary on", "secondary off"},
		Notes: []string{
			"workload: attribute value spatially correlated with key; query = full key range + attribute equality",
		},
	}
	type agg struct {
		lat            *recorder
		leaves, pruned int64
		bytes          int64
	}
	results := map[bool]*agg{}
	for _, enabled := range []bool{true, false} {
		cfg := cluster.Config{
			Nodes:               2,
			IndexServersPerNode: 2,
			QueryServersPerNode: 2,
			ChunkBytes:          256 << 10,
			CacheBytes:          2 << 20,
			DFSLatency:          paperLatency(),
			Seed:                opt.Seed,
		}
		if enabled {
			cfg.Bloom = chunk.BuildOptions{Secondary: &chunk.SecondarySpec{Offset: 0}}
		}
		c := cluster.New(cfg)
		c.Start()
		rng := rand.New(rand.NewSource(opt.Seed))
		// Keys uniform; attribute = sensor group, correlated with key so
		// groups cluster within leaves.
		const groups = 256
		for i := 0; i < n; i++ {
			key := model.Key(rng.Uint64())
			payload := make([]byte, 8)
			binary.BigEndian.PutUint64(payload, uint64(key>>56)%groups)
			c.Insert(model.Tuple{Key: key, Time: model.Timestamp(i), Payload: payload})
		}
		c.Drain()
		a := &agg{lat: &recorder{}}
		for q := 0; q < queries; q++ {
			group := uint64(q % groups)
			t0 := time.Now()
			res, err := c.Query(model.Query{
				Keys:   model.FullKeyRange(),
				Times:  model.FullTimeRange(),
				Filter: model.PayloadU64(0, model.CmpEQ, group),
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			a.lat.Record(time.Since(t0))
			a.leaves += int64(res.LeavesRead)
			a.pruned += int64(res.LeavesSkipped)
			a.bytes += res.BytesRead
		}
		results[enabled] = a
		c.Stop()
		opt.logf("ext-secondary enabled=%v done", enabled)
	}
	on, off := results[true], results[false]
	rep.Add("mean latency", on.lat.Mean().Round(time.Microsecond).String(), off.lat.Mean().Round(time.Microsecond).String())
	rep.Add("leaves read", on.leaves, off.leaves)
	rep.Add("leaves pruned", on.pruned, off.pruned)
	rep.Add("chunk bytes read", on.bytes, off.bytes)
	return rep, nil
}

func init() {
	register("ext-secondary", runExtSecondary)
}
