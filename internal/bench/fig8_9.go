package bench

import (
	"math/rand"
	"sync"
	"time"

	"waterwheel/internal/baseline"
	"waterwheel/internal/model"
)

// mixedRun drives an index with the given insert fraction across 4
// threads: each op is an insert or a point read on a random key (paper
// §VI-A2). Returns insert throughput and the read-latency recorder.
func mixedRun(idx baseline.Index, tuples []model.Tuple, insertFrac float64, seed int64) (float64, *recorder) {
	const threads = 4
	rec := &recorder{}
	var inserted int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	chunkSize := (len(tuples) + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo := w * chunkSize
		hi := lo + chunkSize
		if hi > len(tuples) {
			hi = len(tuples)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []model.Tuple, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := 0
			for i := range part {
				if rng.Float64() < insertFrac {
					idx.Insert(part[i])
					n++
				} else {
					k := part[rng.Intn(len(part))].Key
					t0 := time.Now()
					idx.Range(model.KeyRange{Lo: k, Hi: k}, model.FullTimeRange(), nil,
						func(*model.Tuple) bool { return true })
					rec.Record(time.Since(t0))
				}
			}
			mu.Lock()
			inserted += int64(n)
			mu.Unlock()
		}(tuples[lo:hi], seed+int64(w))
	}
	wg.Wait()
	return perSecond(inserted, time.Since(start)), rec
}

// Fig8: insertion throughput under mixed workloads (100%, 75%, 50%
// insert) on both datasets, template vs concurrent. Expected shape:
// template 2-3x the concurrent tree everywhere.
func runFig8(opt Options) (*Report, error) {
	n := opt.n(300_000)
	rep := &Report{
		ID:     "fig8",
		Title:  "Insertion throughput under mixed workloads (tuples/s)",
		Header: []string{"dataset", "workload", "template", "concurrent"},
		Notes:  []string{"paper Fig.8: template 2-3x concurrent across mixes"},
	}
	for _, ds := range []string{"tdrive", "network"} {
		g := generatorByName(ds, opt.Seed)
		tuples := pregenerate(g, n)
		span := g.KeySpan()
		for _, mix := range []struct {
			name string
			frac float64
		}{{"100% insert", 1.0}, {"75% ins / 25% read", 0.75}, {"50% ins / 50% read", 0.5}} {
			tmpl := newTemplateForSpan(span, tuples, n)
			rateT, _ := mixedRun(tmpl, tuples, mix.frac, opt.Seed)
			conc := baseline.NewConcurrentTree(0, 0)
			rateC, _ := mixedRun(conc, tuples, mix.frac, opt.Seed)
			rep.Add(ds, mix.name, humanRate(rateT), humanRate(rateC))
			opt.logf("fig8 %s %s done", ds, mix.name)
		}
	}
	return rep, nil
}

// Fig9: point-read latency under the same mixed workloads. Expected
// shape: template reads at or below concurrent-tree reads (no inner-node
// latching).
func runFig9(opt Options) (*Report, error) {
	n := opt.n(300_000)
	rep := &Report{
		ID:    "fig9",
		Title: "Query (point read) latency under mixed workloads",
		Header: []string{"dataset", "workload", "template p50", "concurrent p50",
			"template mean", "concurrent mean"},
		Notes: []string{
			"paper Fig.9: template latency at or below concurrent",
			"means include reads blocked behind template-update pauses; medians show the steady state",
		},
	}
	for _, ds := range []string{"tdrive", "network"} {
		g := generatorByName(ds, opt.Seed)
		tuples := pregenerate(g, n)
		span := g.KeySpan()
		for _, mix := range []struct {
			name string
			frac float64
		}{{"75% ins / 25% read", 0.75}, {"50% ins / 50% read", 0.5}} {
			tmpl := newTemplateForSpan(span, tuples, n)
			_, recT := mixedRun(tmpl, tuples, mix.frac, opt.Seed)
			conc := baseline.NewConcurrentTree(0, 0)
			_, recC := mixedRun(conc, tuples, mix.frac, opt.Seed)
			rep.Add(ds, mix.name,
				recT.Percentile(50).Round(time.Nanosecond).String(),
				recC.Percentile(50).Round(time.Nanosecond).String(),
				recT.Mean().Round(time.Nanosecond).String(),
				recC.Mean().Round(time.Nanosecond).String())
			opt.logf("fig9 %s %s done", ds, mix.name)
		}
	}
	return rep, nil
}

func init() {
	register("fig8", runFig8)
	register("fig9", runFig9)
}
