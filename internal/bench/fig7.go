package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"waterwheel/internal/baseline"
	"waterwheel/internal/core"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// generatorByName builds a tuple generator for the named dataset.
func generatorByName(name string, seed int64) workload.Generator {
	switch name {
	case "network":
		return workload.NewNetwork(workload.NetworkConfig{Seed: seed})
	case "normal":
		return workload.NewNormal(workload.NormalConfig{Sigma: 1000, Seed: seed})
	default:
		return workload.NewTDrive(workload.TDriveConfig{Seed: seed})
	}
}

// pregenerate draws n tuples from a generator.
func pregenerate(g workload.Generator, n int) []model.Tuple {
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// newTemplateForSpan builds a template tree sized for n tuples over the
// generator's span, seeded with a sample so the initial partition matches
// the distribution (as a warmed-up production tree would be).
func newTemplateForSpan(span model.KeyRange, tuples []model.Tuple, n int) baseline.Template {
	leaves := n / baseline.DefaultLeafCap
	if leaves < 4 {
		leaves = 4
	}
	sampleN := 4096
	if sampleN > len(tuples) {
		sampleN = len(tuples)
	}
	sample := make([]model.Key, sampleN)
	for i := range sample {
		sample[i] = tuples[i*len(tuples)/sampleN].Key
	}
	return baseline.Template{TemplateTree: core.NewTemplateTreeFromSample(core.TemplateConfig{
		Keys:   span,
		Leaves: leaves,
	}, sample)}
}

// insertParallel spreads the tuples across `threads` inserters and returns
// the wall time.
func insertParallel(idx baseline.Index, tuples []model.Tuple, threads int) time.Duration {
	if threads < 1 {
		threads = 1
	}
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
		go func(part []model.Tuple) {
			defer wg.Done()
			for i := range part {
				idx.Insert(part[i])
			}
		}(tuples[lo:hi])
	}
	wg.Wait()
	return time.Since(start)
}

// mutexWaitSeconds reads the cumulative goroutine mutex-wait time.
func mutexWaitSeconds() float64 {
	samples := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		return samples[0].Value.Float64()
	}
	return 0
}

// Fig7a: insertion throughput of the three B+ trees with 1..8 insertion
// threads (T-Drive-like keys). Expected shape: template ≫ bulk >
// concurrent, and only the template tree scales with threads. The host's
// core count bounds how much of the scaling is visible in wall time, so
// the report also shows each variant's accumulated mutex-wait — the
// serialization the template design removes.
func runFig7a(opt Options) (*Report, error) {
	n := opt.n(400_000)
	g := generatorByName("tdrive", opt.Seed)
	tuples := pregenerate(g, n)
	span := g.KeySpan()

	rep := &Report{
		ID:    "fig7a",
		Title: "Insertion throughput vs #threads (tuples/s), T-Drive-like keys",
		Header: []string{"threads", "template", "concurrent", "bulk-loading",
			"lock-wait(tmpl)", "lock-wait(conc)"},
		Notes: []string{
			fmt.Sprintf("host has GOMAXPROCS=%d; thread scaling beyond that shows as lock-wait, not wall time", runtime.GOMAXPROCS(0)),
			"paper Fig.7(a): template highest and scaling with threads; baselines flat",
		},
	}
	for _, threads := range []int{1, 2, 4, 8} {
		tmpl := newTemplateForSpan(span, tuples, n)
		w0 := mutexWaitSeconds()
		dTmpl := insertParallel(tmpl, tuples, threads)
		waitTmpl := mutexWaitSeconds() - w0

		conc := baseline.NewConcurrentTree(0, 0)
		w0 = mutexWaitSeconds()
		dConc := insertParallel(conc, tuples, threads)
		waitConc := mutexWaitSeconds() - w0

		bulk := baseline.NewBulkTree(0, 0)
		startBulk := time.Now()
		insertParallel(bulk, tuples, threads)
		bulk.Build()
		dBulk := time.Since(startBulk)

		rep.Add(threads,
			humanRate(perSecond(int64(n), dTmpl)),
			humanRate(perSecond(int64(n), dConc)),
			humanRate(perSecond(int64(n), dBulk)),
			fmt.Sprintf("%.1fms", waitTmpl*1000),
			fmt.Sprintf("%.1fms", waitConc*1000))
		opt.logf("fig7a threads=%d done", threads)
	}
	return rep, nil
}

// Fig7b: single-thread insertion time breakdown. Expected shape: the
// concurrent tree dominated by node splits; the bulk tree pays sorting;
// the template tree pays only (rare, small) template updates.
func runFig7b(opt Options) (*Report, error) {
	n := opt.n(400_000)
	g := generatorByName("tdrive", opt.Seed)
	tuples := pregenerate(g, n)
	span := g.KeySpan()

	rep := &Report{
		ID:     "fig7b",
		Title:  "Insertion time breakdown, single thread (ms)",
		Header: []string{"index", "total", "split", "sort", "build", "template-update", "other"},
		Notes: []string{
			"paper Fig.7(b): splits dominate the concurrent tree; sorting the bulk tree",
		},
	}
	ms := func(nanos int64) string {
		return (time.Duration(nanos) * time.Nanosecond).Round(time.Microsecond).String()
	}

	tmpl := newTemplateForSpan(span, tuples, n)
	// Force periodic skew checks so template update time is exercised.
	dTmpl := insertParallel(tmpl, tuples, 1)
	st := tmpl.Stats().Snapshot()
	rep.Add("template", dTmpl.Round(time.Millisecond).String(), ms(0), ms(0), ms(0),
		ms(st.TemplateUpdateNanos),
		(dTmpl - time.Duration(st.TemplateUpdateNanos)).Round(time.Millisecond).String())

	conc := baseline.NewConcurrentTree(0, 0)
	dConc := insertParallel(conc, tuples, 1)
	sc := conc.Stats().Snapshot()
	rep.Add("concurrent", dConc.Round(time.Millisecond).String(), ms(sc.SplitNanos), ms(0), ms(0), ms(0),
		(dConc - time.Duration(sc.SplitNanos)).Round(time.Millisecond).String())

	bulk := baseline.NewBulkTree(0, 0)
	startBulk := time.Now()
	insertParallel(bulk, tuples, 1)
	bulk.Build()
	dBulk := time.Since(startBulk)
	sb := bulk.Stats().Snapshot()
	rep.Add("bulk-loading", dBulk.Round(time.Millisecond).String(), ms(0), ms(sb.SortNanos), ms(sb.BuildNanos), ms(0),
		(dBulk - time.Duration(sb.SortNanos) - time.Duration(sb.BuildNanos)).Round(time.Millisecond).String())

	return rep, nil
}

func init() {
	register("fig7a", runFig7a)
	register("fig7b", runFig7b)
}
