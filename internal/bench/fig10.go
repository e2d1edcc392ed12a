package bench

import (
	"time"
)

// Fig10: template update latency as a function of tree fill percentage,
// on both datasets. Expected shape: latency grows with the number of
// tuples moved among leaves, staying in the low-millisecond range at the
// paper's tree sizes.
func runFig10(opt Options) (*Report, error) {
	capacity := opt.n(400_000) // "B+ tree capacity" = one chunk worth
	rep := &Report{
		ID:     "fig10",
		Title:  "Template update latency vs tree fill percentage",
		Header: []string{"fill %", "tdrive mean", "network mean"},
		Notes: []string{
			"paper Fig.10: latency grows with fill, stays in the ms range",
		},
	}
	const repeats = 5
	fills := []int{20, 40, 60, 80, 100}
	results := map[string]map[int]time.Duration{}
	for _, ds := range []string{"tdrive", "network"} {
		results[ds] = map[int]time.Duration{}
		for _, fill := range fills {
			rec := &recorder{}
			for r := 0; r < repeats; r++ {
				g := generatorByName(ds, opt.Seed+int64(r))
				n := capacity * fill / 100
				tuples := pregenerate(g, n)
				tree := newTemplateForSpan(g.KeySpan(), tuples, capacity)
				for i := range tuples {
					tree.Insert(tuples[i])
				}
				before := tree.Stats().Snapshot()
				tree.UpdateTemplate()
				after := tree.Stats().Snapshot()
				rec.Record(time.Duration(after.TemplateUpdateNanos - before.TemplateUpdateNanos))
			}
			results[ds][fill] = rec.Mean()
			opt.logf("fig10 %s fill=%d%% done", ds, fill)
		}
	}
	for _, fill := range fills {
		rep.Add(fill,
			results["tdrive"][fill].Round(time.Microsecond).String(),
			results["network"][fill].Round(time.Microsecond).String())
	}
	return rep, nil
}

func init() {
	register("fig10", runFig10)
}
