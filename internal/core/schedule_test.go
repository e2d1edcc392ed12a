package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// driftStream is a drifting normal key stream: σ = 10⁶ keys at 1 000 events
// per second while the center moves 2·10⁵ keys per event-second, so every
// batch lands at or past the right edge of a template fitted to the
// tuples before it.
func driftStream(seed int64) workload.Generator {
	return workload.NewNormal(workload.NormalConfig{
		Sigma: 1e6, EventsPerSecond: 1000, DriftPerSecond: 2e5, Seed: seed,
	})
}

// hotKeyStream sends every other tuple to one key, the rest to a stationary
// normal spread around it: the hot key's run fills one leaf however the
// template divides the keys.
type hotKeyStream struct{ *workload.Normal }

func (g hotKeyStream) Next() model.Tuple {
	tp := g.Normal.Next()
	if tp.Time%2 == 0 {
		tp.Key = 1 << 62
	}
	return tp
}

func newHotKeyStream(seed int64) workload.Generator {
	return hotKeyStream{workload.NewNormal(workload.NormalConfig{Sigma: 1e6, EventsPerSecond: 1000, Seed: seed})}
}

// next returns the next n tuples of g.
func next(g workload.Generator, n int) []model.Tuple {
	ts := make([]model.Tuple, n)
	for i := range ts {
		ts[i] = g.Next()
	}
	return ts
}

// insertBlocks inserts ts in batches of 2 048, an indexing server's
// consumer block.
func insertBlocks(tree *TemplateTree, ts []model.Tuple) {
	for lo := 0; lo < len(ts); lo += 2048 {
		tree.InsertBatch(ts[lo:min(lo+2048, len(ts))])
	}
}

// flatCols concatenates a snapshot's leaf columns, which are globally key
// sorted with equal keys in arrival order whatever the partition.
func flatCols(s *FlushSnapshot) (keys []model.Key, times []model.Timestamp, payloads [][]byte) {
	for _, lc := range s.Leaves {
		keys = append(keys, lc.Keys...)
		times = append(times, lc.Times...)
		for _, r := range lc.Refs {
			payloads = append(payloads, arenaPayload(lc.Arena, r))
		}
	}
	return keys, times, payloads
}

// fillTuples is the drift test's fill between two flushes: a little over
// seven check intervals of the default 4 096.
const fillTuples = 29128

// maxRebuildsPerFill bounds the rebuilds of one fill of n tuples: a check
// at size c that rebuilds schedules the next at 2c or later, and the first
// check runs at CheckEvery.
func maxRebuildsPerFill(n, checkEvery int) int64 {
	return int64(math.Ceil(math.Log2(float64(n)/float64(checkEvery)))) + 1
}

// TestTemplateRebuildsAmortizeUnderDrift: a drifting stream finds the edge
// leaf over the skew threshold at every check, so a fixed check cadence
// rebuilt the tree every CheckEvery inserts — O(n²/CheckEvery) entry
// moves per fill. The doubling schedule bounds the rebuilds per fill by a
// logarithm, and what each fill hands the chunk builder is the same as
// without any rebuild.
func TestTemplateRebuildsAmortizeUnderDrift(t *testing.T) {
	cfg := TemplateConfig{Keys: model.FullKeyRange(), Leaves: 256}
	tree := NewTemplateTree(cfg)
	cfg.CheckEvery = 1 << 30
	fixed := NewTemplateTree(cfg)
	g := driftStream(1)
	bound := maxRebuildsPerFill(fillTuples, 4096)
	const fills = 40
	for f := 0; f < fills; f++ {
		before := tree.Stats().TemplateUpdates.Load()
		ts := next(g, fillTuples)
		insertBlocks(tree, ts)
		insertBlocks(fixed, ts)
		if n := tree.Stats().TemplateUpdates.Load() - before; n > bound {
			t.Errorf("fill %d rebuilt the template %d times, want at most %d", f, n, bound)
		}
		gk, gt, gp := flatCols(tree.FlushReset())
		wk, wt, wp := flatCols(fixed.FlushReset())
		if !slices.Equal(gk, wk) || !slices.Equal(gt, wt) || !slices.EqualFunc(gp, wp, bytes.Equal) {
			t.Fatalf("fill %d: the rebuilt tree's snapshot differs from the unrebuilt tree's", f)
		}
	}
	t.Logf("%d rebuilds in %d fills of %d tuples", tree.Stats().TemplateUpdates.Load(), fills, fillTuples)
}

// TestTemplateHotKeyDoesNotRebuildInVain: the hottest key's run cannot be
// divided across leaves, so the skew a rebuild leaves behind is
// irreducible. floorSkew raises the threshold to twice that residue: once
// the first fill learned it, a fill rebuilds at most once.
func TestTemplateHotKeyDoesNotRebuildInVain(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.FullKeyRange(), Leaves: 256})
	g := newHotKeyStream(1)
	for f := 0; f < 10; f++ {
		before := tree.Stats().TemplateUpdates.Load()
		insertBlocks(tree, next(g, fillTuples))
		if n := tree.Stats().TemplateUpdates.Load() - before; f > 0 && n > 1 {
			t.Errorf("fill %d rebuilt the template %d times, want at most 1", f, n)
		}
		tree.FlushReset()
	}
}

// BenchmarkTemplateFill times 1 MiB fills of a 256-leaf tree whose template
// is reused from fill to fill, as an indexing server's is: a T-Drive stream,
// the drifting stream and the hot-key stream. It reports the tree-layer cost
// per tuple and the template rebuilds per fill.
func BenchmarkTemplateFill(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func(seed int64) workload.Generator
	}{
		{"tdrive", func(seed int64) workload.Generator { return workload.NewTDrive(workload.TDriveConfig{Seed: seed}) }},
		{"drift", driftStream},
		{"hotkey", newHotKeyStream},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tree := NewTemplateTree(TemplateConfig{Keys: model.FullKeyRange(), Leaves: 256})
			g := bc.gen(1)
			ts := make([]model.Tuple, 0, 1<<16)
			tuples := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ts = ts[:0]
				size := 0
				for size < 1<<20 {
					tp := g.Next()
					ts = append(ts, tp)
					size += tp.Size()
				}
				tuples += len(ts)
				b.StartTimer()
				insertBlocks(tree, ts)
				tree.FlushReset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
			b.ReportMetric(float64(tree.Stats().TemplateUpdates.Load())/float64(b.N), "rebuilds/fill")
		})
	}
}
