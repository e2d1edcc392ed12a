package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"waterwheel/internal/model"
)

// scan is how this package's tests read a tree: RangeCols — the one scan —
// with each visit presented as a tuple. The tuple value is reused across
// the scan and its payload aliases the leaf arena; copy what outlives fn.
func scan(tree *TemplateTree, kr model.KeyRange, tr model.TimeRange, f *model.Filter, fn func(*model.Tuple) bool) {
	var tp model.Tuple
	tree.RangeCols(kr, tr, f, func(k model.Key, ts model.Timestamp, p []byte) bool {
		tp.Key, tp.Time, tp.Payload = k, ts, p
		return fn(&tp)
	})
}

func collect(tree *TemplateTree, kr model.KeyRange, tr model.TimeRange, f *model.Filter) []model.Tuple {
	var out []model.Tuple
	scan(tree, kr, tr, f, func(t *model.Tuple) bool {
		out = append(out, *t)
		return true
	})
	return out
}

func TestTemplateInsertAndRange(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1000}, Leaves: 8})
	for k := 0; k <= 1000; k += 10 {
		tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(k * 2)})
	}
	if tree.Len() != 101 {
		t.Fatalf("Len = %d, want 101", tree.Len())
	}
	got := collect(tree, model.KeyRange{Lo: 100, Hi: 200}, model.FullTimeRange(), nil)
	if len(got) != 11 {
		t.Fatalf("key range returned %d tuples, want 11", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatal("results not in key order")
		}
	}
	// Time filter narrows within the key range.
	got = collect(tree, model.KeyRange{Lo: 100, Hi: 200}, model.TimeRange{Lo: 250, Hi: 350}, nil)
	for _, tp := range got {
		if tp.Time < 250 || tp.Time > 350 {
			t.Fatalf("tuple outside time range: %v", tp)
		}
	}
	if len(got) != 5 { // keys 130..170 step 10 -> times 260..340
		t.Fatalf("time-filtered count %d, want 5", len(got))
	}
}

func TestTemplatePredicateAndEarlyStop(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	for k := 0; k < 100; k++ {
		tree.Insert(model.Tuple{Key: model.Key(k), Time: 1})
	}
	even := model.KeyMod(2, 0)
	got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), even)
	if len(got) != 50 {
		t.Fatalf("predicate returned %d, want 50", len(got))
	}
	n := 0
	scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(*model.Tuple) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
}

func TestTemplateDuplicateKeys(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4, CheckEvery: 16, SkewThreshold: 0.5})
	for i := 0; i < 200; i++ {
		tree.Insert(model.Tuple{Key: 42, Time: model.Timestamp(i)})
	}
	got := collect(tree, model.KeyRange{Lo: 42, Hi: 42}, model.FullTimeRange(), nil)
	if len(got) != 200 {
		t.Fatalf("point query on duplicated key returned %d, want 200", len(got))
	}
	// Force an update with every tuple on one key; query must still find all.
	tree.UpdateTemplate()
	got = collect(tree, model.KeyRange{Lo: 42, Hi: 42}, model.FullTimeRange(), nil)
	if len(got) != 200 {
		t.Fatalf("after template update: %d, want 200", len(got))
	}
}

func TestTemplateNoSplits(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.FullKeyRange(), Leaves: 16})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		tree.Insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: model.Timestamp(i)})
	}
	if s := tree.Stats().Splits.Load(); s != 0 {
		t.Errorf("template tree recorded %d splits, want 0", s)
	}
}

func TestTemplateSkewnessAndUpdate(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 16,
		CheckEvery: 1 << 30, // manual control
	})
	// Pile everything into a tiny key range: one leaf gets it all.
	for i := 0; i < 1600; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i % 100), Time: model.Timestamp(i)})
	}
	if s := tree.Skewness(); s < 10 {
		t.Fatalf("skewness %f too low for fully-piled data (expect ~15)", s)
	}
	tree.UpdateTemplate()
	if s := tree.Skewness(); s > 0.7 {
		t.Errorf("skewness after update = %f, want near 0", s)
	}
	if tree.Stats().TemplateUpdates.Load() != 1 {
		t.Errorf("TemplateUpdates = %d, want 1", tree.Stats().TemplateUpdates.Load())
	}
	// Data still fully queryable.
	got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil)
	if len(got) != 1600 {
		t.Fatalf("after update Range found %d, want 1600", len(got))
	}
}

func TestTemplateAutoUpdateTriggers(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 8,
		CheckEvery: 64, SkewThreshold: 0.5,
	})
	for i := 0; i < 5000; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i % 64), Time: model.Timestamp(i)})
	}
	if tree.Stats().TemplateUpdates.Load() == 0 {
		t.Error("skewed insertion stream never triggered a template update")
	}
	if got := tree.Len(); got != 5000 {
		t.Errorf("Len = %d, want 5000", got)
	}
}

func TestTemplateFlushReset(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1000}, Leaves: 4})
	if tree.FlushReset() != nil {
		t.Fatal("flush of empty tree should return nil")
	}
	for i := 0; i < 500; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i * 2), Time: model.Timestamp(1000 + i), Payload: []byte{byte(i)}})
	}
	boundsBefore := slices.Clone(tree.bounds)
	snap := tree.FlushReset()
	if snap == nil || snap.Count != 500 {
		t.Fatalf("snapshot count = %v, want 500", snap)
	}
	if snap.MinTime != 1000 || snap.MaxTime != 1499 {
		t.Errorf("snapshot time bounds [%d,%d], want [1000,1499]", snap.MinTime, snap.MaxTime)
	}
	if len(snap.Leaves) != 4 || len(snap.Bounds) != 3 {
		t.Errorf("snapshot structure: %d leaves, %d bounds", len(snap.Leaves), len(snap.Bounds))
	}
	total := 0
	var prev model.Key
	first := true
	for i := range snap.Leaves {
		lc := &snap.Leaves[i]
		for _, k := range lc.Keys {
			if !first && k < prev {
				t.Fatal("snapshot not globally key-sorted across leaves")
			}
			prev, first = k, false
			total++
		}
	}
	if total != 500 {
		t.Fatalf("snapshot holds %d entries, want 500", total)
	}
	// Tree is empty but template retained.
	if tree.Len() != 0 {
		t.Errorf("tree not empty after flush: %d", tree.Len())
	}
	if !slices.Equal(tree.bounds, boundsBefore) {
		t.Errorf("separators changed across flush: %v, want %v", tree.bounds, boundsBefore)
	}
	// Tree remains usable after flush.
	tree.Insert(model.Tuple{Key: 10, Time: 5})
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != 1 {
		t.Errorf("post-flush insert invisible: %d", len(got))
	}
}

// TestTemplateTimeBounds: the per-leaf time bounds are what a flush
// snapshot's MinTime/MaxTime are folded from, and they start afresh after a
// reset rather than remembering the previous chunk's.
func TestTemplateTimeBounds(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	tree.Insert(model.Tuple{Key: 1, Time: 500})
	tree.Insert(model.Tuple{Key: 99, Time: 100})
	tree.Insert(model.Tuple{Key: 50, Time: 900})
	if got := collect(tree, model.FullKeyRange(), model.TimeRange{Lo: 901, Hi: 2000}, nil); len(got) != 0 {
		t.Errorf("scan past every leaf's max time returned %d tuples", len(got))
	}
	snap := tree.FlushReset()
	if snap.MinTime != 100 || snap.MaxTime != 900 {
		t.Errorf("snapshot time bounds = [%d,%d], want [100,900]", snap.MinTime, snap.MaxTime)
	}
	tree.Insert(model.Tuple{Key: 50, Time: 300})
	if snap = tree.FlushReset(); snap.MinTime != 300 || snap.MaxTime != 300 {
		t.Errorf("bounds after reset = [%d,%d], want [300,300]", snap.MinTime, snap.MaxTime)
	}
}

func TestTemplateConcurrentInsertAndQuery(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys: model.FullKeyRange(), Leaves: 64,
		CheckEvery: 1024, SkewThreshold: 1.0,
	})
	const (
		writers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				tree.Insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: model.Timestamp(i)})
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(*model.Tuple) bool { return true })
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := tree.Len(); got != writers*perW {
		t.Errorf("Len = %d, want %d", got, writers*perW)
	}
	got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil)
	if len(got) != writers*perW {
		t.Errorf("Range found %d, want %d", len(got), writers*perW)
	}
}

func TestTemplateFromSample(t *testing.T) {
	// Keys clustered at two modes; sampled template should place roughly
	// half the leaves per mode, keeping skew low without any update.
	rng := rand.New(rand.NewSource(11))
	sample := make([]model.Key, 4000)
	gen := func() model.Key {
		if rng.Intn(2) == 0 {
			return model.Key(1000 + rng.Intn(100))
		}
		return model.Key(900000 + rng.Intn(100))
	}
	for i := range sample {
		sample[i] = gen()
	}
	tree := NewTemplateTreeFromSample(TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 32, CheckEvery: 1 << 30,
	}, sample)
	for i := 0; i < 32000; i++ {
		tree.Insert(model.Tuple{Key: gen(), Time: model.Timestamp(i)})
	}
	even := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 32, CheckEvery: 1 << 30})
	rng = rand.New(rand.NewSource(11))
	for i := 0; i < 32000; i++ {
		even.Insert(model.Tuple{Key: gen(), Time: model.Timestamp(i)})
	}
	if tree.Skewness() >= even.Skewness() {
		t.Errorf("sampled template skew %.2f not better than even split %.2f", tree.Skewness(), even.Skewness())
	}
}

func TestTemplateSetKeys(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	tree.SetKeys(model.KeyRange{Lo: 50, Hi: 150})
	if got := tree.Keys(); got != (model.KeyRange{Lo: 50, Hi: 150}) {
		t.Errorf("Keys = %v", got)
	}
	// Tuples outside the nominal range still insert (overlap window after
	// repartition, §III-D).
	tree.Insert(model.Tuple{Key: 10, Time: 1})
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != 1 {
		t.Errorf("out-of-nominal-range tuple lost: %d", len(got))
	}
}

func TestTemplateInvalidRanges(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	tree.Insert(model.Tuple{Key: 5, Time: 5})
	if got := collect(tree, model.KeyRange{Lo: 10, Hi: 5}, model.FullTimeRange(), nil); got != nil {
		t.Error("inverted key range must return nothing")
	}
	if got := collect(tree, model.FullKeyRange(), model.TimeRange{Lo: 10, Hi: 5}, nil); got != nil {
		t.Error("inverted time range must return nothing")
	}
}
