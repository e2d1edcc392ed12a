// Unit tests of the comparison trees of §VI-A (this file and bulk_test.go),
// through the package's exported surface.
package baseline_test

import (
	"math/rand"
	"sync"
	"testing"

	"waterwheel/internal/baseline"
	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

func collect(idx baseline.Index, kr model.KeyRange, tr model.TimeRange, f *model.Filter) []model.Tuple {
	var out []model.Tuple
	idx.Range(kr, tr, f, func(t *model.Tuple) bool {
		out = append(out, *t)
		return true
	})
	return out
}

func TestConcurrentInsertAndRange(t *testing.T) {
	tree := baseline.NewConcurrentTree(4, 4) // tiny nodes to force deep splits
	for k := 0; k < 1000; k++ {
		tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(k)})
	}
	if tree.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tree.Len())
	}
	// 1000 entries in leaves of at most 4 need at least 250 leaves, each but
	// the first made by a split.
	if n := tree.Stats().Splits.Load(); n < 249 {
		t.Errorf("%d splits recorded for 1000 entries at cap 4 — baseline must split", n)
	}
	got := collect(tree, model.KeyRange{Lo: 100, Hi: 199}, model.FullTimeRange(), nil)
	if len(got) != 100 {
		t.Fatalf("range returned %d, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatal("results out of key order")
		}
	}
}

func TestConcurrentReverseAndRandomOrders(t *testing.T) {
	for name, gen := range map[string]func(i int) model.Key{
		"reverse": func(i int) model.Key { return model.Key(5000 - i) },
		"random":  func(i int) model.Key { return model.Key(splitmixKey(uint64(i))) },
	} {
		tree := baseline.NewConcurrentTree(8, 8)
		seen := map[model.Key]int{}
		for i := 0; i < 5000; i++ {
			k := gen(i)
			seen[k]++
			tree.Insert(model.Tuple{Key: k, Time: model.Timestamp(i)})
		}
		got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil)
		if len(got) != 5000 {
			t.Fatalf("%s: full scan %d, want 5000", name, len(got))
		}
		for _, tp := range got {
			seen[tp.Key]--
		}
		for k, c := range seen {
			if c != 0 {
				t.Fatalf("%s: key %d count off by %d", name, k, c)
			}
		}
	}
}

func splitmixKey(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func TestConcurrentDuplicateKeys(t *testing.T) {
	tree := baseline.NewConcurrentTree(4, 4)
	// 100 copies of one key overflow any leaf: tree must keep them findable.
	for i := 0; i < 100; i++ {
		tree.Insert(model.Tuple{Key: 7, Time: model.Timestamp(i)})
	}
	for i := 0; i < 100; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i * 10), Time: model.Timestamp(i)})
	}
	// Keys inserted: 7 x100 plus 0,10,...,990; only key 7 matches the probe.
	got := collect(tree, model.KeyRange{Lo: 7, Hi: 7}, model.FullTimeRange(), nil)
	if len(got) != 100 {
		t.Fatalf("point query = %d, want 100", len(got))
	}
}

func TestConcurrentDuplicatePointQueryExact(t *testing.T) {
	tree := baseline.NewConcurrentTree(4, 4)
	for i := 0; i < 64; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i % 4), Time: model.Timestamp(i)})
	}
	for k := model.Key(0); k < 4; k++ {
		got := collect(tree, model.KeyRange{Lo: k, Hi: k}, model.FullTimeRange(), nil)
		if len(got) != 16 {
			t.Fatalf("key %d: got %d, want 16", k, len(got))
		}
	}
}

func TestConcurrentTimeFilterAndPredicate(t *testing.T) {
	tree := baseline.NewConcurrentTree(16, 16)
	for i := 0; i < 500; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i * 10)})
	}
	got := collect(tree, model.KeyRange{Lo: 0, Hi: 499}, model.TimeRange{Lo: 1000, Hi: 2000}, nil)
	if len(got) != 101 {
		t.Fatalf("time filter returned %d, want 101", len(got))
	}
	got = collect(tree, model.FullKeyRange(), model.FullTimeRange(), model.KeyMod(5, 0))
	if len(got) != 100 {
		t.Fatalf("predicate returned %d, want 100", len(got))
	}
}

func TestConcurrentParallelInserts(t *testing.T) {
	tree := baseline.NewConcurrentTree(baseline.DefaultLeafCap, baseline.DefaultFanout)
	const (
		writers = 8
		perW    = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w * 31)))
			for i := 0; i < perW; i++ {
				tree.Insert(model.Tuple{Key: model.Key(rng.Uint64()), Time: model.Timestamp(i)})
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tree.Range(model.KeyRange{Lo: 0, Hi: model.MaxKey / 2}, model.FullTimeRange(), nil,
					func(*model.Tuple) bool { return true })
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := tree.Len(); got != writers*perW {
		t.Fatalf("Len = %d, want %d", got, writers*perW)
	}
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != writers*perW {
		t.Fatalf("full scan %d, want %d", len(got), writers*perW)
	}
}

func TestConcurrentEarlyStop(t *testing.T) {
	tree := baseline.NewConcurrentTree(4, 4)
	for i := 0; i < 100; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: 0})
	}
	n := 0
	tree.Range(model.FullKeyRange(), model.FullTimeRange(), nil, func(*model.Tuple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

// TestSharedStatsCollector: core.Stats is the one counter block all three
// compared trees report into (Fig. 7b reads one per tree); each feeds the
// fields that describe it and leaves the others alone.
func TestSharedStatsCollector(t *testing.T) {
	tmpl := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	conc := baseline.NewConcurrentTree(4, 4)
	bulk := baseline.NewBulkTree(4, 4)
	for i := 0; i < 50; i++ {
		tp := model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}
		tmpl.Insert(tp)
		conc.Insert(tp)
		bulk.Insert(tp)
	}
	bulk.Build()
	st, sc, sb := tmpl.Stats().Snapshot(), conc.Stats().Snapshot(), bulk.Stats().Snapshot()
	if st.Inserts != 50 || sc.Inserts != 50 || sb.Inserts != 50 {
		t.Errorf("inserts = %d/%d/%d, want 50 each", st.Inserts, sc.Inserts, sb.Inserts)
	}
	if sc.Splits == 0 || st.Splits != 0 || sb.Splits != 0 {
		t.Errorf("splits = %d/%d/%d, want only the concurrent tree to split", st.Splits, sc.Splits, sb.Splits)
	}
	if sb.SortNanos == 0 || st.SortNanos != 0 || sc.SortNanos != 0 {
		t.Errorf("sort nanos = %d/%d/%d, want only the bulk tree to sort", st.SortNanos, sc.SortNanos, sb.SortNanos)
	}
}
