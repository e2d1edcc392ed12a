package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"waterwheel/internal/model"
)

// refIndex is a trivially correct reference: a slice scanned linearly.
type refIndex struct {
	tuples []model.Tuple
}

func (r *refIndex) query(kr model.KeyRange, tr model.TimeRange, f *model.Filter) []model.Tuple {
	var out []model.Tuple
	for i := range r.tuples {
		t := &r.tuples[i]
		if kr.Contains(t.Key) && tr.Contains(t.Time) && f.Matches(t) {
			out = append(out, *t)
		}
	}
	sortTuples(out)
	return out
}

func sortTuples(ts []model.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Time < ts[j].Time
	})
}

func sameTuples(t *testing.T, name string, got, want []model.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Time != want[i].Time {
			t.Fatalf("%s: tuple %d mismatch: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestAllVariantsAgreeWithReference cross-checks every way a template tree
// is built and filled — an even partition fed tuple by tuple, the same fed
// in batches, a partition seeded from a key sample — against the reference
// on randomized workloads and queries. (The comparison against the
// concurrent and bulk-loading trees lives with them, in internal/baseline.)
func TestAllVariantsAgreeWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		cfg := TemplateConfig{
			Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 16,
			CheckEvery: 128, SkewThreshold: 0.8,
		}
		n := 200 + rng.Intn(800)
		tuples := make([]model.Tuple, n)
		sample := make([]model.Key, n)
		for i := range tuples {
			tuples[i] = model.Tuple{
				Key:  model.Key(rng.Intn(1 << 16)),
				Time: model.Timestamp(rng.Intn(10000)),
			}
			sample[i] = tuples[i].Key
		}
		ref := &refIndex{tuples: tuples}
		single, batched, sampled := NewTemplateTree(cfg), NewTemplateTree(cfg), NewTemplateTreeFromSample(cfg, sample)
		for i := range tuples {
			single.Insert(tuples[i])
			sampled.Insert(tuples[i])
		}
		for rest := tuples; len(rest) > 0; {
			m := 1 + rng.Intn(100)
			if m > len(rest) {
				m = len(rest)
			}
			batched.InsertBatch(rest[:m])
			rest = rest[m:]
		}
		if round%3 == 0 {
			single.UpdateTemplate() // updates must not change results
		}

		for q := 0; q < 10; q++ {
			a, b := model.Key(rng.Intn(1<<16)), model.Key(rng.Intn(1<<16))
			if a > b {
				a, b = b, a
			}
			c, d := model.Timestamp(rng.Intn(10000)), model.Timestamp(rng.Intn(10000))
			if c > d {
				c, d = d, c
			}
			kr, tr := model.KeyRange{Lo: a, Hi: b}, model.TimeRange{Lo: c, Hi: d}
			var filter *model.Filter
			if q%2 == 0 {
				filter = model.KeyMod(3, uint64(q%3))
			}
			want := ref.query(kr, tr, filter)
			for name, tree := range map[string]*TemplateTree{"insert": single, "batch": batched, "sample": sampled} {
				got := collect(tree, kr, tr, filter)
				sortTuples(got)
				sameTuples(t, name, got, want)
			}
		}
	}
}

// TestTemplateRangeSortedInvariant: results of Range are non-decreasing in
// key for arbitrary inputs.
func TestTemplateRangeSortedInvariant(t *testing.T) {
	f := func(keys []uint16, lo, hi uint16) bool {
		tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 8})
		for i, k := range keys {
			tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(i)})
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		prev := model.Key(0)
		okOrder := true
		n := 0
		scan(tree, model.KeyRange{Lo: model.Key(lo), Hi: model.Key(hi)}, model.FullTimeRange(), nil,
			func(tp *model.Tuple) bool {
				if n > 0 && tp.Key < prev {
					okOrder = false
				}
				prev = tp.Key
				n++
				return true
			})
		// Count check against direct filter.
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		return okOrder && n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFlushThenRebuildEquivalence: a flush snapshot plus post-flush inserts
// must together equal the full inserted set.
func TestFlushThenRebuildEquivalence(t *testing.T) {
	f := func(firstKeys, secondKeys []uint16) bool {
		tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 8})
		for i, k := range firstKeys {
			tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(i)})
		}
		snap := tree.FlushReset()
		snapCount := 0
		if snap != nil {
			snapCount = snap.Count
		}
		for i, k := range secondKeys {
			tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(i)})
		}
		return snapCount == len(firstKeys) && tree.Len() == len(secondKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSkewnessProperties: skewness is 0 for perfectly even data and large
// for piled data, and never negative.
func TestSkewnessProperties(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 16}, Leaves: 4, CheckEvery: 1 << 30})
	// Partition is [0,4),[4,8),[8,12),[12,16]; 2 tuples per leaf.
	for _, k := range []model.Key{0, 1, 4, 5, 8, 9, 12, 13} {
		tree.Insert(model.Tuple{Key: k, Time: 0})
	}
	if s := tree.Skewness(); s != 0 {
		t.Errorf("even data skewness = %f, want 0", s)
	}
	tree2 := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 16}, Leaves: 4, CheckEvery: 1 << 30})
	for i := 0; i < 8; i++ {
		tree2.Insert(model.Tuple{Key: 1, Time: 0})
	}
	// All in one of 4 leaves: max=8, mean=2, S=(8-2)/2=3.
	if s := tree2.Skewness(); s != 3 {
		t.Errorf("piled data skewness = %f, want 3", s)
	}
	empty := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 16}, Leaves: 4})
	if s := empty.Skewness(); s != 0 {
		t.Errorf("empty skewness = %f, want 0", s)
	}
}

// TestBoundariesFromSorted checks Equation 3's even division and the
// duplicate-run rule.
func TestBoundariesFromSorted(t *testing.T) {
	keys := make([]model.Key, 100)
	for i := range keys {
		keys[i] = model.Key(i)
	}
	b := boundariesFromSorted(keys, 4)
	if len(b) != 3 || b[0] != 25 || b[1] != 50 || b[2] != 75 {
		t.Errorf("bounds = %v, want [25 50 75]", b)
	}
	if b := boundariesFromSorted(nil, 4); b != nil {
		t.Errorf("empty keys should give nil bounds, got %v", b)
	}
	if b := boundariesFromSorted(keys, 1); b != nil {
		t.Errorf("single leaf should give nil bounds, got %v", b)
	}
	// All-equal keys: bounds collapse to the same key; leaves may be empty
	// but routing must stay consistent (covered by duplicate-key test).
	same := []model.Key{9, 9, 9, 9}
	b = boundariesFromSorted(same, 3)
	for _, x := range b {
		if x != 9 {
			t.Errorf("duplicate-run bound = %v", b)
		}
	}
}

func TestEvenBoundariesFullDomain(t *testing.T) {
	b := evenBoundaries(model.FullKeyRange(), 8)
	if len(b) != 7 {
		t.Fatalf("got %d bounds", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing: %v", b)
		}
	}
}
