package baseline

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

func sortTuples(ts []model.Tuple) {
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Time < ts[j].Time
	})
}

// collectIndex gathers a scan through the Index surface, copying each
// payload (the adapter's tuple aliases the leaf arena).
func collectIndex(idx Index, kr model.KeyRange, tr model.TimeRange, f *model.Filter) []model.Tuple {
	var out []model.Tuple
	idx.Range(kr, tr, f, func(t *model.Tuple) bool {
		out = append(out, model.Tuple{Key: t.Key, Time: t.Time, Payload: append([]byte(nil), t.Payload...)})
		return true
	})
	sortTuples(out)
	return out
}

// TestIndexesAgreeWithOracle cross-checks the three B+ trees of §VI-A, each
// through the one Index surface the figure drivers use, against a linear
// scan on randomized workloads and queries — and the Template adapter
// against the scan it is built on: adapter ≡ RangeCols ≡ oracle.
func TestIndexesAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		tree := core.NewTemplateTree(core.TemplateConfig{
			Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 16,
			CheckEvery: 128, SkewThreshold: 0.8,
		})
		bulk := NewBulkTree(8, 8)
		indexes := map[string]Index{"template": Template{tree}, "concurrent": NewConcurrentTree(8, 8), "bulk": bulk}

		tuples := make([]model.Tuple, 200+rng.Intn(800))
		for i := range tuples {
			tuples[i] = model.Tuple{
				Key:     model.Key(rng.Intn(1 << 16)),
				Time:    model.Timestamp(rng.Intn(10000)),
				Payload: []byte{byte(i), byte(i >> 8)},
			}
			for _, idx := range indexes {
				idx.Insert(tuples[i])
			}
		}
		bulk.Build()
		if round%3 == 0 {
			tree.UpdateTemplate() // updates must not change results
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

			var want []model.Tuple
			for i := range tuples {
				if tp := &tuples[i]; kr.Contains(tp.Key) && tr.Contains(tp.Time) && filter.Matches(tp) {
					want = append(want, *tp)
				}
			}
			sortTuples(want)
			for name, idx := range indexes {
				got := collectIndex(idx, kr, tr, filter)
				if len(got) != len(want) {
					t.Fatalf("%s: got %d tuples, want %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i].Key != want[i].Key || got[i].Time != want[i].Time {
						t.Fatalf("%s: tuple %d is %v, want %v", name, i, got[i], want[i])
					}
				}
			}

			// The adapter visits exactly what RangeCols visits, in its order,
			// payload bytes included.
			var cols, adapted []model.Tuple
			tree.RangeCols(kr, tr, filter, func(k model.Key, ts model.Timestamp, p []byte) bool {
				cols = append(cols, model.Tuple{Key: k, Time: ts, Payload: append([]byte(nil), p...)})
				return true
			})
			Template{tree}.Range(kr, tr, filter, func(tp *model.Tuple) bool {
				adapted = append(adapted, model.Tuple{Key: tp.Key, Time: tp.Time, Payload: append([]byte(nil), tp.Payload...)})
				return true
			})
			if len(cols) != len(adapted) {
				t.Fatalf("adapter visited %d tuples, RangeCols %d", len(adapted), len(cols))
			}
			for i := range cols {
				if cols[i].Key != adapted[i].Key || cols[i].Time != adapted[i].Time || !bytes.Equal(cols[i].Payload, adapted[i].Payload) {
					t.Fatalf("adapter visit %d is %v, RangeCols visited %v", i, adapted[i], cols[i])
				}
			}
		}
	}
}

// TestTemplateAdapterStopsEarly: the visitor's false reaches RangeCols.
func TestTemplateAdapterStopsEarly(t *testing.T) {
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	for k := 0; k < 100; k++ {
		tree.Insert(model.Tuple{Key: model.Key(k), Time: 1})
	}
	n := 0
	Template{tree}.Range(model.FullKeyRange(), model.FullTimeRange(), nil, func(*model.Tuple) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("visited %d, want 7", n)
	}
}
