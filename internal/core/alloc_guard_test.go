package core

import (
	"testing"

	"waterwheel/internal/model"
)

// TestInsertBatchSteadyStateAllocs guards the SoA leaf's core promise: a
// steady-state insert performs no per-tuple heap allocations. Payload
// bytes land in the leaf arena (amortized append), keys/times/refs in the
// column buffers (amortized doubling), and the grouping scratch comes from
// a pool — so the per-tuple average must stay near zero, with a small
// tolerance for the amortized buffer growth the measurement window spans.
// The cases: batches spread over every leaf; Insert, a batch of one whose
// slice stays on the stack; and batches of an edge-bound stream that each
// land in one leaf, whose run sort must not allocate and whose template
// rebuilds must amortize as the tree grows.
func TestInsertBatchSteadyStateAllocs(t *testing.T) {
	hashed := func(n uint64) model.Key { return model.Key((n * 2654435761) % (1 << 32)) }
	batched := func(tree *TemplateTree, batch []model.Tuple) { tree.InsertBatch(batch) }
	for _, tc := range []struct {
		name   string
		leaves int
		batch  int
		key    func(n uint64) model.Key
		insert func(*TemplateTree, []model.Tuple)
	}{
		{"spread", 64, 256, hashed, batched},
		{"Insert", 64, 256, hashed, func(tree *TemplateTree, batch []model.Tuple) {
			for i := range batch {
				tree.Insert(batch[i])
			}
		}},
		// A consumer block of an indexing server's 256-leaf tree: each
		// batch is the next 2 048 keys, in reverse, past every separator,
		// so all of it lands in the last leaf.
		{"one-leaf", 256, 2048, func(n uint64) model.Key { return model.Key(n ^ 2047) }, batched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name == "Insert" {
				t.Skip("the race detector's sync.Pool drops a quarter of its entries at random, and a batch of one cannot amortize the scratch it then allocates")
			}
			tree := NewTemplateTree(TemplateConfig{
				Keys:   model.KeyRange{Lo: 0, Hi: model.Key(1<<32 - 1)},
				Leaves: tc.leaves,
			})
			payload := []byte("0123456789abcdef")
			batch := make([]model.Tuple, tc.batch)
			n := uint64(0)
			fill := func() {
				for i := range batch {
					batch[i] = model.Tuple{Key: tc.key(n), Time: model.Timestamp(1000 + n), Payload: payload}
					n++
				}
			}
			// Warm past initial column growth: leaves reach working
			// capacity and the scratch pool is populated.
			for i := 0; i < 100; i++ {
				fill()
				tc.insert(tree, batch)
			}
			allocs := testing.AllocsPerRun(200, func() {
				fill()
				tc.insert(tree, batch)
			})
			perTuple := allocs / float64(tc.batch)
			t.Logf("%.2f allocs per %d tuples, %.4f allocs/tuple", allocs, tc.batch, perTuple)
			if perTuple > 0.05 {
				t.Errorf("inserting allocates %.4f per tuple (%.2f per %d tuples), want ~0",
					perTuple, allocs, tc.batch)
			}
		})
	}
}

// TestRangeScanAllocs guards the read side: a RangeCols scan over resident
// leaves allocates nothing — payloads are handed out as arena aliases and
// no tuple values are materialized. The Range compatibility shim is
// allowed exactly one allocation (its reused visitor tuple escaping).
func TestRangeScanAllocs(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys:   model.KeyRange{Lo: 0, Hi: model.Key(1<<32 - 1)},
		Leaves: 16,
	})
	payload := []byte("0123456789abcdef")
	for i := uint64(0); i < 10000; i++ {
		tree.Insert(model.Tuple{
			Key:     model.Key((i * 2654435761) % (1 << 32)),
			Time:    model.Timestamp(1000 + i),
			Payload: payload,
		})
	}
	var sink int
	cols := testing.AllocsPerRun(20, func() {
		tree.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(_ model.Key, _ model.Timestamp, p []byte) bool {
			sink += len(p)
			return true
		})
	})
	if cols > 0.5 {
		t.Errorf("RangeCols allocates %.2f per full scan, want 0", cols)
	}
	shim := testing.AllocsPerRun(20, func() {
		scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(tp *model.Tuple) bool {
			sink += len(tp.Payload)
			return true
		})
	})
	if shim > 1.5 {
		t.Errorf("Range shim allocates %.2f per full scan, want <= 1 (hoisted tuple only)", shim)
	}
	_ = sink
}
