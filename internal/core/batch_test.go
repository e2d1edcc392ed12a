package core

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"waterwheel/internal/model"
)

func seqTuple(rng *rand.Rand, seq uint64, keyDomain int) model.Tuple {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, seq)
	return model.Tuple{
		Key:     model.Key(rng.Intn(keyDomain)),
		Time:    model.Timestamp(rng.Intn(10_000)),
		Payload: p,
	}
}

// TestInsertBatchSerialEquivalence is the batch path's core contract: a
// stream delivered through InsertBatch in arbitrary batch sizes produces
// the exact same scan sequences as the same stream inserted one tuple at a
// time — including the arrival order of equal keys, which the payload
// sequence numbers pin down. Dup-heavy key domains and out-of-order
// timestamps exercise the equal-key runs and leaf min/max maintenance;
// template updates fire at different points on the two trees (per-insert
// vs per-batch skew accounting) and must not break the equivalence.
func TestInsertBatchSerialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		cfg := TemplateConfig{
			Keys:          model.KeyRange{Lo: 0, Hi: 1 << 16},
			Leaves:        8,
			SkewThreshold: 0.3,
			CheckEvery:    16,
		}
		serial := NewTemplateTree(cfg)
		batched := NewTemplateTree(cfg)

		// Dup-heavy on odd rounds: a tiny key domain makes every leaf one
		// long equal-key run.
		keyDomain := 1 << 16
		if round%2 == 1 {
			keyDomain = 4 + rng.Intn(12)
		}
		n := 100 + rng.Intn(900)
		stream := make([]model.Tuple, n)
		for i := range stream {
			stream[i] = seqTuple(rng, uint64(i), keyDomain)
		}

		for _, tp := range stream {
			serial.Insert(tp)
		}
		for pos := 0; pos < n; {
			sz := 1 + rng.Intn(64)
			if pos+sz > n {
				sz = n - pos
			}
			batched.InsertBatch(stream[pos : pos+sz])
			pos += sz
		}

		if serial.Len() != batched.Len() {
			t.Fatalf("round %d: serial len %d, batched len %d", round, serial.Len(), batched.Len())
		}
		queries := []struct {
			kr model.KeyRange
			tr model.TimeRange
		}{
			{model.FullKeyRange(), model.FullTimeRange()},
			{model.KeyRange{Lo: 0, Hi: model.Key(keyDomain / 2)}, model.FullTimeRange()},
			{model.FullKeyRange(), model.TimeRange{Lo: 2000, Hi: 7000}},
		}
		for qi, q := range queries {
			var got, want []model.Tuple
			scan(serial, q.kr, q.tr, nil, func(tp *model.Tuple) bool {
				want = append(want, *tp)
				return true
			})
			scan(batched, q.kr, q.tr, nil, func(tp *model.Tuple) bool {
				got = append(got, *tp)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("round %d query %d: batched %d tuples, serial %d", round, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key || got[i].Time != want[i].Time ||
					binary.BigEndian.Uint64(got[i].Payload) != binary.BigEndian.Uint64(want[i].Payload) {
					t.Fatalf("round %d query %d position %d: batched %v(seq %d), serial %v(seq %d)",
						round, qi, i, got[i], binary.BigEndian.Uint64(got[i].Payload),
						want[i], binary.BigEndian.Uint64(want[i].Payload))
				}
			}
		}
	}
}

// TestMergeDirectionsPreserveEqualKeyOrder pins the equal-key contract on
// both column-merge directions. A run whose median insertion point falls
// in the left half of the leaf merges forward (into front slack); a run
// landing in the right half merges backward (into back slack). In both
// directions, and when the run's keys equal keys already resident, the
// batch tuples must land after the resident equal-key group with the
// run's own arrival order intact — exactly what serial insertion yields.
func TestMergeDirectionsPreserveEqualKeyOrder(t *testing.T) {
	cases := []struct {
		name     string
		resident []model.Key // inserted serially first
		run      []model.Key // delivered as one InsertBatch
	}{
		// Run at the far left: median point 0, forward merge.
		{"forward", []model.Key{500, 500, 500, 600, 600, 700}, []model.Key{10, 10, 10, 10}},
		// Run at the far right: median point n, backward merge.
		{"backward", []model.Key{500, 500, 500, 600, 600, 700}, []model.Key{900, 900, 900, 900}},
		// Run equal to a resident group near the front: forward direction
		// with the equal-key boundary exercised.
		{"forward-equal", []model.Key{500, 500, 500, 600, 600, 700, 800, 900}, []model.Key{500, 500, 500}},
		// Run equal to a resident group near the back: backward direction.
		{"backward-equal", []model.Key{100, 200, 300, 400, 700, 700, 700}, []model.Key{700, 700, 700}},
		// Straddling run: groups on both sides of the median.
		{"straddle", []model.Key{400, 400, 500, 500, 600, 600}, []model.Key{300, 400, 500, 500, 600, 900}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 2}
			serial := NewTemplateTree(cfg)
			batched := NewTemplateTree(cfg)
			seq := uint64(0)
			mk := func(k model.Key) model.Tuple {
				p := make([]byte, 8)
				binary.BigEndian.PutUint64(p, seq)
				seq++
				return model.Tuple{Key: k, Time: model.Timestamp(seq), Payload: p}
			}
			var resident, run []model.Tuple
			for _, k := range tc.resident {
				resident = append(resident, mk(k))
			}
			for _, k := range tc.run {
				run = append(run, mk(k))
			}
			for _, tp := range append(append([]model.Tuple(nil), resident...), run...) {
				serial.Insert(tp)
			}
			for _, tp := range resident {
				batched.Insert(tp)
			}
			batched.InsertBatch(run)

			var got, want []uint64
			collect := func(tree *TemplateTree, out *[]uint64) {
				scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(tp *model.Tuple) bool {
					*out = append(*out, binary.BigEndian.Uint64(tp.Payload))
					return true
				})
			}
			collect(serial, &want)
			collect(batched, &got)
			if len(got) != len(want) {
				t.Fatalf("batched yields %d tuples, serial %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sequence order diverged at %d: batched %v, serial %v", i, got, want)
				}
			}
		})
	}
}

// TestInsertBatchConcurrentWithScans hammers InsertBatch from several
// goroutines while scans and template updates run — the shared-gate
// regime the per-leaf merge must survive. Run with -race.
func TestInsertBatchConcurrentWithScans(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys:          model.KeyRange{Lo: 0, Hi: 1 << 16},
		Leaves:        8,
		SkewThreshold: 0.3,
		CheckEvery:    32,
	})
	const writers, batches, perBatch = 4, 50, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < batches; b++ {
				batch := make([]model.Tuple, perBatch)
				for i := range batch {
					batch[i] = seqTuple(rng, uint64(b*perBatch+i), 1<<10)
				}
				tree.InsertBatch(batch)
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			prev := model.Key(0)
			count := 0
			scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(tp *model.Tuple) bool {
				if count > 0 && tp.Key < prev {
					t.Error("scan out of key order during concurrent batches")
					return false
				}
				prev = tp.Key
				count++
				return true
			})
			tree.UpdateTemplate()
		}
	}()
	wg.Wait()
	close(stop)
	if got, want := tree.Len(), writers*batches*perBatch; got != want {
		t.Fatalf("tree.Len() = %d, want %d", got, want)
	}
}
