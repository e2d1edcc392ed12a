package core

import (
	"fmt"
	"sort"
	"testing"

	"waterwheel/internal/model"
)

// FuzzTemplateTreeInsertScan drives a template tree through an arbitrary
// interleaving of single inserts, staged batch inserts, range scans,
// forced template rebuilds, and flush swaps, checking every scan against a
// sorted-slice oracle. The tree is configured with a tiny leaf count and
// an aggressive skew-check cadence so adaptive template updates fire
// constantly mid-stream — the scenario where a lost or duplicated tuple
// during redistribution or a mid-batch leaf merge would show up
// immediately. Every tuple carries a payload derived from the input so
// arena corruption (a ref pointing at the wrong bytes after a column
// merge or redistribution) surfaces as a multiset mismatch, and each
// FlushReset snapshot is re-verified at the end — after the live tree has
// kept mutating — so a snapshot sharing state with live columns fails.
func FuzzTemplateTreeInsertScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{7, 0, 0, 0, 0, 6, 0, 0, 0, 0, 7, 255, 255, 255, 255})
	// A skewed run: many inserts clustered on one key prefix, then scans.
	skew := make([]byte, 0, 300)
	for i := 0; i < 50; i++ {
		skew = append(skew, 0, 0, byte(i%4), byte(i), byte(i))
	}
	skew = append(skew, 7, 0, 0, 255, 255)
	f.Add(skew)
	// A batch-heavy run: stage dup-keyed tuples, flush as one batch, scan.
	batchy := make([]byte, 0, 300)
	for i := 0; i < 40; i++ {
		batchy = append(batchy, 5, 0, byte(i%3), byte(i), byte(i))
	}
	batchy = append(batchy, 4, 0, 0, 0, 0, 7, 0, 0, 255, 255)
	f.Add(batchy)
	// A flush-heavy run: insert, swap out a snapshot, keep inserting.
	flushy := make([]byte, 0, 300)
	for i := 0; i < 30; i++ {
		flushy = append(flushy, 0, byte(i), byte(i), 0, byte(i))
		if i%10 == 9 {
			flushy = append(flushy, 3, 0, 0, 0, 0)
		}
	}
	flushy = append(flushy, 7, 0, 0, 255, 255)
	f.Add(flushy)

	f.Fuzz(func(t *testing.T, data []byte) {
		tree := NewTemplateTree(TemplateConfig{
			Keys:          model.KeyRange{Lo: 0, Hi: 1<<16 - 1},
			Leaves:        8,
			SkewThreshold: 0.3,
			CheckEvery:    8,
		})
		var oracle []model.Tuple
		var pending []model.Tuple // staged for the next InsertBatch
		type flushed struct {
			snap   *FlushSnapshot
			oracle []model.Tuple
		}
		var snaps []flushed

		// Variable-length payloads (including empty) exercise the arena:
		// ref/offset corruption shows up as a payload mismatch.
		payload := func(a, b, c, d byte) []byte {
			full := []byte{a ^ 0xA5, b, c, d}
			return full[:int(d)%5]
		}

		diff := func(what string, got, want []model.Tuple) {
			// Scans visit leaves in key order but make no intra-leaf order
			// promise across time; compare as sorted multisets.
			sort.Slice(got, func(i, j int) bool { return model.CompareTuples(&got[i], &got[j]) < 0 })
			sort.Slice(want, func(i, j int) bool { return model.CompareTuples(&want[i], &want[j]) < 0 })
			if len(got) != len(want) {
				t.Fatalf("%s returned %d tuples, oracle has %d", what, len(got), len(want))
			}
			for i := range got {
				if model.CompareTuples(&got[i], &want[i]) != 0 {
					t.Fatalf("%s diverged at %d: got %v, want %v", what, i, got[i], want[i])
				}
			}
		}

		scan := func(kr model.KeyRange, tr model.TimeRange) {
			var got []model.Tuple
			scan(tree, kr, tr, nil, func(tp *model.Tuple) bool {
				// The visitor tuple is reused and its payload aliases the
				// leaf arena; copy what outlives the callback.
				got = append(got, model.Tuple{Key: tp.Key, Time: tp.Time, Payload: append([]byte(nil), tp.Payload...)})
				return true
			})
			var want []model.Tuple
			for _, tp := range oracle {
				if kr.Contains(tp.Key) && tr.Contains(tp.Time) {
					want = append(want, tp)
				}
			}
			diff("scan", got, want)
		}

		for len(data) >= 5 {
			op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
			data = data[5:]
			switch op % 8 {
			case 3:
				// Swap the memtable out. The snapshot's contents are pinned
				// now and re-checked at the very end, after the live tree
				// has overwritten and reallocated its columns many times.
				if snap := tree.FlushReset(); snap != nil {
					snaps = append(snaps, flushed{snap: snap, oracle: oracle})
				}
				oracle = nil
			case 4:
				// Flush the staged batch through the vectorized path; only
				// now do the staged tuples become visible to the oracle.
				tree.InsertBatch(pending)
				oracle = append(oracle, pending...)
				pending = nil
			case 5:
				pending = append(pending, model.Tuple{
					Key:     model.Key(a)<<8 | model.Key(b),
					Time:    model.Timestamp(c)<<8 | model.Timestamp(d),
					Payload: payload(a, b, c, d),
				})
			case 6:
				tree.UpdateTemplate()
			case 7:
				lo := model.Key(a)<<8 | model.Key(b)
				hi := model.Key(c)<<8 | model.Key(d)
				if hi < lo {
					lo, hi = hi, lo
				}
				scan(model.KeyRange{Lo: lo, Hi: hi}, model.FullTimeRange())
			default:
				tp := model.Tuple{
					Key:     model.Key(a)<<8 | model.Key(b),
					Time:    model.Timestamp(c)<<8 | model.Timestamp(d),
					Payload: payload(a, b, c, d),
				}
				tree.Insert(tp)
				oracle = append(oracle, tp)
			}
		}
		tree.InsertBatch(pending)
		oracle = append(oracle, pending...)
		scan(model.FullKeyRange(), model.FullTimeRange())
		if tree.Len() != len(oracle) {
			t.Fatalf("tree.Len() = %d, oracle holds %d", tree.Len(), len(oracle))
		}
		// Snapshot isolation: every flushed snapshot still holds exactly
		// what the tree held at swap time, untouched by later mutation.
		for si, fl := range snaps {
			var got []model.Tuple
			fl.snap.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(k model.Key, ts model.Timestamp, p []byte) bool {
				got = append(got, model.Tuple{Key: k, Time: ts, Payload: append([]byte(nil), p...)})
				return true
			})
			diff(fmt.Sprintf("snapshot %d", si), got, fl.oracle)
			if fl.snap.Count != len(fl.oracle) {
				t.Fatalf("snapshot %d Count = %d, oracle holds %d", si, fl.snap.Count, len(fl.oracle))
			}
		}
	})
}
