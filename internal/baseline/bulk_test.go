package baseline_test

import (
	"testing"

	"waterwheel/internal/baseline"
	"waterwheel/internal/model"
)

func TestBulkVisibilityOnlyAfterBuild(t *testing.T) {
	tree := baseline.NewBulkTree(8, 8)
	for i := 0; i < 100; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != 0 {
		t.Fatalf("tuples visible before Build: %d", len(got))
	}
	if tree.Len() != 0 {
		t.Fatalf("Len before Build = %d, want 0", tree.Len())
	}
	if n := tree.Build(); n != 100 {
		t.Fatalf("Build = %d, want 100", n)
	}
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != 100 {
		t.Fatalf("after Build visible %d, want 100", len(got))
	}
	if tree.Len() != 100 {
		t.Errorf("Len after Build = %d, want 100", tree.Len())
	}
}

func TestBulkIncrementalRebuild(t *testing.T) {
	tree := baseline.NewBulkTree(8, 8)
	for i := 0; i < 50; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i * 2), Time: 0})
	}
	tree.Build()
	for i := 0; i < 50; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i*2 + 1), Time: 0})
	}
	if n := tree.Build(); n != 100 {
		t.Fatalf("second Build = %d, want 100", n)
	}
	got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil)
	if len(got) != 100 {
		t.Fatalf("visible %d, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatal("merged build out of order")
		}
	}
}

func TestBulkRangeAndFilters(t *testing.T) {
	tree := baseline.NewBulkTree(4, 4)
	for i := 0; i < 300; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i * 5)})
	}
	tree.Build()
	got := collect(tree, model.KeyRange{Lo: 100, Hi: 150}, model.FullTimeRange(), nil)
	if len(got) != 51 {
		t.Fatalf("key range %d, want 51", len(got))
	}
	got = collect(tree, model.FullKeyRange(), model.TimeRange{Lo: 500, Hi: 600}, nil)
	if len(got) != 21 {
		t.Fatalf("time range %d, want 21", len(got))
	}
	got = collect(tree, model.FullKeyRange(), model.FullTimeRange(), model.KeyMod(3, 1))
	if len(got) != 100 {
		t.Fatalf("predicate %d, want 100", len(got))
	}
}

func TestBulkDuplicateKeysAcrossLeafBoundary(t *testing.T) {
	tree := baseline.NewBulkTree(4, 4)
	// 10 copies each of 20 keys — runs far exceed leaf capacity.
	for k := 0; k < 20; k++ {
		for c := 0; c < 10; c++ {
			tree.Insert(model.Tuple{Key: model.Key(k), Time: model.Timestamp(c)})
		}
	}
	tree.Build()
	for k := model.Key(0); k < 20; k++ {
		got := collect(tree, model.KeyRange{Lo: k, Hi: k}, model.FullTimeRange(), nil)
		if len(got) != 10 {
			t.Fatalf("key %d: got %d, want 10", k, len(got))
		}
	}
}

func TestBulkEmptyBuild(t *testing.T) {
	tree := baseline.NewBulkTree(4, 4)
	if n := tree.Build(); n != 0 {
		t.Fatalf("empty Build = %d", n)
	}
	if got := collect(tree, model.FullKeyRange(), model.FullTimeRange(), nil); len(got) != 0 {
		t.Fatal("empty tree returned tuples")
	}
}

func TestBulkStatsRecorded(t *testing.T) {
	tree := baseline.NewBulkTree(8, 8)
	for i := 0; i < 10000; i++ {
		tree.Insert(model.Tuple{Key: model.Key(splitmixKey(uint64(i))), Time: 0})
	}
	tree.Build()
	s := tree.Stats().Snapshot()
	if s.SortNanos == 0 || s.BuildNanos == 0 {
		t.Errorf("expected nonzero sort/build time, got sort=%d build=%d", s.SortNanos, s.BuildNanos)
	}
	if s.Inserts != 10000 {
		t.Errorf("Inserts = %d", s.Inserts)
	}
}

func TestBulkEarlyStop(t *testing.T) {
	tree := baseline.NewBulkTree(4, 4)
	for i := 0; i < 64; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: 0})
	}
	tree.Build()
	n := 0
	tree.Range(model.FullKeyRange(), model.FullTimeRange(), nil, func(*model.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}
