package core

import (
	"testing"

	"waterwheel/internal/model"
)

func TestSnapshotSub(t *testing.T) {
	a := StatsSnapshot{Inserts: 10, Splits: 4, SplitNanos: 100, SortNanos: 50, BuildNanos: 20, TemplateUpdates: 2, TemplateUpdateNanos: 30}
	b := StatsSnapshot{Inserts: 3, Splits: 1, SplitNanos: 40, SortNanos: 10, BuildNanos: 5, TemplateUpdates: 1, TemplateUpdateNanos: 10}
	d := a.Sub(b)
	if d.Inserts != 7 || d.Splits != 3 || d.SplitNanos != 60 || d.SortNanos != 40 ||
		d.BuildNanos != 15 || d.TemplateUpdates != 1 || d.TemplateUpdateNanos != 20 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestAccessors(t *testing.T) {
	tmpl := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1000}, Leaves: 8})
	if len(tmpl.leaves) != 8 {
		t.Errorf("leaves = %d, want 8", len(tmpl.leaves))
	}
	if b := tmpl.Bytes(); b != 0 {
		t.Errorf("empty tree bytes = %d", b)
	}
	tmpl.Insert(model.Tuple{Key: 1, Time: 1, Payload: make([]byte, 10)})
	if b := tmpl.Bytes(); b != 26 {
		t.Errorf("bytes = %d, want 26", b)
	}
	if tmpl.Stats() == nil {
		t.Error("nil stats accessor")
	}
}

func TestTemplateDeepTree(t *testing.T) {
	// 64 leaves, each covering 64 of the inserted keys.
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, Leaves: 64})
	for i := 0; i < 4096; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i * 256), Time: model.Timestamp(i)})
	}
	got := collect(tree, model.KeyRange{Lo: 0, Hi: 1 << 20}, model.FullTimeRange(), nil)
	if len(got) != 4096 {
		t.Errorf("deep tree lost tuples: %d", len(got))
	}
}
