package chunk

import (
	"encoding/binary"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// buildSecondarySnapshot creates a snapshot where each leaf's tuples carry
// a distinct secondary attribute value (= leaf index), so secondary
// pruning has clean expectations.
func buildSecondarySnapshot(t *testing.T) *core.FlushSnapshot {
	t.Helper()
	tree := core.NewTemplateTree(core.TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: 1600}, Leaves: 8,
	})
	for i := 0; i < 1600; i++ {
		leafIdx := uint64(i) / 200 // keys 0..1599 spread evenly over 8 leaves
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, leafIdx)
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i), Payload: payload})
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	return snap
}

func TestSecondaryIndexRoundTrip(t *testing.T) {
	snap := buildSecondarySnapshot(t)
	data, _, err := Build(snap, BuildOptions{Secondary: &SecondarySpec{Offset: 0}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasSecondary || h.SecondaryOffset != 0 {
		t.Fatalf("secondary metadata lost: has=%v off=%d", h.HasSecondary, h.SecondaryOffset)
	}
	nonNil := 0
	for _, f := range h.SecondaryFilters {
		if f != nil {
			nonNil++
		}
	}
	if nonNil == 0 {
		t.Fatal("no secondary filters decoded")
	}
}

func TestSecondaryPruning(t *testing.T) {
	snap := buildSecondarySnapshot(t)
	data, _, err := Build(snap, BuildOptions{Secondary: &SecondarySpec{Offset: 0}})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := ParseHeader(data)

	// Value 3 lives only in one leaf's key range; over the full key range
	// most leaves must be pruned by the secondary filter.
	v := uint64(3)
	read, pruned := h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &v)
	if len(read) == 0 {
		t.Fatal("secondary pruning removed the containing leaf (false negative)")
	}
	if len(read) > 2 { // bloom false positives may keep an extra leaf
		t.Fatalf("secondary pruning kept %d leaves, want ~1", len(read))
	}
	if pruned < 6 {
		t.Fatalf("pruned %d, want >= 6", pruned)
	}
	// The kept leaf actually contains the value.
	found := false
	for _, li := range read {
		d := h.Dir[li]
		var cols LeafColumns
		h.ScanLeafColsWith(&cols, li, data[d.Offset:d.Offset+d.Length], model.FullKeyRange(), model.FullTimeRange(),
			model.PayloadU64(0, model.CmpEQ, v), func(model.Key, model.Timestamp, []byte) bool {
				found = true
				return false
			})
	}
	if !found {
		t.Fatal("kept leaves do not contain the value")
	}
	// A value no tuple carries prunes everything (modulo false positives).
	missing := uint64(999)
	read, _ = h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &missing)
	if len(read) > 1 {
		t.Fatalf("missing value kept %d leaves", len(read))
	}
	// nil secEQ leaves everything in place.
	read, _ = h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, nil)
	if len(read) != 8 {
		t.Fatalf("nil secondary pruned: %d leaves", len(read))
	}
}

func TestSecondaryAbsentIsIgnored(t *testing.T) {
	snap := buildSecondarySnapshot(t)
	data, _, err := Build(snap, BuildOptions{}) // no secondary index
	if err != nil {
		t.Fatal(err)
	}
	h, _ := ParseHeader(data)
	if h.HasSecondary {
		t.Fatal("phantom secondary index")
	}
	v := uint64(3)
	read, _ := h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &v)
	if len(read) != 8 {
		t.Fatalf("secondary pruning applied without an index: %d leaves", len(read))
	}
}

func TestSecondaryShortPayloadsSkipped(t *testing.T) {
	// Tuples whose payload is too short for the attribute simply don't
	// enter the filter; building must not panic and queries for any value
	// prune those leaves.
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 2})
	for i := 0; i < 100; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: 0, Payload: []byte{1, 2}})
	}
	data, _, err := Build(tree.FlushReset(), BuildOptions{Secondary: &SecondarySpec{Offset: 0}})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := ParseHeader(data)
	v := uint64(42)
	read, _ := h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &v)
	if len(read) != 0 {
		t.Fatalf("leaves with only short payloads matched: %d", len(read))
	}
}

func TestRequiredPayloadU64EQ(t *testing.T) {
	eq := model.PayloadU64(8, model.CmpEQ, 77)
	cases := []struct {
		f    *model.Filter
		want bool
	}{
		{eq, true},
		{model.And(model.KeyCmp(model.CmpGT, 5), eq), true},
		{model.And(model.And(eq)), true},
		{model.Or(eq, model.True()), false},            // disjunct can't prune
		{model.Not(eq), false},                         // negation can't prune
		{model.PayloadU64(8, model.CmpGT, 77), false},  // not equality
		{model.PayloadU64(16, model.CmpEQ, 77), false}, // wrong offset
		{nil, false},
	}
	for i, c := range cases {
		v, ok := c.f.RequiredPayloadU64EQ(8)
		if ok != c.want {
			t.Errorf("case %d: ok=%v want %v", i, ok, c.want)
		}
		if ok && v != 77 {
			t.Errorf("case %d: v=%d", i, v)
		}
	}
}
