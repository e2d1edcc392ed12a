package rtree

import (
	"math/rand"
	"testing"

	"waterwheel/internal/model"
)

func region(k0, k1 uint64, t0, t1 int64) model.Region {
	return model.Region{
		Keys:  model.KeyRange{Lo: model.Key(k0), Hi: model.Key(k1)},
		Times: model.TimeRange{Lo: model.Timestamp(t0), Hi: model.Timestamp(t1)},
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New(4)
	tr.Insert(region(0, 10, 0, 10), "a")
	tr.Insert(region(20, 30, 0, 10), "b")
	tr.Insert(region(0, 10, 20, 30), "c")

	got := tr.Search(region(2, 8, 2, 8))
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("search = %v, want [a]", got)
	}
	got = tr.Search(region(0, 100, 0, 100))
	if len(got) != 3 {
		t.Fatalf("full search = %v", got)
	}
	if tr.Len() != 3 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestSearchRequiresBothDomains(t *testing.T) {
	tr := New(4)
	tr.Insert(region(0, 10, 0, 10), 1)
	if got := tr.Search(region(5, 15, 50, 60)); len(got) != 0 {
		t.Errorf("key-only overlap matched: %v", got)
	}
	if got := tr.Search(region(50, 60, 5, 15)); len(got) != 0 {
		t.Errorf("time-only overlap matched: %v", got)
	}
}

// brute is a linear-scan reference.
type brute struct {
	regions []model.Region
	values  []int
}

func (b *brute) insert(r model.Region, v int) {
	b.regions = append(b.regions, r)
	b.values = append(b.values, v)
}

func (b *brute) search(q model.Region) map[int]bool {
	out := map[int]bool{}
	for i, r := range b.regions {
		if r.Overlaps(q) {
			out[b.values[i]] = true
		}
	}
	return out
}

func (b *brute) delete(r model.Region, v int) bool {
	for i := range b.regions {
		if b.regions[i] == r && b.values[i] == v {
			b.regions = append(b.regions[:i], b.regions[i+1:]...)
			b.values = append(b.values[:i], b.values[i+1:]...)
			return true
		}
	}
	return false
}

func randRegion(rng *rand.Rand) model.Region {
	k0 := uint64(rng.Intn(10000))
	t0 := int64(rng.Intn(10000))
	return region(k0, k0+uint64(rng.Intn(500)), t0, t0+int64(rng.Intn(500)))
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(8)
	bf := &brute{}
	for i := 0; i < 500; i++ {
		r := randRegion(rng)
		tr.Insert(r, i)
		bf.insert(r, i)
	}
	for q := 0; q < 200; q++ {
		qr := randRegion(rng)
		want := bf.search(qr)
		got := tr.Search(qr)
		gotSet := map[int]bool{}
		for _, v := range got {
			if gotSet[v.(int)] {
				t.Fatalf("duplicate result %v", v)
			}
			gotSet[v.(int)] = true
		}
		if len(gotSet) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", qr, len(gotSet), len(want))
		}
		for v := range want {
			if !gotSet[v] {
				t.Fatalf("query %v: missing value %d", qr, v)
			}
		}
	}
}

func TestDeleteAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := New(6)
	bf := &brute{}
	regions := make([]model.Region, 300)
	for i := range regions {
		regions[i] = randRegion(rng)
		tr.Insert(regions[i], i)
		bf.insert(regions[i], i)
	}
	// Delete a random half, interleaved with correctness probes.
	perm := rng.Perm(len(regions))
	for round, idx := range perm[:150] {
		v := idx
		okTree := tr.Delete(regions[idx], func(x any) bool { return x.(int) == v })
		okBf := bf.delete(regions[idx], v)
		if okTree != okBf {
			t.Fatalf("delete %d: tree=%v brute=%v", idx, okTree, okBf)
		}
		if round%25 == 0 {
			qr := randRegion(rng)
			want := bf.search(qr)
			got := tr.Search(qr)
			if len(got) != len(want) {
				t.Fatalf("after %d deletes, query mismatch: got %d want %d", round+1, len(got), len(want))
			}
		}
	}
	if tr.Len() != 150 {
		t.Errorf("len = %d, want 150", tr.Len())
	}
	// Deleting something already gone returns false.
	if tr.Delete(regions[perm[0]], func(x any) bool { return x.(int) == perm[0] }) {
		t.Error("double delete succeeded")
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr.Insert(region(uint64(i*10), uint64(i*10+5), 0, 10), i)
	}
	for i := 0; i < 50; i++ {
		v := i
		if !tr.Delete(region(uint64(i*10), uint64(i*10+5), 0, 10), func(x any) bool { return x.(int) == v }) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
	if got := tr.Search(model.FullRegion()); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	tr.Insert(region(1, 2, 3, 4), "back")
	if got := tr.Search(model.FullRegion()); len(got) != 1 {
		t.Fatal("reuse after emptying failed")
	}
}

// TestVisitEarlyStop keeps the name it had when it drove the visitor API
// (deleted: nothing but this test called it). What it pins on Search is the
// other half of the same traversal: only overlapping entries are visited,
// so a narrow region over 100 disjoint entries returns exactly its five.
func TestVisitEarlyStop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(region(uint64(i), uint64(i), 0, 10), i)
	}
	got := tr.Search(region(40, 44, 0, 10))
	if len(got) != 5 {
		t.Fatalf("narrow search returned %d entries, want 5", len(got))
	}
	for _, v := range got {
		if i := v.(int); i < 40 || i > 44 {
			t.Errorf("narrow search returned entry %d", i)
		}
	}
}

func TestDuplicateRegions(t *testing.T) {
	tr := New(4)
	r := region(10, 20, 10, 20)
	for i := 0; i < 10; i++ {
		tr.Insert(r, i)
	}
	got := tr.Search(r)
	if len(got) != 10 {
		t.Fatalf("got %d duplicates, want 10", len(got))
	}
	// Delete a specific one among the duplicates.
	if !tr.Delete(r, func(x any) bool { return x.(int) == 7 }) {
		t.Fatal("delete of specific duplicate failed")
	}
	got = tr.Search(r)
	if len(got) != 9 {
		t.Fatalf("after delete: %d", len(got))
	}
	for _, v := range got {
		if v.(int) == 7 {
			t.Error("deleted value still present")
		}
	}
}

func TestAll(t *testing.T) {
	tr := New(4)
	for i := 0; i < 25; i++ {
		tr.Insert(randRegion(rand.New(rand.NewSource(int64(i)))), i)
	}
	if got := tr.Search(model.FullRegion()); len(got) != 25 {
		t.Errorf("full-region Search = %d, want 25", len(got))
	}
}
