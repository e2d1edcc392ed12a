package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicPutGet(t *testing.T) {
	c := New[string](100)
	c.Put("a", 1, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing key found")
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 {
		t.Errorf("metrics %+v", m)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string](30)
	c.Put("a", "A", 10)
	c.Put("b", "B", 10)
	c.Put("c", "C", 10)
	c.Get("a") // promote a; b is now oldest
	c.Put("d", "D", 10)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should still be cached", k)
		}
	}
	if ev := c.Metrics().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestByteBudgetMultiEvict(t *testing.T) {
	c := New[string](100)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 10)
	}
	if c.Metrics().Used != 100 {
		t.Fatalf("used = %d", c.Metrics().Used)
	}
	c.Put("big", "x", 55) // must evict several
	if c.Metrics().Used > 100 {
		t.Fatalf("over budget: %d", c.Metrics().Used)
	}
	if _, ok := c.Get("big"); !ok {
		t.Error("big entry missing")
	}
}

func TestOversizeEntryDropped(t *testing.T) {
	c := New[string](50)
	c.Put("huge", "x", 51)
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize entry should not cache")
	}
	// Replacing an existing entry with an oversize value removes it.
	c.Put("a", 1, 10)
	c.Put("a", 2, 999)
	if _, ok := c.Get("a"); ok {
		t.Error("entry replaced by oversize value should be gone")
	}
	if c.Metrics().Used != 0 {
		t.Errorf("used = %d, want 0", c.Metrics().Used)
	}
}

func TestReplaceAdjustsSize(t *testing.T) {
	c := New[string](100)
	c.Put("a", 1, 40)
	c.Put("a", 2, 10)
	if c.Metrics().Used != 10 {
		t.Errorf("used = %d, want 10", c.Metrics().Used)
	}
	if c.Metrics().Entries != 1 {
		t.Errorf("len = %d, want 1", c.Metrics().Entries)
	}
	v, _ := c.Get("a")
	if v.(int) != 2 {
		t.Errorf("value = %v, want 2", v)
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New[string](100)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.RemoveFunc(func(k string) bool { return k == "a" })
	c.RemoveFunc(func(k string) bool { return k == "nonexistent" }) // no-op
	if _, ok := c.Get("a"); ok {
		t.Error("removed key found")
	}
	if c.Metrics().Used != 10 {
		t.Errorf("used = %d, want 10", c.Metrics().Used)
	}
	if n := c.RemoveFunc(func(string) bool { return true }); n != 1 {
		t.Errorf("clearing removed %d entries, want 1", n)
	}
	if c.Metrics().Entries != 0 || c.Metrics().Used != 0 {
		t.Errorf("after clear: len=%d used=%d", c.Metrics().Entries, c.Metrics().Used)
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New[string](0)
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string](1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				if i%3 == 0 {
					c.Put(k, i, 16)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Metrics().Used > 1000 {
		t.Errorf("over budget after concurrency: %d", c.Metrics().Used)
	}
}

func TestRemoveFunc(t *testing.T) {
	c := New[string](1000)
	c.Put("h5", 1, 10)
	c.Put("l5:0", 2, 10)
	c.Put("l5:1", 3, 10)
	c.Put("l50:0", 4, 10) // different chunk; must survive a "l5:" purge
	c.Put("e5:0:64", 5, 10)
	n := c.RemoveFunc(func(key string) bool {
		return key == "h5" || (len(key) > 3 && key[:3] == "l5:") ||
			(len(key) > 3 && key[:3] == "e5:")
	})
	if n != 4 {
		t.Fatalf("removed %d, want 4", n)
	}
	if _, ok := c.Get("l50:0"); !ok {
		t.Fatal("unrelated entry removed")
	}
	if _, ok := c.Get("h5"); ok {
		t.Fatal("matched entry survived")
	}
	if c.Metrics().Used != 10 {
		t.Fatalf("used = %d, want 10", c.Metrics().Used)
	}
}
