package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	rng := rand.New(rand.NewSource(1))
	items := make([]uint64, 1000)
	for i := range items {
		items[i] = rng.Uint64()
		f.Add(items[i])
	}
	for _, it := range items {
		if !f.MayContain(it) {
			t.Fatalf("false negative for %d", it)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	const n = 5000
	f := NewWithEstimates(n, 0.01)
	rng := rand.New(rand.NewSource(2))
	present := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		v := rng.Uint64()
		present[v] = true
		f.Add(v)
	}
	fp, probes := 0, 0
	for i := 0; i < 20000; i++ {
		v := rng.Uint64()
		if present[v] {
			continue
		}
		probes++
		if f.MayContain(v) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.05 {
		t.Errorf("false positive rate %.4f far above target 0.01", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	hits := 0
	for i := uint64(0); i < 1000; i++ {
		if f.MayContain(i) {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("empty filter claimed %d items", hits)
	}
}

func TestReset(t *testing.T) {
	f := NewWithEstimates(10, 0.01)
	f.Add(42)
	if !f.MayContain(42) {
		t.Fatal("add failed")
	}
	f.Reset()
	if f.MayContain(42) {
		t.Error("reset did not clear")
	}
}

func TestNewClamps(t *testing.T) {
	f := New(0, 0)
	if f.nbits == 0 || f.k < 1 {
		t.Errorf("New(0,0) produced unusable filter: bits=%d k=%d", f.nbits, f.k)
	}
	f = New(100, 99)
	if f.k > 16 {
		t.Errorf("k not clamped: %d", f.k)
	}
	if f.nbits%64 != 0 {
		t.Errorf("bits not rounded to word: %d", f.nbits)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := NewWithEstimates(500, 0.02)
	for i := uint64(0); i < 500; i += 3 {
		f.Add(i)
	}
	buf := f.AppendTo(nil)
	g, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	for i := uint64(0); i < 500; i++ {
		if f.MayContain(i) != g.MayContain(i) {
			t.Fatalf("decoded filter disagrees at %d", i)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("short buffer must fail")
	}
	f := New(128, 4)
	buf := f.AppendTo(nil)
	buf[0] = 200 // absurd k
	if _, _, err := Decode(buf); err == nil {
		t.Error("bad k must fail")
	}
}

func TestTimeSketchBasic(t *testing.T) {
	s := NewTimeSketch(1000, 100, 0.01)
	// Tuples in seconds 10..19.
	for ts := int64(10000); ts < 20000; ts += 250 {
		s.AddTime(ts)
	}
	if !s.MayOverlap(15000, 15999) {
		t.Error("false negative inside covered range")
	}
	if !s.MayOverlap(9500, 10100) {
		t.Error("range straddling the first covered bucket must match")
	}
	if s.MayOverlap(50000, 51000) && s.MayOverlap(52000, 53000) && s.MayOverlap(54000, 55000) {
		t.Error("sketch matches every distant range — filter useless")
	}
	if s.MayOverlap(100, 50) {
		t.Error("inverted range must not match")
	}
}

func TestTimeSketchNegativeTimes(t *testing.T) {
	s := NewTimeSketch(1000, 16, 0.01)
	s.AddTime(-1500) // bucket -2 with floor division
	if !s.MayOverlap(-2000, -1001) {
		t.Error("negative-timestamp bucket missed")
	}
	if s.MayOverlap(-1000, -1) && s.MayOverlap(0, 999) {
		t.Error("adjacent uncovered buckets both positive — suspicious hashing")
	}
}

func TestTimeSketchWideRangeShortCircuits(t *testing.T) {
	s := NewTimeSketch(1000, 16, 0.01)
	// Nothing added; a range spanning >=128 buckets conservatively matches.
	if !s.MayOverlap(0, 1_000_000) {
		t.Error("very wide range should short-circuit to true")
	}
}

func TestTimeSketchEncodeRoundTrip(t *testing.T) {
	s := NewTimeSketch(500, 64, 0.01)
	for ts := int64(0); ts < 30000; ts += 777 {
		s.AddTime(ts)
	}
	buf := s.AppendTo(nil)
	g, n, err := DecodeTimeSketch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if g.BucketMillis != s.BucketMillis {
		t.Errorf("bucketMillis %d != %d", g.BucketMillis, s.BucketMillis)
	}
	for lo := int64(0); lo < 30000; lo += 333 {
		if s.MayOverlap(lo, lo+100) != g.MayOverlap(lo, lo+100) {
			t.Fatalf("decoded sketch disagrees at %d", lo)
		}
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(items []uint64, probe uint64) bool {
		fl := NewWithEstimates(len(items)+1, 0.01)
		for _, it := range items {
			fl.Add(it)
		}
		for _, it := range items {
			if !fl.MayContain(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
