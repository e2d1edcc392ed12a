package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKeyRangeContains(t *testing.T) {
	r := KeyRange{Lo: 10, Hi: 20}
	cases := []struct {
		k    Key
		want bool
	}{
		{9, false}, {10, true}, {15, true}, {20, true}, {21, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.k); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestKeyRangeOverlapsAndIntersect(t *testing.T) {
	a := KeyRange{Lo: 10, Hi: 20}
	cases := []struct {
		b       KeyRange
		overlap bool
		lo, hi  Key
	}{
		{KeyRange{0, 9}, false, 0, 0},
		{KeyRange{0, 10}, true, 10, 10},
		{KeyRange{15, 30}, true, 15, 20},
		{KeyRange{21, 30}, false, 0, 0},
		{KeyRange{12, 13}, true, 12, 13},
		{KeyRange{0, 100}, true, 10, 20},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.overlap {
			t.Errorf("Overlaps(%v) = %v, want %v", c.b, got, c.overlap)
		}
		got, ok := a.Intersect(c.b)
		if ok != c.overlap {
			t.Fatalf("Intersect(%v) ok = %v, want %v", c.b, ok, c.overlap)
		}
		if ok && (got.Lo != c.lo || got.Hi != c.hi) {
			t.Errorf("Intersect(%v) = %v, want [%d,%d]", c.b, got, c.lo, c.hi)
		}
	}
}

func TestKeyRangeWidth(t *testing.T) {
	if w := (KeyRange{Lo: 5, Hi: 5}).Width(); w != 1 {
		t.Errorf("singleton width = %d, want 1", w)
	}
	if w := (KeyRange{Lo: 5, Hi: 4}).Width(); w != 0 {
		t.Errorf("empty width = %d, want 0", w)
	}
	if w := FullKeyRange().Width(); w != math.MaxUint64 {
		t.Errorf("full width = %d, want MaxUint64 (saturated)", w)
	}
}

func TestTimeRangeBasics(t *testing.T) {
	r := TimeRange{Lo: 100, Hi: 200}
	if !r.Contains(100) || !r.Contains(200) || r.Contains(99) || r.Contains(201) {
		t.Error("TimeRange.Contains boundary behaviour wrong")
	}
	if r.Duration() != 100 {
		t.Errorf("Duration = %d, want 100", r.Duration())
	}
	if (TimeRange{Lo: 2, Hi: 1}).IsValid() {
		t.Error("inverted range should be invalid")
	}
}

func TestRegionOverlapNeedsBothDomains(t *testing.T) {
	a := Region{Keys: KeyRange{0, 10}, Times: TimeRange{0, 10}}
	sameKeysLaterTime := Region{Keys: KeyRange{5, 15}, Times: TimeRange{20, 30}}
	sameTimesOtherKeys := Region{Keys: KeyRange{11, 20}, Times: TimeRange{5, 6}}
	both := Region{Keys: KeyRange{10, 20}, Times: TimeRange{10, 20}}
	if a.Overlaps(sameKeysLaterTime) {
		t.Error("regions overlapping only in key domain must not overlap")
	}
	if a.Overlaps(sameTimesOtherKeys) {
		t.Error("regions overlapping only in time domain must not overlap")
	}
	if !a.Overlaps(both) {
		t.Error("regions overlapping in both domains must overlap")
	}
	got, ok := a.Intersect(both)
	if !ok || got.Keys != (KeyRange{10, 10}) || got.Times != (TimeRange{10, 10}) {
		t.Errorf("Intersect = %v ok=%v, want corner point", got, ok)
	}
}

func TestRegionContainsTuple(t *testing.T) {
	r := Region{Keys: KeyRange{10, 20}, Times: TimeRange{100, 200}}
	in := Tuple{Key: 15, Time: 150}
	outKey := Tuple{Key: 9, Time: 150}
	outTime := Tuple{Key: 15, Time: 250}
	if !r.ContainsTuple(&in) || r.ContainsTuple(&outKey) || r.ContainsTuple(&outTime) {
		t.Error("ContainsTuple wrong")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	orig := Tuple{Key: 0xDEADBEEF, Time: -42, Payload: []byte("hello, waterwheel")}
	buf := AppendTuple(nil, &orig)
	if len(buf) != EncodedSize(&orig) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), EncodedSize(&orig))
	}
	got, n, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.Key != orig.Key || got.Time != orig.Time || string(got.Payload) != string(orig.Payload) {
		t.Errorf("round trip mismatch: %v vs %v", got, orig)
	}
}

func TestTupleDecodeShortBuffer(t *testing.T) {
	orig := Tuple{Key: 1, Time: 2, Payload: []byte("abcdef")}
	buf := AppendTuple(nil, &orig)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeTuple(buf[:cut]); err == nil {
			t.Fatalf("DecodeTuple accepted truncated buffer of %d bytes", cut)
		}
	}
}

func TestTuplesBatchRoundTrip(t *testing.T) {
	in := []Tuple{
		{Key: 1, Time: 10, Payload: []byte("a")},
		{Key: 2, Time: 20, Payload: nil},
		{Key: 3, Time: 30, Payload: []byte("ccc")},
	}
	buf := AppendTuples(nil, in)
	out, err := DecodeTuples(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || out[i].Time != in[i].Time || string(out[i].Payload) != string(in[i].Payload) {
			t.Errorf("tuple %d mismatch: %v vs %v", i, out[i], in[i])
		}
	}
}

// TestAppendTuplesGrowsOnce: encoding a batch sizes dst once, exactly — a
// 256-tuple request costs one allocation of its encoded size, not a chain of
// doublings — and appends after whatever dst already held.
func TestAppendTuplesGrowsOnce(t *testing.T) {
	batch := make([]Tuple, 256)
	want := 0
	for i := range batch {
		batch[i] = Tuple{Key: Key(i), Time: Timestamp(i), Payload: make([]byte, 16+i%5)}
		want += EncodedSize(&batch[i])
	}
	if got := AppendTuples(nil, batch); len(got) != want || cap(got) > want+want/8 {
		t.Fatalf("encoded %d bytes into a buffer of %d, want %d sized once", len(got), cap(got), want)
	}
	if got := AppendTuples([]byte("hdr"), batch[:2]); string(got[:3]) != "hdr" || len(got) != 3+EncodedSize(&batch[0])+EncodedSize(&batch[1]) {
		t.Fatalf("append after a prefix: %d bytes", len(got))
	}
	// One allocation; the race detector's bookkeeping may add one.
	if a := testing.AllocsPerRun(50, func() { AppendTuples(nil, batch) }); a > 2 {
		t.Errorf("AppendTuples(nil, 256 tuples) allocates %.0f times, want 1", a)
	}
}

func TestTupleEncodeQuick(t *testing.T) {
	f := func(k uint64, ts int64, payload []byte) bool {
		orig := Tuple{Key: Key(k), Time: Timestamp(ts), Payload: payload}
		got, n, err := DecodeTuple(AppendTuple(nil, &orig))
		if err != nil || n != EncodedSize(&orig) {
			return false
		}
		return got.Key == orig.Key && got.Time == orig.Time &&
			string(got.Payload) == string(orig.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntersectQuick(t *testing.T) {
	// Intersection must be symmetric and contained in both operands.
	f := func(a0, a1, b0, b1 uint64) bool {
		a := KeyRange{Lo: Key(min64(a0, a1)), Hi: Key(max64(a0, a1))}
		b := KeyRange{Lo: Key(min64(b0, b1)), Hi: Key(max64(b0, b1))}
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		if okAB != okBA || okAB != a.Overlaps(b) {
			return false
		}
		if !okAB {
			return true
		}
		return ab == ba &&
			a.Contains(ab.Lo) && a.Contains(ab.Hi) &&
			b.Contains(ab.Lo) && b.Contains(ab.Hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
