package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestStringers(t *testing.T) {
	tp := Tuple{Key: 5, Time: 9, Payload: []byte("ab")}
	if s := tp.String(); !strings.Contains(s, "key=5") || !strings.Contains(s, "2B") {
		t.Errorf("tuple string %q", s)
	}
	if s := (KeyRange{1, 2}).String(); s != "[1, 2]" {
		t.Errorf("keyrange string %q", s)
	}
	if s := (TimeRange{3, 4}).String(); s != "[3, 4]" {
		t.Errorf("timerange string %q", s)
	}
	r := Region{Keys: KeyRange{1, 2}, Times: TimeRange{3, 4}}
	if s := r.String(); !strings.Contains(s, "[1, 2]") || !strings.Contains(s, "[3, 4]") {
		t.Errorf("region string %q", s)
	}
	q := Query{ID: 7, Keys: KeyRange{1, 2}, Times: TimeRange{3, 4}}
	if s := q.String(); !strings.Contains(s, "query(7") {
		t.Errorf("query string %q", s)
	}
	mem := SubQuery{QueryID: 1, Seq: 2, IndexServer: 3, Chunk: MemChunk}
	if s := mem.String(); !strings.Contains(s, "mem@is3") {
		t.Errorf("mem subquery string %q", s)
	}
	ch := SubQuery{QueryID: 1, Seq: 2, Chunk: 9}
	if s := ch.String(); !strings.Contains(s, "chunk9") {
		t.Errorf("chunk subquery string %q", s)
	}
}

func TestQueryRegion(t *testing.T) {
	q := Query{Keys: KeyRange{10, 20}, Times: TimeRange{30, 40}}
	r := q.Region()
	if r.Keys != q.Keys || r.Times != q.Times {
		t.Errorf("region %v", r)
	}
}

func TestFullRegion(t *testing.T) {
	r := FullRegion()
	if !r.Contains(0, MinTimestamp) || !r.Contains(MaxKey, MaxTimestamp) {
		t.Error("full region misses corners")
	}
	if !r.IsValid() {
		t.Error("full region invalid")
	}
}

func TestResultSortAndMerge(t *testing.T) {
	a := &Result{Tuples: []Tuple{
		{Key: 3, Time: 1}, {Key: 1, Time: 5}, {Key: 1, Time: 2},
	}}
	b := &Result{
		Tuples:        []Tuple{{Key: 2, Time: 9}},
		LeavesRead:    4,
		LeavesSkipped: 2,
		BytesRead:     100,
		CacheHits:     1,
	}
	a.LeavesRead = 1
	a.Merge(b)
	if len(a.Tuples) != 4 || a.LeavesRead != 5 || a.LeavesSkipped != 2 || a.BytesRead != 100 || a.CacheHits != 1 {
		t.Fatalf("merge result %+v", a)
	}
	a.SortTuples()
	want := []struct {
		k Key
		t Timestamp
	}{{1, 2}, {1, 5}, {2, 9}, {3, 1}}
	for i, w := range want {
		if a.Tuples[i].Key != w.k || a.Tuples[i].Time != w.t {
			t.Fatalf("sorted[%d] = %v, want (%d,%d)", i, a.Tuples[i], w.k, w.t)
		}
	}
}

func TestResultSortTieBreaksOnPayload(t *testing.T) {
	r := &Result{Tuples: []Tuple{
		{Key: 1, Time: 1, Payload: []byte("b")},
		{Key: 1, Time: 1, Payload: []byte("a")},
	}}
	r.SortTuples()
	if string(r.Tuples[0].Payload) != "a" {
		t.Error("payload tie-break not applied")
	}
}

// contains is whether a window filter accepts a tuple stamped ts.
func contains(f *Filter, ts Timestamp) bool { return f.MatchesCols(0, ts, nil) }

// overlapsByScan is MayMatchTimes by definition: some t in tr that
// MatchesCols accepts. tr must hold few timestamps; t never steps past
// tr.Hi, so it cannot wrap at MaxInt64.
func overlapsByScan(f *Filter, tr TimeRange) bool {
	for t := tr.Lo; t <= tr.Hi; t++ {
		if contains(f, t) {
			return true
		}
		if t == tr.Hi {
			break
		}
	}
	return false
}

// TestRecurrenceWindows: a daily 09:00–17:00 window has one window a day,
// and a range meets it exactly when it reaches into one.
func TestRecurrenceWindows(t *testing.T) {
	const hour, day = int64(3_600_000), int64(86_400_000)
	rc := TimeWindow(day, 9*hour, 8*hour)
	for d := int64(0); d < 3; d++ {
		lo, hi := Timestamp(d*day+9*hour), Timestamp(d*day+17*hour-1)
		if !rc.MayMatchTimes(TimeRange{Lo: lo, Hi: hi}) || !rc.MayMatchTimes(TimeRange{Lo: hi, Hi: hi}) || !rc.MayMatchTimes(TimeRange{Lo: lo - 5, Hi: lo}) {
			t.Fatalf("day %d: window [%d, %d] not met", d, lo, hi)
		}
		// The gap after the window, to the next day's 09:00.
		if rc.MayMatchTimes(TimeRange{Lo: hi + 1, Hi: lo + Timestamp(day) - 1}) {
			t.Fatalf("day %d: the gap after [%d, %d] meets a window", d, lo, hi)
		}
	}
}

// TestRecurrenceWindowsClipped: the part of a range that lies in a window
// counts, however little of the window it clips.
func TestRecurrenceWindowsClipped(t *testing.T) {
	rc := TimeWindow(1000, 200, 300)
	for _, c := range []struct {
		tr   TimeRange
		want bool
	}{
		{TimeRange{Lo: 250, Hi: 1250}, true},
		{TimeRange{Lo: 499, Hi: 1199}, true},  // the last instant of period 0's window
		{TimeRange{Lo: 500, Hi: 1199}, false}, // exactly the gap between two windows
		{TimeRange{Lo: 500, Hi: 1200}, true},  // the first instant of period 1's
		{TimeRange{Lo: -900, Hi: -801}, false},
		{TimeRange{Lo: -900, Hi: -800}, true}, // period −1's window starts at −800
	} {
		if got := rc.MayMatchTimes(c.tr); got != c.want {
			t.Errorf("MayMatchTimes(%v) = %v, want %v", c.tr, got, c.want)
		}
	}
}

// TestRecurrenceWindowsMalformed: a window with no positive period or
// length has no windows at all, and an empty range meets none.
func TestRecurrenceWindowsMalformed(t *testing.T) {
	for _, rc := range []*Filter{
		TimeWindow(0, 0, 1),
		TimeWindow(-100, 0, 10),
		TimeWindow(math.MinInt64, 0, 10),
		TimeWindow(100, 0, 0),
		TimeWindow(100, 0, math.MinInt64),
		{Op: FilterTimeWindow, Modulus: 1 << 63, Uint: 10}, // a period beyond MaxInt64
		{Op: FilterTimeWindow, Modulus: 100},               // a zero length
	} {
		if rc.MayMatchTimes(FullTimeRange()) || contains(rc, 0) || contains(rc, math.MaxInt64) {
			t.Fatalf("malformed %+v matches", rc)
		}
	}
	rc := TimeWindow(100, 0, 100)
	if rc.MayMatchTimes(TimeRange{Lo: 10, Hi: 9}) {
		t.Fatal("an inverted range meets a window")
	}
}

func TestRecurrenceContains(t *testing.T) {
	day := int64(86_400_000)
	rc := TimeWindow(day, 9*3_600_000, 8*3_600_000)
	in := Timestamp(2*day + 12*3_600_000)  // day 2, noon
	out := Timestamp(2*day + 18*3_600_000) // day 2, 18:00
	edgeLo := Timestamp(9 * 3_600_000)
	edgeHi := Timestamp(17*3_600_000 - 1)
	past := Timestamp(17 * 3_600_000)
	if !contains(rc, in) || contains(rc, out) {
		t.Fatalf("membership wrong: in=%v out=%v", contains(rc, in), contains(rc, out))
	}
	if !contains(rc, edgeLo) || !contains(rc, edgeHi) || contains(rc, past) {
		t.Fatal("window edges wrong")
	}
	if !contains(rc, edgeLo-Timestamp(day)) || contains(rc, past-Timestamp(day)) {
		t.Fatal("the window before the epoch is not the same window")
	}
}

// TestRecurrenceWrapsPastPeriodEnd: window k is [k·P+S, k·P+S+L) even when
// it runs into the next period, and a window at least a period long
// matches everything.
func TestRecurrenceWrapsPastPeriodEnd(t *testing.T) {
	rc := TimeWindow(1000, 900, 200)
	for ts, want := range map[Timestamp]bool{
		899: false, 900: true, 999: true, 1000: true, 1050: true, 1099: true, 1100: false,
		0: true, 99: true, 100: false, -100: true, -101: false,
	} {
		if got := contains(rc, ts); got != want {
			t.Errorf("TimeWindow(1000, 900, 200) at %d = %v, want %v", ts, got, want)
		}
	}
	if !rc.MayMatchTimes(TimeRange{Lo: 1000, Hi: 1099}) || rc.MayMatchTimes(TimeRange{Lo: 100, Hi: 899}) {
		t.Error("MayMatchTimes cuts the window at the period end")
	}
	night := TimeWindow(86_400_000, 22*3_600_000, 4*3_600_000)
	if !contains(night, 86_400_000+3_600_000) || contains(night, 86_400_000+2*3_600_000) {
		t.Error("22:00+4h does not run to 02:00 the next day")
	}
	all := TimeWindow(10, 3, 25)
	if !contains(all, math.MinInt64) || !contains(all, 7) || !all.MayMatchTimes(TimeRange{Lo: 4, Hi: 4}) {
		t.Error("a window longer than its period misses timestamps")
	}
	if wide := (&Filter{Op: FilterTimeWindow, Modulus: 10, Uint: math.MaxUint64}); !contains(wide, math.MaxInt64) {
		t.Error("a length beyond MaxInt64 misses timestamps")
	}
}

// TestRecurrenceOverlapsIsContainsOverTheRange holds MayMatchTimes to its
// definition for a window, ∃t∈tr: MatchesCols(t), over random small windows
// and ranges — wrapping windows, L ≥ P, negative and extreme starts,
// inverted ranges — and over ranges pinned to MinInt64 and MaxInt64, where
// a wrong offset rule would overflow. Under And, Or and Not it may only
// err towards true.
func TestRecurrenceOverlapsIsContainsOverTheRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	starts := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
	window := func(i int) *Filter {
		period, start, length := rng.Int63n(24)-2, rng.Int63n(80)-40, rng.Int63n(30)-2
		if i%4 == 0 {
			start = starts[rng.Intn(len(starts))]
		}
		if i%50 == 0 {
			period = math.MaxInt64 - rng.Int63n(3)
			length = period - rng.Int63n(100)
		}
		return TimeWindow(period, start, length)
	}
	for i := 0; i < 20_000; i++ {
		rc := window(i)
		lo := Timestamp(rng.Int63n(200) - 100)
		switch i % 5 {
		case 1:
			lo = math.MinInt64 + Timestamp(rng.Int63n(40))
		case 2:
			lo = math.MaxInt64 - Timestamp(rng.Int63n(40))
		}
		n := rng.Int63n(50) - 5 // some ranges come out inverted
		hi := lo + Timestamp(n)
		if n >= 0 && hi < lo { // ran past MaxInt64
			hi = math.MaxInt64
		}
		if n < 0 && hi > lo {
			hi = math.MinInt64
		}
		tr := TimeRange{Lo: lo, Hi: hi}
		if got, want := rc.MayMatchTimes(tr), overlapsByScan(rc, tr); got != want {
			t.Fatalf("%+v.MayMatchTimes(%v) = %v, a scan says %v", *rc, tr, got, want)
		}
		// A tree of windows may answer true where no instant matches, never
		// false where one does.
		tree := []*Filter{And(rc, window(i)), Or(rc, window(i)), Not(rc), Or(), And(Or(rc, TimeCmp(CmpGE, lo)), window(i))}[i%5]
		if !tree.MayMatchTimes(tr) && overlapsByScan(tree, tr) {
			t.Fatalf("%+v.MayMatchTimes(%v) = false, a scan finds a match", tree, tr)
		}
	}
	// Spans of more than 100 000 periods, out to the whole time domain.
	for _, rc := range []*Filter{
		TimeWindow(1000, 999, 1),
		TimeWindow(86_400_000, 22*3_600_000, 4*3_600_000),
		TimeWindow(math.MaxInt64, math.MinInt64, 1),
	} {
		if !rc.MayMatchTimes(FullTimeRange()) || !rc.MayMatchTimes(TimeRange{Lo: 0, Hi: Timestamp(rc.Modulus)}) {
			t.Fatalf("%+v misses a span longer than its period", *rc)
		}
	}
	wide := TimeWindow(1000, 999, 1)
	if wide.MayMatchTimes(TimeRange{Lo: 1_000_000_000_000, Hi: 1_000_000_000_998}) || !wide.MayMatchTimes(TimeRange{Lo: 1_000, Hi: 1_000_000_000_000}) {
		t.Fatal("MayMatchTimes over a span of 10⁹ periods is not exact")
	}
}

// TestFloorDiv pins the one floor division every time-bucketing site uses
// (leaf pre-aggregates, compaction days):
// a negative timestamp belongs to the bucket below zero, not to bucket 0.
func TestFloorDiv(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{7, 2, 3}, {6, 2, 3}, {0, 5, 0},
		{-1, 5, -1}, {-5, 5, -1}, {-6, 5, -2}, {-7, 2, -4},
		{7, -2, -4}, {-7, -2, 3}, {-6, -2, 3},
	} {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
