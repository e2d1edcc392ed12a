package model

import (
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

func TestRecurrenceWindows(t *testing.T) {
	day := int64(86_400_000)
	rc := &Recurrence{PeriodMillis: day, StartMillis: 9 * 3_600_000, LengthMillis: 8 * 3_600_000}
	span := TimeRange{Lo: 0, Hi: Timestamp(3*day - 1)}
	ws := rc.Windows(span)
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	for i, w := range ws {
		wantLo := Timestamp(int64(i)*day + 9*3_600_000)
		wantHi := Timestamp(int64(i)*day + 17*3_600_000 - 1)
		if w.Lo != wantLo || w.Hi != wantHi {
			t.Fatalf("window %d = %v, want [%d,%d]", i, w, wantLo, wantHi)
		}
	}
}

func TestRecurrenceWindowsClipped(t *testing.T) {
	rc := &Recurrence{PeriodMillis: 1000, StartMillis: 200, LengthMillis: 300}
	ws := rc.Windows(TimeRange{Lo: 250, Hi: 1250})
	// Period 0's window [200,499] clips to [250,499]; period 1's [1200,1499]
	// clips to [1200,1250].
	if len(ws) != 2 || ws[0].Lo != 250 || ws[0].Hi != 499 || ws[1].Lo != 1200 || ws[1].Hi != 1250 {
		t.Fatalf("windows = %v", ws)
	}
}

func TestRecurrenceWindowsMalformed(t *testing.T) {
	span := TimeRange{Lo: 0, Hi: 10_000}
	for _, rc := range []*Recurrence{
		nil,
		{PeriodMillis: 0, StartMillis: 0, LengthMillis: 1},
		{PeriodMillis: 100, StartMillis: 0, LengthMillis: 0},
		{PeriodMillis: 100, StartMillis: 0, LengthMillis: 200},
		{PeriodMillis: 100, StartMillis: -1, LengthMillis: 10},
		{PeriodMillis: 100, StartMillis: 100, LengthMillis: 10},
	} {
		if ws := rc.Windows(span); ws != nil {
			t.Fatalf("malformed %+v expanded to %v", rc, ws)
		}
	}
	// Too many periods: fall back to nil rather than enumerating millions.
	wideSpan := FullTimeRange()
	rc := &Recurrence{PeriodMillis: 1000, StartMillis: 0, LengthMillis: 1}
	if ws := rc.Windows(wideSpan); ws != nil {
		t.Fatalf("huge span expanded to %d windows", len(ws))
	}
}

func TestRecurrenceContains(t *testing.T) {
	day := int64(86_400_000)
	rc := &Recurrence{PeriodMillis: day, StartMillis: 9 * 3_600_000, LengthMillis: 8 * 3_600_000}
	in := Timestamp(2*day + 12*3_600_000)  // day 2, noon
	out := Timestamp(2*day + 18*3_600_000) // day 2, 18:00
	edgeLo := Timestamp(9 * 3_600_000)
	edgeHi := Timestamp(17*3_600_000 - 1)
	past := Timestamp(17 * 3_600_000)
	if !rc.Contains(in) || rc.Contains(out) {
		t.Fatalf("membership wrong: in=%v out=%v", rc.Contains(in), rc.Contains(out))
	}
	if !rc.Contains(edgeLo) || !rc.Contains(edgeHi) || rc.Contains(past) {
		t.Fatal("window edges wrong")
	}
	// Windows and Contains agree on every enumerated window bound.
	for _, w := range rc.Windows(TimeRange{Lo: 0, Hi: Timestamp(3 * day)}) {
		if !rc.Contains(w.Lo) || !rc.Contains(w.Hi) {
			t.Fatalf("window %v not contained by its own recurrence", w)
		}
	}
}

// TestFloorDiv pins the one floor division every time-bucketing site uses
// (recurrence windows, leaf pre-aggregates, tier buckets, compaction days):
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
