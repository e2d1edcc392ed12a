package waterwheel

import (
	"fmt"
	"testing"
)

const (
	hourMs = int64(3_600_000)
	dayMs  = 24 * hourMs
)

// TestRecurringWindowAcceptance is the acceptance run for recurrence
// pruning: three synthetic weeks of history in 3-hour chunks, a "between
// 09:00 and 12:00 daily" query whose results are identical to the
// per-window oracle, and at least 80% of the R-tree's chunk candidates
// skipped because no window meets them — read back from the
// waterwheel_recurrence_pruned_chunks_total counter.
func TestRecurringWindowAcceptance(t *testing.T) {
	db := openTestDB(t, Options{ChunkBytes: 1 << 30}) // flush manually, one chunk per block
	// 21 days in 3-hour blocks, each flushed to its own chunk: 168 chunks
	// whose time spans tile the history.
	const days, blocksPerDay = 21, 8
	for b := 0; b < days*blocksPerDay; b++ {
		start := int64(b) * 3 * hourMs
		for i := 0; i < 4; i++ {
			db.Insert(Tuple{
				Key:  Key(uint64(b*4+i) << 40),
				Time: Timestamp(start + int64(i)*40*60_000),
			})
		}
		db.Drain()
		db.Flush()
	}
	db.Drain()
	chunks := db.Stats().Chunks
	if chunks < days*blocksPerDay {
		t.Fatalf("flushed %d chunks, want >= %d", chunks, days*blocksPerDay)
	}

	span := TimeRange{Lo: 0, Hi: Timestamp(int64(days)*dayMs - 1)}
	res, err := db.Query(Query{Keys: FullKeyRange(), Times: span, Recur: Daily(9*hourMs, 3*hourMs)})
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the same 21 windows queried one by one.
	want := make(map[string]bool)
	for d := 0; d < days; d++ {
		lo := int64(d)*dayMs + 9*hourMs
		or, err := db.QueryRange(FullKeyRange(), TimeRange{Lo: Timestamp(lo), Hi: Timestamp(lo + 3*hourMs - 1)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range or.Tuples {
			want[fmt.Sprintf("%d/%d", or.Tuples[i].Key, or.Tuples[i].Time)] = true
		}
	}
	if len(want) != days*4 {
		t.Fatalf("oracle found %d tuples, want %d", len(want), days*4)
	}
	if len(res.Tuples) != len(want) {
		t.Fatalf("recurring query returned %d tuples, oracle %d", len(res.Tuples), len(want))
	}
	for i := range res.Tuples {
		k := fmt.Sprintf("%d/%d", res.Tuples[i].Key, res.Tuples[i].Time)
		if !want[k] {
			t.Fatalf("recurring query returned %s, absent from oracle", k)
		}
	}

	// ≥80% of the candidates were pruned before any header read, per the
	// metric the dashboards watch.
	pruned := db.Telemetry().Counter("waterwheel_recurrence_pruned_chunks_total", "").Value()
	if pruned*5 < int64(chunks)*4 {
		t.Fatalf("recurrence pruned %d of %d candidates, want >= 80%%", pruned, chunks)
	}
	t.Logf("recurrence pruned %d of %d chunk candidates", pruned, chunks)
}

// TestDailyWindowCrossesMidnight: Daily(22h, 4h) is the window 22:00–02:00,
// so over two days it returns the tuples stamped 23:00 and 01:00 and none of
// those at 03:00 or 21:00 — from chunks (day 0) and from memory (day 1)
// alike.
func TestDailyWindowCrossesMidnight(t *testing.T) {
	db := openTestDB(t, Options{})
	var want []Timestamp
	for d := int64(0); d < 2; d++ {
		for _, h := range []int64{1, 3, 21, 23} {
			ts := Timestamp(d*dayMs + h*hourMs)
			if err := db.Insert(Tuple{Key: Key(ts), Time: ts}); err != nil {
				t.Fatal(err)
			}
			if h == 1 || h == 23 {
				want = append(want, ts)
			}
		}
		if d == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(Query{Keys: FullKeyRange(), Times: TimeRange{Lo: 0, Hi: Timestamp(2*dayMs - 1)}, Recur: Daily(22*hourMs, 4*hourMs)})
	if err != nil {
		t.Fatal(err)
	}
	var got []Timestamp
	for i := range res.Tuples {
		got = append(got, res.Tuples[i].Time)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Daily(22h, 4h) over two days returned %v, want %v", got, want)
	}
}
