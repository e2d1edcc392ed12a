package main

import (
	"flag"
	"reflect"
	"testing"

	"waterwheel"
)

// TestParseDaily: a window that ends before it starts crosses midnight, and
// an empty or malformed one is refused.
func TestParseDaily(t *testing.T) {
	const minute = 60_000
	for in, want := range map[string]*waterwheel.Filter{
		"09:00-17:00": waterwheel.Daily(9*60*minute, 8*60*minute),
		"22:00-02:00": waterwheel.Daily(22*60*minute, 4*60*minute),
		"23:30-00:15": waterwheel.Daily((23*60+30)*minute, 45*minute),
		"00:00-24:00": waterwheel.Daily(0, 24*60*minute),
	} {
		got, err := parseDaily(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseDaily(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	if f, _ := parseDaily("22:00-02:00"); !f.Matches(&waterwheel.Tuple{Time: waterwheel.Timestamp(86_400_000 + 60*minute)}) {
		t.Error("22:00-02:00 misses 01:00 the next day")
	}
	for _, in := range []string{"09:00-09:00", "09:00", "25:00-01:00", "09:61-10:00", "24:30-01:00", "09:00-24:01"} {
		if _, err := parseDaily(in); err == nil {
			t.Errorf("parseDaily(%q) accepted", in)
		}
	}
}

// TestQueryVerbsShareTheirFlags: query and agg parse the region and the
// daily window through one function, so -daily reaches both as the same
// filter.
func TestQueryVerbsShareTheirFlags(t *testing.T) {
	const hour = 3_600_000
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	q := parseQueryArgs(fs, []string{"-keys", "5:9", "-daily", "09:00-17:00"})
	want := waterwheel.Query{
		Keys: waterwheel.KeyRange{Lo: 5, Hi: 9}, Times: waterwheel.FullTimeRange(),
		Filter: waterwheel.Daily(9*hour, 8*hour),
	}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("query parsed %+v, want %+v", q, want)
	}

	aq := parseAggArgs([]string{"-kind", "sum", "-field", "8", "-times", "100:200", "-daily", "09:00-17:00"})
	wantAgg := waterwheel.AggregateQuery{
		Keys: waterwheel.FullKeyRange(), Times: waterwheel.TimeRange{Lo: 100, Hi: 200},
		Filter: waterwheel.Daily(9*hour, 8*hour), Kind: waterwheel.AggSum, Field: 8,
	}
	if !reflect.DeepEqual(aq, wantAgg) {
		t.Errorf("agg parsed %+v, want %+v", aq, wantAgg)
	}
	if aq := parseAggArgs(nil); !reflect.DeepEqual(aq, waterwheel.AggregateQuery{
		Keys: waterwheel.FullKeyRange(), Times: waterwheel.FullTimeRange(), Kind: waterwheel.AggCount,
	}) {
		t.Errorf("agg with no flags parsed %+v", aq)
	}
}
