package main

import (
	"testing"

	"waterwheel"
)

// TestParseDaily: a window that ends before it starts crosses midnight, and
// an empty or malformed one is refused.
func TestParseDaily(t *testing.T) {
	const minute = 60_000
	for in, want := range map[string]waterwheel.Recurrence{
		"09:00-17:00": *waterwheel.Daily(9*60*minute, 8*60*minute),
		"22:00-02:00": *waterwheel.Daily(22*60*minute, 4*60*minute),
		"23:30-00:15": *waterwheel.Daily((23*60+30)*minute, 45*minute),
		"00:00-24:00": *waterwheel.Daily(0, 24*60*minute),
	} {
		got, err := parseDaily(in)
		if err != nil || *got != want {
			t.Errorf("parseDaily(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	if rc, _ := parseDaily("22:00-02:00"); !rc.Contains(waterwheel.Timestamp(86_400_000 + 60*minute)) {
		t.Error("22:00-02:00 misses 01:00 the next day")
	}
	for _, in := range []string{"09:00-09:00", "09:00", "25:00-01:00", "09:61-10:00"} {
		if _, err := parseDaily(in); err == nil {
			t.Errorf("parseDaily(%q) accepted", in)
		}
	}
}
