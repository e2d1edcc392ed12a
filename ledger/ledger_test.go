package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"waterwheel"
	"waterwheel/internal/model"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON keeps the committed BENCHMARK.json and the program's
// metric tables identical, and the names within the contract's alphabet.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatalf("BENCHMARK.json differs from `ledger spec`; regenerate it")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric name %q is used twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}

// smokeSeconds is each workload's measured phase in the smoke test: long
// enough that every per-layer metric the workload declares has something
// behind it (mixed's 100 k tuples/s need a second to fill a chunk).
var smokeSeconds = map[string]float64{"ingest": 0.4, "query_cold": 0.4, "query_warm": 0.4, "mixed": 1}

func smokeRun(t *testing.T, workload string, trace bool) (*report, string) {
	t.Helper()
	dir := t.TempDir()
	b := &bench{cfg: runConfig{workload: workload, seed: 7, seconds: smokeSeconds[workload], scale: 0.02, trace: trace, dir: dir}}
	rep, err := b.run()
	b.cleanup.run()
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !rep.Verdict.Correct {
		t.Errorf("%s trace=%v: failed ops %v (%v)", workload, trace, rep.Failures, rep.Details)
	}
	if rep.Verdict.Attempted < 1 {
		t.Errorf("%s: attempted = %d", workload, rep.Verdict.Attempted)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "ledger-data-*"))
	if len(left) != 0 {
		t.Errorf("%s: data directories left behind: %v", workload, left)
	}
	return rep, dir
}

func checkNames(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	names := map[string]bool{}
	for _, s := range want {
		names[s.Name] = true
		m, ok := rep.Verdict.Metrics[s.Name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s not emitted", rep.Workload, rep.Traced, s.Name)
			continue
		}
		if m.Unit != s.Unit {
			t.Errorf("%s: unit %q, want %q", s.Name, m.Unit, s.Unit)
		}
	}
	for name := range rep.Verdict.Metrics {
		if !names[name] {
			t.Errorf("%s trace=%v: metric %s emitted but not in BENCHMARK.json", rep.Workload, rep.Traced, name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a fiftieth of the
// set-up sizes. It asserts names and structure, never timings. A metric a
// workload declares and does not produce fails the run (missing_metric), and
// with it this test.
func TestSmoke(t *testing.T) {
	for _, w := range workloadOrder {
		rep, _ := smokeRun(t, w, false)
		checkNames(t, rep, endToEnd)
		for _, s := range endToEnd {
			if w == "mixed" && s.Name == "throughput_per_s" {
				// Counts batches acked before the next was due: none are
				// under the race detector.
				continue
			}
			if rep.Verdict.Metrics[s.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, s.Name, rep.Verdict.Metrics[s.Name].Value)
			}
		}

		rep, dir := smokeRun(t, w, true)
		checkNames(t, rep, perLayer)
		checkTrace(t, filepath.Join(dir, "trace-"+w+".jsonl"))
	}
}

// checkTrace parses a trace file and checks that every span but the root
// has a parent that exists and that no span ends before it starts.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	roots, ops, legs := 0, 0, 0
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			roots++
		case !ids[s.Parent]:
			t.Errorf("%s: span %d (%s) has no live parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Name == "op" {
			ops++
		}
		if len(s.Name) > 4 && s.Name[:4] == "leg." {
			legs++
		}
	}
	if roots != 1 || ops == 0 || legs == 0 {
		t.Errorf("%s: %d roots, %d op spans, %d leg groups", path, roots, ops, legs)
	}
}

// TestCompleteReportsMissing: only a metric the workload does not measure
// may be filled in silently.
func TestCompleteReportsMissing(t *testing.T) {
	specs := []metricSpec{
		{Name: "a", Unit: "ms"},
		{Name: "b", Unit: "ms", On: writers},
		{Name: "c", Unit: "count", On: queryOnly},
	}
	metrics := map[string]metricValue{"a": {Value: 1, Unit: "ms"}}
	missing := complete(metrics, specs, "ingest")
	if len(missing) != 1 || missing[0] != "b" {
		t.Errorf("missing = %v, want [b]", missing)
	}
	if len(metrics) != 3 || metrics["c"] != (metricValue{Unit: "count"}) {
		t.Errorf("metrics = %v, want all three names with c = 0", metrics)
	}
}

func testStream() *stream { return eventStream(newPool(3, 1<<12), eventBase) }

// TestOracleAgainstBruteForce checks the key-indexed oracle against a walk
// over every position, including pool wrap-around and late tuples.
func TestOracleAgainstBruteForce(t *testing.T) {
	st := testStream()
	n := int64(3*len(st.p.keys) + 100)
	ops := genQueryOps(st.p.span, 11, 60, st.base, st.base+n)
	for _, op := range ops {
		var want digest
		for j := int64(0); j < n; j++ {
			tp := st.at(j)
			if op.region.ContainsTuple(&tp) {
				want.add(&tp)
			}
		}
		if got := st.oracle(n, op.region); got != want {
			t.Fatalf("%s: oracle %+v, brute force %+v", op.region, got, want)
		}
		if c, s := st.countSum(n, op.region); c != want.Count || s != want.Sum {
			t.Fatalf("%s: countSum (%d, %d), brute force (%d, %d)", op.region, c, s, want.Count, want.Sum)
		}
	}
}

// TestOracleCatchesCorruption feeds deliberately wrong results to the
// verifier: a flipped payload byte, a dropped tuple, a wrong aggregate.
func TestOracleCatchesCorruption(t *testing.T) {
	st := testStream()
	n := int64(2 * len(st.p.keys))
	region := model.Region{Keys: st.p.span, Times: model.TimeRange{Lo: model.Timestamp(st.base + 100), Hi: model.Timestamp(st.base + 600)}}
	var good []model.Tuple
	st.scan(0, n, region, func(tp *model.Tuple) {
		c := *tp
		c.Payload = append([]byte(nil), tp.Payload...)
		good = append(good, c)
	})
	if len(good) < 100 {
		t.Fatalf("only %d tuples in the test region", len(good))
	}
	count, sum := st.countSum(n, region)
	op := queryOp{region: region}
	cases := []struct {
		name string
		ck   check
		bad  bool
	}{
		{"intact", check{op: op, got: digestOf(good)}, false},
		{"dropped tuple", check{op: op, got: digestOf(good[1:])}, true},
		{"count", check{op: queryOp{agg: true, kind: waterwheel.AggCount, region: region}, aggVal: count}, false},
		{"count off by one", check{op: queryOp{agg: true, kind: waterwheel.AggCount, region: region}, aggVal: count + 1}, true},
		{"sum", check{op: queryOp{agg: true, kind: waterwheel.AggSum, region: region}, aggVal: sum}, false},
		{"sum off by one", check{op: queryOp{agg: true, kind: waterwheel.AggSum, region: region}, aggVal: sum - 1}, true},
	}
	flipped := append([]model.Tuple(nil), good...)
	flipped[7].Payload = append([]byte(nil), flipped[7].Payload...)
	flipped[7].Payload[5] ^= 1
	cases = append(cases, struct {
		name string
		ck   check
		bad  bool
	}{"flipped payload bit", check{op: op, got: digestOf(flipped)}, true})
	for _, c := range cases {
		b := &bench{}
		b.verify(st, n, []check{c.ck})
		if got := b.fails.total() > 0; got != c.bad {
			t.Errorf("%s: oracle flagged = %v, want %v", c.name, got, c.bad)
		}
	}

	unsorted := append([]model.Tuple(nil), good...)
	unsorted[0], unsorted[len(unsorted)-1] = unsorted[len(unsorted)-1], unsorted[0]
	if bad := resultOK(unsorted, region); bad != "unsorted" {
		t.Errorf("swapped tuples: resultOK = %q, want unsorted", bad)
	}
	narrow := region
	narrow.Times.Hi = region.Times.Lo + 10
	if bad := resultOK(good, narrow); bad != "outside_region" {
		t.Errorf("tuples beyond the region: resultOK = %q, want outside_region", bad)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(vals ...float64) *runSet {
		s := &runSet{}
		for _, v := range vals {
			s.Runs = append(s.Runs, &report{Workload: "ingest", Verdict: verdict{Correct: true,
				Metrics: map[string]metricValue{"op_ms_p50": {Value: v, Unit: "ms"}, "throughput_per_s": {Value: 1000 / v, Unit: "1/s"}}}})
		}
		return s
	}
	specs := []metricSpec{
		{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}
	base := set(1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name string
		new  *runSet
		want string
	}{
		{"same", set(1.01, 1.00, 0.99, 1.00, 1.02, 1.00, 1.01, 1.00, 0.99, 1.01), "same"},
		{"worse", set(1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20), "worse"},
		{"better", set(0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80), "better"},
		{"unresolved", set(0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.1, 0.6, 1.5), "unresolved"},
	} {
		for _, row := range compareSets(base, c.new, specs) {
			if row.Verdict != c.want {
				t.Errorf("%s: %s verdict %s, want %s (ratio %.3f spread %.3f)", c.name, row.Metric, row.Verdict, c.want, row.Ratio, row.Spread)
			}
		}
	}
}
