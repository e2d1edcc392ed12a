package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// runSet is the result of `ledger set`: every workload on several seeds,
// untraced, plus one traced run per workload.
type runSet struct {
	Env  environment `json:"env"`
	Runs []*report   `json:"runs"`
}

// ledgerFile is what `ledger repeat` writes and results/BENCH_<pr>.json
// holds: two sets of the same code and their comparison.
type ledgerFile struct {
	A, B *runSet
	Rows []compareRow `json:"rows"`
}

// setSeeds is how many seeds a set runs per workload; benchmarkFile is where
// the bounds are read from, relative to the root of the checkout.
const (
	setSeeds      = 10
	benchmarkFile = "BENCHMARK.json"
)

// runOne executes one run in a child process, so that every run starts
// from the same process state and proc.peak_rss_mb is the run's own.
func runOne(workload string, seed int, trace bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(scratchDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(out)
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds),
		"--trace", t, "--out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// collectSet runs every workload untraced on setSeeds seeds from firstSeed
// on, then once traced on firstSeed.
func collectSet(firstSeed int) (*runSet, error) {
	set := &runSet{Env: captureEnv()}
	for _, w := range workloadOrder {
		for i := 0; i <= setSeeds; i++ {
			seed, trace := firstSeed+i, i == setSeeds
			if trace {
				seed = firstSeed
			}
			rep, err := runOne(w, seed, trace)
			if err != nil {
				return nil, err
			}
			set.Runs = append(set.Runs, rep)
		}
	}
	return set, nil
}

func cmdSet(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: ledger set <out.json>")
		return 2
	}
	set, err := collectSet(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	if err := writeJSON(args[0], set); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	return 0
}

// compareRow is one (workload, end-to-end metric) pair of a comparison.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base_median"`
	New      float64 `json:"new_median"`
	// Ratio is new over base.
	Ratio float64 `json:"ratio"`
	// Spread is the wider of the two sets' interquartile ranges, as a
	// share of the set's median.
	Spread  float64 `json:"spread"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// bounds reads the end-to-end metrics and their bounds from BENCHMARK.json.
func bounds(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func metricValues(set *runSet, workload, metric string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Verdict.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareSets applies each end-to-end metric's bound to every workload.
func compareSets(a, b *runSet, specs []metricSpec) []compareRow {
	var rows []compareRow
	for _, w := range workloadOrder {
		for _, s := range specs {
			va, vb := metricValues(a, w, s.Name), metricValues(b, w, s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			row := compareRow{Workload: w, Metric: s.Name, Unit: s.Unit, Base: am, New: bm, Bound: s.Bound,
				Ratio: ratio(bm, am), Spread: math.Max(ratio(a3-a1, am), ratio(b3-b1, bm))}
			// worse is how much worse the new median is, as a share of base.
			worse := ratio(bm-am, am)
			if s.Better == "higher" {
				worse = -worse
			}
			switch {
			case row.Spread > s.Bound:
				row.Verdict = "unresolved"
			case worse > s.Bound:
				row.Verdict = "worse"
			case -worse > s.Bound:
				// Two unpaired sets drift apart by up to the spread on their
				// own, so a gain has to clear the bound just as a loss does.
				row.Verdict = "better"
			default:
				row.Verdict = "same"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(rows []compareRow) (worse int) {
	fmt.Printf("%-11s %-28s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-11s %-28s %14.4f %14.4f %8.3f %8.3f %7.2f  %s\n", r.Workload, r.Metric, r.Base, r.New, r.Ratio, r.Spread, r.Bound, r.Verdict)
		if r.Verdict == "worse" {
			worse++
		}
	}
	return worse
}

func failedRuns(sets ...*runSet) int {
	n := 0
	for _, s := range sets {
		for _, r := range s.Runs {
			if !r.Verdict.Correct {
				fmt.Printf("FAILED %s seed %d traced=%v: %v\n", r.Workload, r.Seed, r.Traced, r.Failures)
				n++
			}
		}
	}
	return n
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ledger compare <base.json> <new.json>")
		return 2
	}
	specs, err := bounds(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	worse := printRows(compareSets(a, b, specs))
	if worse+failedRuns(a, b) > 0 {
		return 1
	}
	return 0
}

// cmdRepeat runs the full set twice on the same code and compares the two:
// the benchmark's own acceptance check. With an argument it writes both
// sets and the comparison there.
func cmdRepeat(args []string) int {
	if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: ledger repeat [out.json]")
		return 2
	}
	specs, err := bounds(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 2
	}
	a, err := collectSet(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	// The second set uses fresh seeds, as the driver's second set does.
	b, err := collectSet(1 + setSeeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	rows := compareSets(a, b, specs)
	if len(args) == 1 {
		if err := writeJSON(args[0], ledgerFile{A: a, B: b, Rows: rows}); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
	}
	worse := printRows(rows)
	// As in the driver's acceptance, the spread of setup_s does not count:
	// it is measured once a run, on a set-up as short as 0.15 s, and only its
	// median is held to the bound.
	unresolved := 0
	for _, r := range rows {
		if r.Verdict == "unresolved" && r.Metric != "setup_s" {
			unresolved++
		}
	}
	if worse+unresolved+failedRuns(a, b) > 0 {
		return 1
	}
	return 0
}
