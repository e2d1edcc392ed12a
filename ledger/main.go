// Command ledger is Waterwheel's end-to-end and per-layer benchmark: four
// workloads driven over loopback TCP against an embedded deployment,
// checked against an oracle, with an optional traced run. See README.md.
//
//	ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	ledger spec                      print BENCHMARK.json
//	ledger set A.json                run every workload on ten seeds
//	ledger compare A.json B.json     apply the bounds to two sets
//	ledger repeat [out.json]         two sets and their comparison
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// scratchDir is where the build, the data directories and the trace go; it
// is relative to the root of the checkout and git-ignored.
const scratchDir = ".bench_build"

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// scale shrinks the set-up sizes and dir replaces scratchDir; the smoke
	// test sets them, the command line cannot.
	scale float64
	dir   string
}

// bench is the state of one run.
type bench struct {
	cfg       runConfig
	pool      *pool
	rec       *recorder
	fails     failures
	attempted atomic.Int64
	phases    []phase
	cleanup   cleanups
	// phaseStart is when the measured phase began; open loops schedule from
	// it and closed loops end seconds after it.
	phaseStart time.Time
}

type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

func (b *bench) timePhase(name string, start time.Time) {
	b.phases = append(b.phases, phase{Name: name, Seconds: time.Since(start).Seconds()})
}

// cleanups removes data directories on every exit path, including signals.
type cleanups struct {
	mu   sync.Mutex
	dirs map[string]bool
}

func (c *cleanups) track(dir string) {
	c.mu.Lock()
	if c.dirs == nil {
		c.dirs = map[string]bool{}
	}
	c.dirs[dir] = true
	c.mu.Unlock()
}

func (c *cleanups) untrack(dir string) {
	c.mu.Lock()
	delete(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleanups) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for d := range c.dirs {
		os.RemoveAll(d)
	}
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the line the driver reads: the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full result, written to -out and kept in results/.
type report struct {
	Workload string            `json:"workload"`
	Unit     string            `json:"unit_of_work"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Scale    float64           `json:"scale"`
	Traced   bool              `json:"traced"`
	Env      environment       `json:"env"`
	Noisy    bool              `json:"noisy"`
	Phases   []phase           `json:"phases"`
	Failures map[string]int64  `json:"failures"`
	Details  map[string]string `json:"failure_details,omitempty"`
	Samples  map[string]int    `json:"samples"`
	Verdict  verdict           `json:"verdict"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		case "set":
			os.Exit(cmdSet(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "repeat":
			os.Exit(cmdRepeat(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	cfg := runConfig{scale: 1, dir: scratchDir}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "ingest, query_cold, query_warm or mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", float64(runSeconds), "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "write the full report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	b := &bench{cfg: cfg}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup.run()
		os.Exit(1)
	}()
	rep, err := b.run()
	b.cleanup.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
	}
	printReport(os.Stderr, rep)
	line, err := json.Marshal(rep.Verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Verdict.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "ledger %s seed=%d seconds=%g scale=%g traced=%v noisy=%v (%s, %d cpu, GOMAXPROCS %d)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Scale, rep.Traced, rep.Noisy, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GOMAXPROCS)
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  phase %-12s %8.3f s\n", p.Name, p.Seconds)
	}
	specs := endToEnd
	if rep.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		if m, ok := rep.Verdict.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.4f %-6s %s\n", s.Name, m.Value, m.Unit, s.Moves)
		}
	}
	for k, n := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %-16s %d  (%s)\n", k, n, rep.Details[k])
	}
}

// environment records where a run was taken.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
}

func captureEnv() environment {
	return environment{
		Commit:     readCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg1:   loadAvg(),
	}
}
