package main

import (
	"errors"
	"path/filepath"
	"runtime"
	"time"
)

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// run executes one workload: set-up, measured phase, verification, final
// flush and, when tracing, the layer legs.
func (b *bench) run() (*report, error) {
	def := workloads[b.cfg.workload]
	env := captureEnv()
	rep := &report{
		Workload: b.cfg.workload, Unit: def.unit, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Scale: b.cfg.scale,
		Traced: b.cfg.trace, Env: env,
		Noisy: env.LoadAvg1 > 0.5*float64(env.NumCPU),
	}

	// Set-up is everything before the measured phase: generating the
	// inputs, opening and balancing the deployment, loading the history.
	setupStart := time.Now()
	b.pool = newPool(b.cfg.seed, poolSize)
	b.pool.byKey()
	b.timePhase("generate", setupStart)

	history := int64(0)
	if def.history > 0 {
		history = b.scaled(def.history)
	}
	base := int64(eventBase)
	if def.wallClock {
		base = time.Now().UnixMilli() - history - warmupTuples
	}
	phase := time.Now()
	sys, hist, balance, err := b.setUp(def, history, base)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	setupSeconds := time.Since(setupStart).Seconds()
	b.timePhase("setup", phase)
	if def.warm > 0 {
		// A fixed stretch of the workload's own loop, not set-up work: it is
		// not part of setup_s, where it would hide what set-up costs.
		phase = time.Now()
		b.phaseStart = phase
		seconds := b.cfg.seconds
		b.cfg.seconds = def.warm * b.cfg.scale
		def.run(b, sys, hist)
		b.cfg.seconds = seconds
		b.timePhase("warm", phase)
	}

	if b.cfg.trace {
		b.rec = newRecorder(b.cfg.workload, clientConns+1)
	}
	runtime.GC()
	before := takeCounters(sys)
	var smp *sampler
	if b.cfg.trace {
		smp = startSampler(sys)
	}
	phase = time.Now()
	b.phaseStart = phase
	m := def.run(b, sys, hist)
	b.timePhase("measure", phase)
	if smp != nil {
		smp.stop()
	}
	after := takeCounters(sys)
	// What the process still holds once garbage is collected: memtables,
	// the WAL's in-memory tail, caches, and the generator's pool.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	liveHeapMB := float64(mem.HeapAlloc) / (1 << 20)
	if m.verify != nil {
		phase = time.Now()
		m.verify()
		b.timePhase("oracle", phase)
	}
	balance.check(b, sys)

	// Settle: flush what the phase left in memory, re-check the count, and
	// query the contents of a phase that read nothing.
	phase = time.Now()
	if b.flushAll(sys) {
		b.waitVisible(sys)
		b.attempted.Add(1)
	}
	if def.spotCheck {
		m.checked += b.spotCheck(sys, hist)
	}
	b.timePhase("settle", phase)

	metrics := map[string]metricValue{}
	put := putFunc(func(name string, v float64) {
		s, ok := specByName[name]
		if !ok {
			panic("ledger: metric " + name + " is not in the tables of spec.go")
		}
		if s.on(b.cfg.workload) {
			metrics[name] = metricValue{Value: v, Unit: s.Unit}
		}
	})
	// The primary operation is the phase's write where it has one.
	op := m.write
	if len(op) == 0 {
		op = m.read
	}
	specs := endToEnd
	if !b.cfg.trace {
		put("setup_s", setupSeconds)
		if m.done {
			put("throughput_per_s", m.throughput)
		}
		put.q("op_ms_p50", op, 0.5, 1)
		put.ratio("stored_bytes_per_user_byte", float64(dirBytes(sys.dir)), float64(sys.want*userBytesPerTuple))
		put("live_heap_mb", liveHeapMB)
	} else {
		specs = perLayer
		phase = time.Now()
		layerCounters(put, sys, m, before, after, smp, balance)
		put("proc.peak_rss_mb", peakRSSMB())
		b.legs(put, sys, hist)
		spans := b.rec.all(time.Now())
		layerSpans(put, spans)
		b.timePhase("legs", phase)
		phase = time.Now()
		path := filepath.Join(b.cfg.dir, "trace-"+b.cfg.workload+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		b.timePhase("write_trace", phase)
	}
	for _, name := range complete(metrics, specs, b.cfg.workload) {
		b.fails.add("missing_metric", name)
	}

	b.fails.mu.Lock()
	rep.Failures, rep.Details = b.fails.kinds, b.fails.first
	b.fails.mu.Unlock()
	failed := b.fails.total()
	rep.Phases = b.phases
	rep.Samples = map[string]int{"write": len(m.write), "read": len(m.read)}
	for k, v := range m.lat {
		rep.Samples[k] = len(v)
	}
	rep.Verdict = verdict{
		Correct:   failed == 0,
		Attempted: max64(b.attempted.Load(), 1),
		Failed:    failed,
		Metrics:   metrics,
	}
	if failed > 0 && rep.Verdict.Attempted < failed {
		rep.Verdict.Attempted = failed
	}
	return rep, nil
}

// setUp opens a deployment, balances it, and loads and flushes the
// workload's history.
func (b *bench) setUp(def workloadDef, history, base int64) (*system, *stream, *balanceCheck, error) {
	sys, err := b.openSystem(def.cache, def.durability)
	if err != nil {
		return nil, nil, nil, err
	}
	st := eventStream(b.pool, base)
	// The warm-up is not scaled: the balancer needs its sample.
	warm := int64(warmupTuples)
	// Warm-up runs through the default even partitioning, under which every
	// T-Drive key (< 2^32) lands on indexing server 0; rebalancing by hand
	// until the balancer is satisfied splits the keys between both servers,
	// and the balancer stays manual afterwards so counts repeat.
	b.pump(sys, st, 0, warm, time.Time{})
	if !b.waitVisible(sys) {
		sys.close()
		return nil, nil, nil, errors.New("ledger: warm-up never became visible")
	}
	for i := 0; i < 16 && sys.db.Rebalance(); i++ {
	}
	balance := newBalanceCheck(sys)
	if history > 0 {
		b.pump(sys, st, warm, history, time.Time{})
		if !b.waitVisible(sys) || !b.flushAll(sys) {
			sys.close()
			return nil, nil, nil, errors.New("ledger: history never settled")
		}
	}
	if def.fillCaches {
		if err := b.fillCaches(sys); err != nil {
			sys.close()
			return nil, nil, nil, err
		}
	}
	return sys, st, balance, nil
}

// complete gives a result every name in specs, as the driver requires. A
// metric the workload does not measure reads 0; the names of those it
// should have measured and did not are returned, and fail the run.
func complete(metrics map[string]metricValue, specs []metricSpec, workload string) (missing []string) {
	for _, s := range specs {
		if _, ok := metrics[s.Name]; ok {
			continue
		}
		if s.on(workload) {
			missing = append(missing, s.Name)
		}
		metrics[s.Name] = metricValue{Unit: s.Unit}
	}
	return missing
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
