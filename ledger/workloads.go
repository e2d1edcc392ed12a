package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// Workload sizes at scale 1. The issue's sizes (8 M / 4 M / 2 M tuples,
// 4 MiB chunks, 60 s and 600 s windows) are shrunk by one common factor of
// four so that 92 driver runs of every workload, each with three set-ups,
// fit the driver's time cap; chunk count per history and the window to
// chunk ratios are unchanged.
const (
	queryHistory = 1_000_192 // 3907 batches
	mixedHistory = 500_224   // 1954 batches
	shortWindow  = 15_000    // ms
	longWindow   = 150_000   // ms
	recentWindow = 5_000     // ms
	// eventBase is position 0's event time for the event-time streams.
	eventBase = 1_700_000_000_000

	mixedTuplesPerMs = 100 // open-loop writer: 100 k tuples/s
	// batchEvery is that writer's period: 256 tuples every 2.56 ms.
	batchEvery    = batchSize * time.Millisecond / mixedTuplesPerMs
	mixedReaderHz = 100
	opsPerConn    = 1 << 12
)

type workloadDef struct {
	why        string
	unit       string
	cache      int64
	durability string
	history    int64
	// wallClock stamps the history so that it leads up to the wall clock,
	// for a live phase whose timestamps continue it.
	wallClock bool
	// fillCaches makes reading every leaf through the caches part of set-up.
	fillCaches bool
	// spotCheck verifies what the phase wrote with queries afterwards, for
	// a phase that reads nothing itself.
	spotCheck bool
	// warm is how many seconds (scaled) the workload's own loop runs before
	// the clock starts: heap, caches and connection buffers reach their
	// working size, and mixed's recent window fills at the live rate.
	warm float64
	run  func(b *bench, sys *system, hist *stream) *measured
}

var workloads = map[string]workloadDef{
	"ingest": {
		why:   "write-only closed loop of 256-tuple batches: every write-path layer works, the read path is idle",
		unit:  "tuple",
		cache: coldCache, spotCheck: true, warm: 1, run: (*bench).runIngest,
	},
	"query_cold": {
		why:   "read-only closed loop over a flushed history six times larger than the cache: DFS reads, decode and eviction dominate",
		unit:  "query",
		cache: coldCache, history: queryHistory, warm: 1, run: (*bench).runQueries,
	},
	"query_warm": {
		why:   "same queries with every leaf cached: planning, dispatch, in-cache scan, merge and result encoding dominate",
		unit:  "query",
		cache: warmCache, history: queryHistory, fillCaches: true, warm: 1, run: (*bench).runQueries,
	},
	"mixed": {
		why:   "open-loop 100 k tuples/s writer (50 ms background fsync) beside a 100 ops/s reader of recent and historical windows and freshness probes",
		unit:  "tuple",
		cache: coldCache, durability: "interval", history: mixedHistory, wallClock: true, warm: recentWindow / 1000, run: (*bench).runMixed,
	},
}

var workloadOrder = []string{"ingest", "query_cold", "query_warm", "mixed"}

// measured is what a workload's measured phase produced.
type measured struct {
	// throughput is the workload's throughput_per_s (see endToEnd), valid
	// when done is set: the phase did work and all of it became visible.
	throughput float64
	done       bool
	// write and read hold the latencies, in ms, of the phase's 256-tuple
	// batch round trips and tuple-returning range queries (in mixed: the
	// recent-window ones), where it has them, each from its send to its
	// reply. op_ms_p50 is the writes' median where there are any. writeTail and readTail are what
	// the tail percentiles are taken from: the same samples in a closed
	// loop, the latencies from the due time in an open loop.
	write, read         []float64
	writeTail, readTail []float64
	tuples              int64 // tuples written during the phase
	queries             int64 // range and aggregate queries answered during the phase
	// lat holds the other latency classes by name, in ms.
	lat map[string][]float64
	// tracedLat / untracedLat split an operation's latencies of a traced
	// run by whether the op itself was traced.
	tracedLat, untracedLat []float64
	checked, aggSubQueries int64
	lateMs                 []float64
	drainToVisible         time.Duration
	// verify, when set, checks the phase's kept results against the
	// oracle; the run calls it off the clock.
	verify func()
}

// ---- ingest ----

func (b *bench) runIngest(sys *system, hist *stream) *measured {
	start := b.phaseStart
	res := b.pump(sys, hist, sys.histN, 1<<40, start.Add(b.cfg.duration()))
	acked := time.Now()
	ok := b.waitVisible(sys)
	visible := time.Now()
	m := &measured{
		write:          res.acks,
		writeTail:      res.acks,
		tracedLat:      res.traced,
		untracedLat:    res.untraced,
		tuples:         res.tuples,
		drainToVisible: visible.Sub(acked),
	}
	// Work counts once it is visible: the clock stops when COUNT(*) reaches
	// the acked count, not at the last ack.
	m.throughput = float64(res.tuples) / visible.Sub(start).Seconds()
	m.done = ok && res.tuples > 0
	return m
}

// ---- queries ----

type queryOp struct {
	agg    bool
	kind   waterwheel.AggKind
	region model.Region
}

func (o *queryOp) class() string {
	if o.agg {
		return "agg"
	}
	return "range"
}

// genQueryOps builds one connection's op sequence: per ten ops, eight range
// queries cycling key selectivity {1 %, 10 %} × window {short, long} and two
// aggregates (COUNT, SUM) over 10 % × long, windows placed uniformly over
// [lo, hi].
func genQueryOps(span model.KeyRange, seed int64, n int, lo, hi int64) []queryOp {
	qg := workload.NewQueryGen(span, seed)
	short, long := int64(shortWindow), int64(longWindow)
	// A scaled-down history may be shorter than the windows.
	if max := (hi - lo) / 2; long > max {
		long = max
		if short > long/10 {
			short = long/10 + 1
		}
	}
	sels := [4]float64{0.01, 0.10, 0.01, 0.10}
	durs := [4]int64{short, short, long, long}
	ops := make([]queryOp, n)
	r := 0
	for i := range ops {
		op := &ops[i]
		switch i % 10 {
		case 4:
			op.agg, op.kind = true, waterwheel.AggCount
		case 9:
			op.agg, op.kind = true, waterwheel.AggSum
		}
		sel, dur := 0.10, long
		if !op.agg {
			sel, dur = sels[r%4], durs[r%4]
			r++
		}
		op.region = model.Region{
			Keys:  qg.KeyRange(sel),
			Times: qg.Historical(model.Timestamp(lo), model.Timestamp(hi), dur),
		}
	}
	return ops
}

// check is a result kept for verification off the clock.
type check struct {
	op     queryOp
	got    digest
	aggVal uint64
	// lo and hi bound a live stream's acked and sent positions around a
	// recent query (mixed only).
	lo, hi int64
	tuples []model.Tuple
}

// resultOK reports whether a result is sorted by (key, time) and inside
// its region. Every result is checked, on the clock, so the check is kept
// to a few comparisons per tuple; digests are taken of sampled results only.
func resultOK(ts []model.Tuple, r model.Region) string {
	for i := range ts {
		if !r.ContainsTuple(&ts[i]) {
			return "outside_region"
		}
		if i > 0 && model.CompareTuples(&ts[i-1], &ts[i]) > 0 {
			return "unsorted"
		}
	}
	return ""
}

func digestOf(ts []model.Tuple) digest {
	var d digest
	for i := range ts {
		d.add(&ts[i])
	}
	return d
}

// connQueries is one connection's share of a query phase.
type connQueries struct {
	ranges, aggs     []float64 // latencies in ms
	traced, untraced []float64
	checks           []check
	ops, aggSubs     int64
}

// execQuery runs one op on connection c and returns its latency from send
// to reply; due goes into the op's span, seq is the op's request id and ord
// its ordinal within its class. In a traced run
// range queries go through QueryTraced, except every untracedEvery-th, and
// their span tree is hung under the harness's op span.
func (b *bench) execQuery(sys *system, c int, sp *spanLog, op *queryOp, seq, ord int64, due time.Time, out *connQueries, kind string) (latency float64, res *model.Result) {
	start := time.Now()
	var err error
	if op.agg {
		var ar *model.AggResult
		ar, err = sys.cl[c].Aggregate(waterwheel.AggregateQuery{Keys: op.region.Keys, Times: op.region.Times, Kind: op.kind})
		end := time.Now()
		if err != nil {
			b.fails.add("error", "aggregate: "+err.Error())
			return 0, nil
		}
		v, _ := ar.Value()
		out.aggSubs += int64(ar.SubQueries)
		out.checks = append(out.checks, check{op: *op, aggVal: v})
		sp.op("op", kind, seq, due, start, end, 0)
		return ms(end.Sub(start)), nil
	}
	q := waterwheel.Query{Keys: op.region.Keys, Times: op.region.Times}
	traced := sp != nil && ord%untracedEvery != 0
	var tr *waterwheel.QueryTrace
	if traced {
		res, tr, err = sys.cl[c].QueryTraced(q)
	} else {
		res, err = sys.cl[c].Query(q)
	}
	end := time.Now()
	if err != nil {
		b.fails.add("error", "query: "+err.Error())
		return 0, nil
	}
	latency = ms(end.Sub(start))
	if sp != nil {
		if traced {
			id := sp.op("op", kind, seq, due, start, end, int64(len(res.Tuples)))
			if tr != nil {
				sp.attach(id, seq, b.rec.since(start), b.rec.since(end), tr.Root)
			}
			out.traced = append(out.traced, latency)
		} else {
			out.untraced = append(out.untraced, latency)
		}
	}
	return latency, res
}

func (b *bench) runQueries(sys *system, hist *stream) *measured {
	n := sys.histN
	lo, hi := hist.base, hist.base+n
	var conns [clientConns]connQueries
	start := b.phaseStart
	deadline := start.Add(b.cfg.duration())
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := genQueryOps(b.pool.span, b.cfg.seed*31+int64(c), opsPerConn, lo, hi)
			out := &conns[c]
			sp := b.rec.log(c)
			for i := int64(0); time.Now().Before(deadline); i++ {
				op := &ops[i%int64(len(ops))]
				seq := i*clientConns + int64(c)
				latency, res := b.execQuery(sys, c, sp, op, seq, i, time.Now(), out, op.class())
				out.ops++
				if op.agg {
					if latency > 0 { // 0 marks a failed aggregate, already counted
						out.aggs = append(out.aggs, latency)
					}
					continue
				}
				if res == nil {
					continue
				}
				out.ranges = append(out.ranges, latency)
				if bad := resultOK(res.Tuples, op.region); bad != "" {
					b.fails.add(bad, op.region.String())
				} else if i%oracleEvery == 0 {
					out.checks = append(out.checks, check{op: *op, got: digestOf(res.Tuples)})
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	m := &measured{lat: map[string][]float64{}}
	for c := range conns {
		m.queries += conns[c].ops
		m.aggSubQueries += conns[c].aggSubs
		m.read = append(m.read, conns[c].ranges...)
		m.lat["agg"] = append(m.lat["agg"], conns[c].aggs...)
		m.tracedLat = append(m.tracedLat, conns[c].traced...)
		m.untracedLat = append(m.untracedLat, conns[c].untraced...)
	}
	m.readTail = m.read
	m.throughput = float64(m.queries) / wall.Seconds()
	m.done = m.queries > 0
	b.attempted.Add(m.queries)
	m.verify = func() {
		for c := range conns {
			m.checked += b.verify(hist, n, conns[c].checks)
		}
	}
	return m
}

// verify compares kept results of a static stream prefix with the oracle
// and returns how many it checked.
func (b *bench) verify(st *stream, n int64, checks []check) int64 {
	for i := range checks {
		ck := &checks[i]
		if !ck.op.agg {
			if want := st.oracle(n, ck.op.region); ck.got != want {
				b.fails.add("oracle", fmt.Sprintf("%s: got %d tuples (hash %x), want %d (hash %x)",
					ck.op.region, ck.got.Count, ck.got.Hash, want.Count, want.Hash))
			}
			continue
		}
		want, sum := st.countSum(n, ck.op.region)
		if ck.op.kind == waterwheel.AggSum {
			want = sum
		}
		if ck.aggVal != want {
			b.fails.add("oracle", fmt.Sprintf("%s %s: got %d, want %d", ck.op.kind, ck.op.region, ck.aggVal, want))
		}
	}
	return int64(len(checks))
}

// ---- mixed ----

// isProbe recognises a freshness probe's tuple by its payload prefix, which
// no generated payload carries (a taxi id is below 2^16).
func isProbe(t *model.Tuple) bool {
	return len(t.Payload) == 16 && t.Payload[0] == 0xFF && t.Payload[1] == 0xFF && t.Payload[2] == 0xFF && t.Payload[3] == 0xFF
}

// runMixed is called twice: untimed for one recent window, then measured.
// Without the first call the measured phase would open on a recent window
// that holds the history's 1 tuple/ms and fills up to the live 100 tuples/ms
// over its first five seconds, and the recent query's latency would climb
// through half of a ten-second phase. The first call's stream is the
// second's lead: acked before it starts, so required in its recent results.
func (b *bench) runMixed(sys *system, hist *stream) *measured {
	histN := sys.histN
	lead, leadN := sys.lead, sys.leadN
	start := b.phaseStart
	dur := b.cfg.duration()
	live := &stream{p: b.pool, base: start.UnixMilli(), perMs: mixedTuplesPerMs}
	nBatches := int64(dur / batchEvery)
	// ackedAt[i] is when batch i was acked, in nanoseconds into the phase;
	// the reader uses it to bound what a recent query must return.
	ackedAt := make([]atomic.Int64, nBatches)
	var sent, acked atomic.Int64 // batches
	var onTime int64             // batches acked before the next one was due
	var writes, writesDue, lateness []float64
	var probes atomic.Int64

	var wg sync.WaitGroup
	wg.Add(2)
	// Connection 0: the open-loop writer. Batch i is due at start +
	// i·batchEvery. Each round trip is kept twice: from its send, for the
	// median, and from its due time, which charges a stall to the batches
	// queued behind it, for the tail and the on-time count.
	go func() {
		defer wg.Done()
		sp := b.rec.log(0)
		buf := make([]model.Tuple, batchSize)
		// A stall just before the end would leave the last batches unsent
		// through no fault of the schedule; the writer may finish it for
		// sendGrace longer, the lateness still charged to each batch.
		stop := start.Add(dur + sendGrace)
		for i := int64(0); i < nBatches; i++ {
			due := start.Add(time.Duration(i) * batchEvery)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			if t0.After(stop) {
				return
			}
			live.fill(buf, i*batchSize)
			sent.Store(i + 1)
			err := sys.cl[0].InsertBatch(buf)
			t1 := time.Now()
			if err != nil {
				b.fails.insert(err)
				return
			}
			ackedAt[i].Store(t1.Sub(start).Nanoseconds())
			acked.Store(i + 1)
			writes = append(writes, ms(t1.Sub(t0)))
			writesDue = append(writesDue, ms(t1.Sub(due)))
			if t1.Sub(due) <= batchEvery {
				onTime++
			}
			lateness = append(lateness, ms(t0.Sub(due)))
			if i%untracedEvery != 0 {
				sp.op("op", "insert_batch", i, due, t0, t1, batchSize)
			}
		}
	}()

	// Connection 1: the open-loop reader. Per ten ops: five recent-window
	// queries, three historical, two freshness probes.
	var rd connQueries
	var recent, recentDue, visible, insert1, readerLate []float64
	var recentChecks []check
	go func() {
		defer wg.Done()
		sp := b.rec.log(1)
		// Historical windows end before any late live tuple can reach.
		hlo, hhi := hist.base, hist.base+histN-lateMaxMs-1000
		if hhi <= hlo {
			hhi = hlo + 1
		}
		ops := genQueryOps(b.pool.span, b.cfg.seed*31+1, opsPerConn, hlo, hhi)
		qg := workload.NewQueryGen(b.pool.span, b.cfg.seed*31+2)
		every := time.Second / mixedReaderHz
		n := int64(dur / every)
		// h walks the generated sequence. nHist and nRecent count the
		// queries of each class: a class leaves every untracedEvery-th of its
		// own untraced, so traced and untraced samples hold the same mix,
		// and has every oracleEvery-th of its own checked.
		h := 0
		var nHist, nRecent int64
		for i := int64(0); i < n; i++ {
			due := start.Add(time.Duration(i) * every)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := ms(time.Since(due))
			readerLate = append(readerLate, late)
			switch k := i % 10; {
			case k == 3 || k == 8:
				b.probe(sys, sp, qg, i, due, &insert1, &visible)
				probes.Add(1)
			case k != 1 && k != 5 && k != 7:
				sendAt := time.Now()
				now := sendAt.UnixMilli()
				op := queryOp{region: model.Region{
					Keys:  qg.KeyRange(0.01),
					Times: model.TimeRange{Lo: model.Timestamp(now - recentWindow), Hi: model.Timestamp(now)},
				}}
				// Inserts become visible asynchronously (the WAL consumer
				// indexes them), so only batches acked visibleGrace before
				// the query was sent are required in its result.
				lo := acked.Load()
				for lo > 0 && ackedAt[lo-1].Load() > sendAt.Sub(start).Nanoseconds()-visibleGrace.Nanoseconds() {
					lo--
				}
				latency, res := b.execQuery(sys, 1, sp, &op, i, nRecent, due, &rd, "recent")
				nRecent++
				hi := sent.Load()
				if res == nil {
					continue
				}
				recent = append(recent, latency)
				recentDue = append(recentDue, late+latency)
				if bad := resultOK(res.Tuples, op.region); bad != "" {
					b.fails.add(bad, op.region.String())
				} else if nRecent%oracleEvery == 0 {
					recentChecks = append(recentChecks, check{op: op, lo: lo * batchSize, hi: hi * batchSize, tuples: res.Tuples})
				}
			default:
				// Skip the sequence's aggregates: the reader's historical
				// share is tuple-returning range queries over 1 % keys ×
				// the short window.
				for ops[h%len(ops)].agg {
					h++
				}
				op := ops[h%len(ops)]
				h++
				op.region.Keys = qg.KeyRange(0.01)
				op.region.Times.Hi = op.region.Times.Lo + shortWindow
				if op.region.Times.Hi > model.Timestamp(hhi) {
					op.region.Times.Hi = model.Timestamp(hhi)
				}
				latency, res := b.execQuery(sys, 1, sp, &op, i, nHist, due, &rd, "range")
				nHist++
				if res == nil {
					continue
				}
				rd.ranges = append(rd.ranges, latency)
				if bad := resultOK(res.Tuples, op.region); bad != "" {
					b.fails.add(bad, op.region.String())
				} else if nHist%oracleEvery == 0 {
					rd.checks = append(rd.checks, check{op: op, got: digestOf(res.Tuples)})
				}
			}
			rd.ops++
		}
	}()
	wg.Wait()

	ackEnd := time.Now()
	done := acked.Load()
	sys.want += done*batchSize + probes.Load()
	sys.lead, sys.leadN = live, done*batchSize
	for i := done; i < nBatches; i++ {
		b.fails.add("unsent", fmt.Sprintf("batch %d of %d not sent by the end of the run", i, nBatches))
	}
	ok := b.waitVisible(sys)
	visibleAt := time.Now()
	b.attempted.Add(nBatches + rd.ops)

	m := &measured{
		write:          writes,
		writeTail:      writesDue,
		read:           recent,
		readTail:       recentDue,
		tuples:         done * batchSize,
		queries:        rd.ops - probes.Load(),
		tracedLat:      rd.traced,
		untracedLat:    rd.untraced,
		lateMs:         append(lateness, readerLate...),
		drainToVisible: visibleAt.Sub(ackEnd),
		lat:            map[string][]float64{"historical": rd.ranges, "visible": visible, "insert1_ack": insert1},
	}
	// The offered rate is fixed, so what can move is how much of it the
	// system takes without queueing: a batch counts when its ack came before
	// the next batch was due.
	m.throughput = float64(onTime*batchSize) / dur.Seconds()
	m.done = ok && done > 0
	m.verify = func() {
		m.checked = b.verify(hist, histN, rd.checks)
		m.checked += b.verifyRecent(hist, histN, lead, leadN, live, recentChecks)
	}
	return m
}

// probe inserts one marked tuple and point-queries it until it is returned:
// insert1 is the batch-of-one ack, visible the time from ack to the first
// query that returns the tuple (resolution: one query round trip).
func (b *bench) probe(sys *system, sp *spanLog, qg *workload.QueryGen, seq int64, due time.Time, insert1, visible *[]float64) {
	key := qg.KeyRange(0.01).Lo
	payload := make([]byte, 16)
	payload[0], payload[1], payload[2], payload[3] = 0xFF, 0xFF, 0xFF, 0xFF
	for i := 0; i < 8; i++ {
		payload[8+i] = byte(seq >> (8 * (7 - i)))
	}
	t := model.Tuple{Key: key, Time: model.Timestamp(time.Now().UnixMilli()), Payload: payload}
	t0 := time.Now()
	if err := sys.cl[1].Insert(t); err != nil {
		b.fails.insert(err)
		return
	}
	ackAt := time.Now()
	*insert1 = append(*insert1, ms(ackAt.Sub(t0)))
	q := waterwheel.Query{Keys: model.KeyRange{Lo: key, Hi: key}, Times: model.TimeRange{Lo: t.Time, Hi: t.Time}}
	polls := int64(0)
	for {
		res, err := sys.cl[1].Query(q)
		polls++
		if err != nil {
			b.fails.add("error", "probe query: "+err.Error())
			return
		}
		seen := time.Now()
		for i := range res.Tuples {
			if string(res.Tuples[i].Payload) == string(payload) {
				*visible = append(*visible, ms(seen.Sub(ackAt)))
				id := sp.op("op", "probe", seq, due, t0, seen, 1)
				if sp != nil {
					sp.add(id, "probe_insert", "", seq, 0, b.rec.since(t0), b.rec.since(ackAt), nil)
					sp.add(id, "probe_poll", "", seq, 0, b.rec.since(ackAt), b.rec.since(seen), map[string]int64{"polls": polls})
				}
				return
			}
		}
		if seen.Sub(ackAt) > probeWait {
			b.fails.add("deadline", fmt.Sprintf("probe %d not visible after %s", seq, probeWait))
			return
		}
	}
}

// verifyRecent checks recent-window results taken while the writer ran. A
// result must hold every history and lead tuple in its region, every live
// tuple in its region acked visibleGrace before the query was sent, and
// beyond those only live tuples sent before the reply arrived, or probe
// tuples.
func (b *bench) verifyRecent(hist *stream, histN int64, lead *stream, leadN int64, live *stream, checks []check) int64 {
	for i := range checks {
		ck := &checks[i]
		have := map[uint64]int{}
		for j := range ck.tuples {
			if !isProbe(&ck.tuples[j]) {
				have[tupleHash(&ck.tuples[j])]++
			}
		}
		missing := 0
		must := func(t *model.Tuple) {
			h := tupleHash(t)
			if have[h] == 0 {
				missing++
				return
			}
			have[h]--
		}
		hist.scan(0, histN, ck.op.region, must)
		if lead != nil {
			lead.scan(0, leadN, ck.op.region, must)
		}
		live.scan(0, ck.lo, ck.op.region, must)
		live.scan(ck.lo, ck.hi, ck.op.region, func(t *model.Tuple) {
			if h := tupleHash(t); have[h] > 0 {
				have[h]--
			}
		})
		unknown := 0
		for _, n := range have {
			unknown += n
		}
		if missing > 0 || unknown > 0 {
			b.fails.add("oracle", fmt.Sprintf("recent %s: %d acked tuples missing, %d tuples never sent", ck.op.region, missing, unknown))
		}
	}
	return int64(len(checks))
}
