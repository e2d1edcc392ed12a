package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel"
	"waterwheel/internal/model"
)

// Deployment constants: one process, two indexing and two query servers,
// two client connections. The sandbox has two cores; the counts are fixed
// so runs on other hosts stay comparable.
const (
	clientConns  = 2
	chunkBytes   = 1 << 20
	coldCache    = 2 << 20
	warmCache    = 64 << 20
	warmupTuples = 25_600
	visibleWait  = 10 * time.Second
	probeWait    = 5 * time.Second
	visibleGrace = time.Second
	sendGrace    = time.Second
	maxImbalance = 0.2
	oracleEvery  = 20
	// checkQueries is how many queries verify what the ingest workload wrote.
	checkQueries  = 200
	untracedEvery = 8
)

// system is one embedded deployment served over loopback TCP, with the
// client connections that drive it.
type system struct {
	dir     string
	cleanup *cleanups
	db      *waterwheel.DB
	srv     *waterwheel.NetServer
	cl      [clientConns]*waterwheel.Client
	// want is the number of tuples acked so far: what COUNT(*) must reach.
	want int64
	// histN is how many of them are the event stream's, whose positions
	// [0, histN) they fill; lead and leadN are mixed's previous live stream
	// and how many of its tuples were acked.
	histN int64
	lead  *stream
	leadN int64
}

func (b *bench) openSystem(cacheBytes int64, durability string) (*system, error) {
	dir, err := os.MkdirTemp(b.cfg.dir, "ledger-data-")
	if err != nil {
		return nil, fmt.Errorf("ledger: data dir: %w", err)
	}
	b.cleanup.track(dir)
	s := &system{dir: dir, cleanup: &b.cleanup}
	s.db, err = waterwheel.Open(waterwheel.Options{
		Nodes:               1,
		IndexServersPerNode: 2,
		QueryServersPerNode: 2,
		ChunkBytes:          chunkBytes,
		CacheBytes:          cacheBytes,
		DataDir:             dir,
		Durability:          durability,
		// BalanceIntervalMillis stays 0: set-up rebalances by hand so the
		// partitioning, and with it every count, repeats. The program's own
		// seed is fixed: --seed varies the inputs, never the program.
		Seed: 1,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("ledger: open: %w", err)
	}
	s.srv, err = s.db.Serve("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("ledger: serve: %w", err)
	}
	for i := range s.cl {
		s.cl[i], err = waterwheel.Dial(s.srv.Addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("ledger: dial: %w", err)
		}
	}
	return s, nil
}

// close stops the clients, the server and the DB and removes the data
// directory. Safe on a partly opened system.
func (s *system) close() {
	for _, c := range s.cl {
		if c != nil {
			c.Close()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	os.RemoveAll(s.dir)
	s.cleanup.untrack(s.dir)
}

// failures counts failed operations by kind; safe for concurrent use.
type failures struct {
	mu    sync.Mutex
	kinds map[string]int64
	first map[string]string
}

func (f *failures) add(kind, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.kinds == nil {
		f.kinds = map[string]int64{}
		f.first = map[string]string{}
	}
	f.kinds[kind]++
	if _, ok := f.first[kind]; !ok {
		f.first[kind] = detail
	}
}

func (f *failures) total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, v := range f.kinds {
		n += v
	}
	return n
}

// insert records a failed insert: a BatchError with a non-zero
// prefix means part of the batch was acked, which the tuple accounting
// cannot follow, so it is its own kind.
func (f *failures) insert(err error) {
	var be *waterwheel.BatchError
	if errors.As(err, &be) && be.Index > 0 {
		f.add("batch_prefix", err.Error())
		return
	}
	f.add("error", err.Error())
}

// pumpResult is what a closed-loop insert phase did.
type pumpResult struct {
	tuples int64
	// acks holds every batch round trip in ms; traced and untraced split
	// them, in a traced run, by whether the batch carried a harness span.
	acks             []float64
	traced, untraced []float64
}

// pump sends the event stream's batches from position `from` over both
// connections, back to back, until `limit` positions are sent or the
// deadline passes. Batches are claimed from a shared counter, so at the end
// every position in [from, from+tuples) was acked exactly once.
func (b *bench) pump(sys *system, st *stream, from, limit int64, deadline time.Time) pumpResult {
	var next atomic.Int64
	var res pumpResult
	var acks, traced, untraced [clientConns][]float64
	nBatches := (limit + batchSize - 1) / batchSize
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]model.Tuple, batchSize)
			// Nil outside the measured phase of a traced run.
			sp := b.rec.log(c)
			for {
				// The deadline is checked before a batch is claimed, so the
				// claimed batches stay a gap-free prefix of the stream.
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				k := next.Add(1) - 1
				if k >= nBatches {
					return
				}
				n := int64(batchSize)
				if rest := limit - k*batchSize; rest < n {
					n = rest
				}
				st.fill(buf[:n], from+k*batchSize)
				t0 := time.Now()
				err := sys.cl[c].InsertBatch(buf[:n])
				t1 := time.Now()
				if err != nil {
					b.fails.insert(err)
					return
				}
				acks[c] = append(acks[c], ms(t1.Sub(t0)))
				if sp != nil {
					if k%untracedEvery != 0 {
						sp.op("op", "insert_batch", k, t0, t0, t1, n)
						traced[c] = append(traced[c], ms(t1.Sub(t0)))
					} else {
						untraced[c] = append(untraced[c], ms(t1.Sub(t0)))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range acks {
		res.acks = append(res.acks, acks[c]...)
		res.traced = append(res.traced, traced[c]...)
		res.untraced = append(res.untraced, untraced[c]...)
	}
	batches := next.Load()
	if batches > nBatches {
		batches = nBatches
	}
	res.tuples = batches * batchSize
	if res.tuples > limit {
		res.tuples = limit
	}
	sys.want += res.tuples
	sys.histN += res.tuples
	b.attempted.Add(batches)
	return res
}

// waitVisible polls COUNT(*) over the full region until it reaches
// sys.want. DB.Drain is not trusted as a barrier (it can return before the
// last block is merged), so every barrier in the benchmark is this poll.
func (b *bench) waitVisible(sys *system) bool {
	deadline := time.Now().Add(visibleWait)
	var got uint64
	for {
		res, err := sys.cl[0].Aggregate(waterwheel.AggregateQuery{
			Keys: waterwheel.FullKeyRange(), Times: waterwheel.FullTimeRange(), Kind: waterwheel.AggCount,
		})
		if err != nil {
			b.fails.add("error", "visibility poll: "+err.Error())
			return false
		}
		got = res.Count
		if int64(got) == sys.want {
			return true
		}
		if int64(got) > sys.want || time.Now().After(deadline) {
			b.fails.add("count_mismatch", fmt.Sprintf("COUNT(*) = %d, acked %d", got, sys.want))
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// flushAll forces the memtables out and waits until nothing is buffered.
func (b *bench) flushAll(sys *system) bool {
	if err := sys.cl[0].Flush(); err != nil {
		b.fails.add("error", "flush: "+err.Error())
		return false
	}
	deadline := time.Now().Add(visibleWait)
	for sys.db.Stats().Buffered != 0 {
		if time.Now().After(deadline) {
			b.fails.add("deadline", "flush: memtables still hold tuples")
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// scaled applies -scale to a tuple count, keeping whole batches.
func (b *bench) scaled(n int64) int64 {
	v := int64(math.Round(float64(n) * b.cfg.scale))
	v -= v % batchSize
	if v < batchSize {
		v = batchSize
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(parts ...[]float64) []float64 {
	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Float64s(all)
	return all
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }
