package queryexec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// metricCluster is testCluster plus a telemetry registry wired into the
// coordinator and query servers, and an optional DFS sleep hook — the
// fixture for the read-path concurrency tests.
type metricCluster struct {
	*testCluster
	reg *telemetry.Registry
	cm  *CoordinatorMetrics
	sm  *ServerMetrics
}

func newMetricCluster(t *testing.T, nIdx, nQry, nNodes int, scfg ServerConfig, lat dfs.LatencyModel, sleep func(time.Duration)) *metricCluster {
	t.Helper()
	if sleep == nil {
		sleep = func(time.Duration) {}
	}
	fs := dfs.New(dfs.Config{Nodes: nNodes, Replication: 2, Seed: 1, Latency: lat, Sleep: sleep})
	ms := meta.NewServer(nIdx)
	reg := telemetry.NewRegistry()
	cm := NewCoordinatorMetrics(reg)
	sm := NewServerMetrics(reg)
	c := &metricCluster{
		testCluster: &testCluster{fs: fs, ms: ms},
		reg:         reg, cm: cm, sm: sm,
	}
	c.coord = NewCoordinator(CoordinatorConfig{Metrics: cm, MemExecutors: c.memExecs}, ms, fs)
	for i := 0; i < nIdx; i++ {
		srv := ingest.NewServer(ingest.Config{
			ID: i, Keys: ms.Schema().IntervalOf(i), ChunkBytes: 1 << 30, Leaves: 16,
		}, fs, ms, i%nNodes)
		c.is = append(c.is, srv)
	}
	for i := 0; i < nQry; i++ {
		cfg := scfg
		cfg.ID, cfg.Node, cfg.Metrics = i, i%nNodes, sm
		if cfg.CacheBytes == 0 {
			cfg.CacheBytes = 1 << 20
		}
		qs := NewServer(cfg, fs, ms)
		c.qs = append(c.qs, qs)
		c.coord.AddQueryServer(qs)
	}
	return c
}

// TestConcurrentMissesShareOneDFSRead pins the single-flight guarantee:
// N concurrent subqueries that all miss the same leaf extent trigger
// exactly one DFS read, with the other N-1 joining the leader's flight.
//
// The DFS sleep hook parks the flight leader inside ReadAt; the test then
// waits (via the leaf-miss counter) until every other subquery has passed
// its own cache check — so none of them can be served by the cache — and
// releases the leader. Every follower must then share the flight.
func TestConcurrentMissesShareOneDFSRead(t *testing.T) {
	var armed atomic.Bool
	gate := make(chan struct{})
	arrived := make(chan struct{}, 32)
	sleep := func(time.Duration) {
		if armed.Load() {
			arrived <- struct{}{}
			<-gate
		}
	}
	c := newMetricCluster(t, 1, 1, 1, ServerConfig{}, dfs.LatencyModel{}, sleep)
	c.ingest(seqTuples(512, 1<<55, 1000))
	c.flushAll()
	s := c.qs[0]

	ci, ok := c.ms.Chunk(model.ChunkID(1))
	if !ok {
		t.Fatal("chunk 1 not registered")
	}
	// Warm the header so the gated flight below is the leaf extent read.
	h, _, _, err := s.header(ci, false)
	if err != nil {
		t.Fatal(err)
	}
	nLeaves := int64(len(h.Dir))

	sq := &model.SubQuery{
		QueryID: 1, Region: model.FullRegion(), Chunk: ci.ID,
		ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen,
	}
	const callers = 6
	readsBefore := c.fs.Metrics().Reads.Load()
	dedupBefore := c.sm.SingleFlightDedup.Value()
	missBefore := c.sm.LeafMisses.Value()

	armed.Store(true)
	var wg sync.WaitGroup
	results := make([]*model.SubResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.ExecuteSubQuery(sq)
		}(i)
	}
	// The extent leader parks in ReadAt. All subqueries want the same
	// (single, fully coalesced) extent, so once every caller has recorded
	// its leaf misses the cache can no longer satisfy any of them.
	<-arrived
	wantMisses := missBefore + int64(callers)*nLeaves
	for c.sm.LeafMisses.Value() < wantMisses {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(10 * time.Millisecond) // let the last misses reach flights.Do
	armed.Store(false)
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if got := results[i].Len(); got != 512 {
			t.Fatalf("caller %d: %d tuples, want 512", i, got)
		}
	}
	if reads := c.fs.Metrics().Reads.Load() - readsBefore; reads != 1 {
		t.Errorf("concurrent identical misses issued %d DFS reads, want 1", reads)
	}
	if dedups := c.sm.SingleFlightDedup.Value() - dedupBefore; dedups != callers-1 {
		t.Errorf("single-flight dedups = %d, want %d", dedups, callers-1)
	}
	// Exactly one caller paid the bytes; followers report zero.
	var paid int
	for _, r := range results {
		if r.BytesRead > 0 {
			paid++
		}
	}
	if paid != 1 {
		t.Errorf("%d callers reported BytesRead > 0, want 1", paid)
	}
}

// TestConcurrentQueriesWithServerChurn storms the dispatch engine: many
// concurrent Executes race mid-query Fail/Recover cycles on all but one
// query server. Every query must settle with complete, sorted results,
// and the failures must surface as redispatches, not lost subqueries.
func TestConcurrentQueriesWithServerChurn(t *testing.T) {
	// A small real DFS open delay widens the window in which a server can
	// fail mid-subquery, so redispatches actually happen.
	sleep := func(d time.Duration) { time.Sleep(d / 64) }
	lat := dfs.LatencyModel{OpenMin: 2 * time.Millisecond, OpenMax: 2 * time.Millisecond}
	c := newMetricCluster(t, 2, 3, 3, ServerConfig{CacheBytes: 4 << 10}, lat, sleep)

	// Several flush rounds -> several chunks per indexing server.
	const rounds, perRound = 4, 256
	for r := 0; r < rounds; r++ {
		c.ingest(seqTuples(perRound, 1<<55, int64(1000+r)))
		c.flushAll()
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Server 0 stays up so every query can settle.
			s := c.qs[1+i%2]
			s.Fail()
			time.Sleep(500 * time.Microsecond)
			s.Recover()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const queries = 24
	var wg sync.WaitGroup
	errCh := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.coord.Execute(model.Query{
				Keys:  model.FullKeyRange(),
				Times: model.FullTimeRange(),
			})
			if err != nil {
				errCh <- err
				return
			}
			if got := len(res.Tuples); got != rounds*perRound {
				errCh <- errors.New("incomplete result")
				return
			}
			for j := 1; j < len(res.Tuples); j++ {
				if model.CompareTuples(&res.Tuples[j-1], &res.Tuples[j]) > 0 {
					errCh <- errors.New("unsorted result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if c.cm.Redispatches.Value() == 0 {
		t.Log("warning: churn produced no redispatches this run")
	}
}

// TestSerialConfigMatchesParallelResults checks the Workers=1 +
// InflightReads=1 escape hatch: it must reproduce the serial engine's
// results exactly, and the parallel default must agree with it.
func TestSerialConfigMatchesParallelResults(t *testing.T) {
	build := func(cfg ServerConfig) *metricCluster {
		c := newMetricCluster(t, 2, 2, 2, cfg, dfs.LatencyModel{}, nil)
		for r := 0; r < 3; r++ {
			c.ingest(seqTuples(200, 1<<56, int64(1000+r)))
			c.flushAll()
		}
		return c
	}
	serial := build(ServerConfig{Workers: 1, InflightReads: 1})
	parallel := build(ServerConfig{})

	if got := serial.qs[0].Workers(); got != 1 {
		t.Fatalf("serial Workers() = %d, want 1", got)
	}
	if got := parallel.qs[0].Workers(); got < 1 {
		t.Fatalf("parallel Workers() = %d, want >= 1", got)
	}

	q := model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	rs, err := serial.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.coord.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != len(rp.Tuples) {
		t.Fatalf("serial %d tuples, parallel %d", len(rs.Tuples), len(rp.Tuples))
	}
	for i := range rs.Tuples {
		if model.CompareTuples(&rs.Tuples[i], &rp.Tuples[i]) != 0 {
			t.Fatalf("tuple %d differs between serial and parallel engines", i)
		}
	}
	if rs.BytesRead != rp.BytesRead {
		t.Errorf("BytesRead differs: serial %d, parallel %d", rs.BytesRead, rp.BytesRead)
	}
}

// TestSaturatedOwnerIsStolenFrom: a server whose workers are all busy has
// the subqueries it owns stolen, so a query does not wait on it for work
// another server could do. Every chunk lives on node 0 only, so LADA ranks
// query server 0 (on node 0) first for all of them; its reads are local and
// the only ones the latency model charges, and the DFS sleep hook holds
// every charged read until released. Server 0's two workers each claim a
// subquery and block: server 0 is saturated, and server 1 (on a node with
// no replica, whose remote reads cost nothing) runs the other four to
// completion while server 0 is still held.
func TestSaturatedOwnerIsStolenFrom(t *testing.T) {
	gate, held := make(chan struct{}), make(chan struct{}, 2)
	fs := dfs.New(dfs.Config{
		Nodes: 1, Replication: 1, Seed: 1,
		Latency: dfs.LatencyModel{LocalBytesPerSec: 1 << 20},
		Sleep: func(d time.Duration) {
			if d > 0 {
				held <- struct{}{}
				<-gate
			}
		},
	})
	ms := meta.NewServer(1)
	reg := telemetry.NewRegistry()
	cm := NewCoordinatorMetrics(reg)
	c := &testCluster{fs: fs, ms: ms}
	c.coord = NewCoordinator(CoordinatorConfig{Metrics: cm, MemExecutors: c.memExecs}, ms, fs)
	srv := ingest.NewServer(ingest.Config{ID: 0, Keys: ms.Schema().IntervalOf(0), ChunkBytes: 1 << 30, Leaves: 16}, fs, ms, 0)
	t.Cleanup(srv.Close)
	c.is = append(c.is, srv)
	for i := 0; i < 2; i++ {
		qs := NewServer(ServerConfig{ID: i, Node: i, Workers: 2, CacheBytes: 1 << 20}, fs, ms)
		c.qs = append(c.qs, qs)
		c.coord.AddQueryServer(qs)
	}
	const chunks = 6
	for w := 0; w < chunks; w++ {
		c.ingest(seqTuples(100, 100, int64(w*10_000)))
		c.flushAll()
	}

	var res *model.Result
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = c.coord.Execute(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
		done <- err
	}()
	<-held
	<-held
	for deadline := time.Now().Add(10 * time.Second); c.qs[1].Executed() < chunks-2 || cm.WorkersBusy.Value() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server 1 ran %d subqueries, %v executing, while server 0 was saturated; want %d run and 2 (server 0's) executing",
				c.qs[1].Executed(), cm.WorkersBusy.Value(), chunks-2)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("query finished (%v) while two of its subqueries were held", err)
	default:
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != chunks*100 {
		t.Fatalf("got %d tuples, want %d", len(res.Tuples), chunks*100)
	}
	if n := c.qs[0].Executed(); n != 2 {
		t.Errorf("server 0 ran %d subqueries, want 2", n)
	}
	if n := cm.StolenSubQueries.Value(); n != chunks-2 {
		t.Errorf("%d subqueries stolen, want %d", n, chunks-2)
	}
}
