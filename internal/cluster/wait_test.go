package cluster

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
)

// within runs f and fails the test if it has not returned after 10 s — the
// tests below are about calls that used to hang for good, and a deadline
// makes that a failure instead of a suite timeout.
func within[T any](t *testing.T, what string, f func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- f() }()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s did not return\n%s", what, buf[:runtime.Stack(buf, true)])
		panic("unreachable")
	}
}

// churn keeps a writer and a KillIndexServer loop going against c until the
// returned stop is called, which reports how many tuples were acked.
func churn(t *testing.T, c *Cluster) (stop func() int64) {
	var acked atomic.Int64
	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			batch := make([]model.Tuple, 64)
			for j := range batch {
				batch[j] = model.Tuple{Key: model.Key(uint64(i*64+j) * 0x9E3779B97F4A7C15), Time: model.Timestamp(i), Payload: make([]byte, 8)}
			}
			rejected, err := c.InsertBatch(batch)
			acked.Add(int64(len(batch) - len(rejected)))
			if err != nil {
				t.Errorf("insert under churn: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			if err := c.KillIndexServer(i % 2); err != nil {
				t.Errorf("kill: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	return func() int64 {
		close(quit)
		wg.Wait()
		return acked.Load()
	}
}

// gatedFlushes returns durable files that park every chunk write of slot 0
// — at the rename that puts its bytes in place — while the gate is shut, and
// the function that opens it. Chunk files of slot 0 are named
// chunks/is0-e<epoch>-…, which the DFS escapes to chunks%2Fis0-e….
func gatedFlushes() (files *durable.Files, open func()) {
	gate := make(chan struct{})
	return &durable.Files{Hook: func(op durable.Op, path string) error {
		if op == durable.OpRename && strings.Contains(path, "chunks%2Fis0-e") {
			<-gate
		}
		return nil
	}}, sync.OnceFunc(func() { close(gate) })
}

// TestDrainSurvivesTakeover: Drain used to poll the incarnation it found
// when it started; once a takeover deposed that one its Consumed() never
// moved again and Drain hung. First a takeover is forced while a Drain is
// parked on the slot, and the barrier has to hold on the successor —
// everything acked before the call, exactly once; then every Drain under a
// writer and a kill loop has to return. The stall is a chunk write parked in
// its rename, so the first half runs over a DataDir; the second, whose every
// kill would replay and checkpoint through the disk, runs memory-only.
func TestDrainSurvivesTakeover(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 8 << 10
	cfg.FlushQueueDepth = 1
	gated := cfg
	gated.DataDir = t.TempDir()
	files, open := gatedFlushes()
	gated.Files = files
	defer open()
	c := startCluster(t, gated)

	// Park slot 0's pipeline: the flusher in the rename, then the consumer on
	// the full flush queue, with acked records behind it in the log.
	var acked int
	for i := 0; i < 40; i++ {
		batch := make([]model.Tuple, 100)
		for j := range batch {
			batch[j] = model.Tuple{Key: model.Key(i*100 + j), Time: model.Timestamp(i), Payload: make([]byte, 16)}
		}
		if _, err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		acked += len(batch)
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()
	// Give the Drain a moment to park on the stalled incarnation (the test
	// passes either way; parked is the interesting case), then depose it.
	// The takeover itself waits for the old flusher, which is in the rename.
	time.Sleep(10 * time.Millisecond)
	killed := make(chan error, 1)
	go func() { killed <- c.KillIndexServer(0) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with slot 0 stalled below the head", err)
	default:
	}
	open()
	if err := within(t, "KillIndexServer", func() error { return <-killed }); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "Drain across a takeover", func() error { return <-drained }); err != nil {
		t.Fatalf("Drain across a takeover: %v", err)
	}
	if got := countAll(t, c); got != acked {
		t.Fatalf("%d tuples visible after a Drain that spanned a takeover, %d acked before it", got, acked)
	}

	// Now the race: every Drain returns, and returns nil.
	c = startCluster(t, cfg)
	stop := churn(t, c)
	for start, n := time.Now(), 0; n < 300 && time.Since(start) < 300*time.Millisecond; n++ {
		if err := within(t, "Drain under a kill loop", c.Drain); err != nil {
			t.Fatalf("Drain %d under a kill loop: %v", n, err)
		}
	}
	total := int(stop())
	// CrashIndexServer's catch-up is the same wait.
	for slot := 0; slot < 2; slot++ {
		if err := within(t, "CrashIndexServer", func() error { return c.CrashIndexServer(slot) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := within(t, "Drain", c.Drain); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, c); got != total {
		t.Fatalf("%d tuples visible after the churn, %d acked", got, total)
	}
}

// TestDrainAfterStopReturnsErrClosed: a barrier that cannot be met says so.
// The cluster is never started, so its consumers never apply what the log
// acked: Drain parks, and Stop — or a cluster already stopped — turns that
// into ErrClosed, as it does for the other catch-up waits.
func TestDrainAfterStopReturnsErrClosed(t *testing.T) {
	c := New(testConfig())
	for i := 0; i < 10; i++ {
		if err := c.Insert(model.Tuple{Key: model.Key(uint64(i) << 60), Time: model.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()
	time.Sleep(5 * time.Millisecond) // parked or not yet called: both must end in ErrClosed
	within(t, "Stop", func() bool { c.Stop(); return true })
	if err := within(t, "Drain across Stop", func() error { return <-drained }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain across Stop = %v, want ErrClosed", err)
	}
	if err := within(t, "Drain after Stop", c.Drain); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Stop = %v, want ErrClosed", err)
	}
	if err := within(t, "CrashIndexServer after Stop", func() error { return c.CrashIndexServer(0) }); !errors.Is(err, ErrClosed) {
		t.Fatalf("CrashIndexServer after Stop = %v, want ErrClosed", err)
	}
	if err := within(t, "DecommissionIndexServer after Stop", func() error { return c.DecommissionIndexServer(1) }); !errors.Is(err, ErrClosed) {
		t.Fatalf("DecommissionIndexServer after Stop = %v, want ErrClosed", err)
	}
}

// TestFlushAllSurvivesTakeover: Cluster.FlushAll walks a snapshot of the
// slot table, so a takeover can hand it an aborted incarnation. Its flusher
// has exited: a unit swapped out now is never attempted, and waitFlush and
// DrainFlushes used to spin on it for good.
func TestFlushAllSurvivesTakeover(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 8 << 10
	c := startCluster(t, cfg)
	for i := 0; i < 100; i++ {
		if err := c.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	old := c.IndexServers()[0]
	if old.MemLen() == 0 {
		t.Fatal("nothing buffered on slot 0; the test lost its subject")
	}
	if err := c.KillIndexServer(0); err != nil {
		t.Fatal(err)
	}
	within(t, "Flush (waitFlush) on an aborted incarnation", func() bool { _, ok := old.Flush(); return ok })
	if old.PendingFlushes() == 0 {
		t.Fatal("the aborted incarnation swapped nothing out; the test lost its subject")
	}
	within(t, "DrainFlushes on an aborted incarnation", func() bool { old.DrainFlushes(); return true })

	stop := churn(t, c)
	for start, n := time.Now(), 0; n < 300 && time.Since(start) < 300*time.Millisecond; n++ {
		within(t, "FlushAll under a kill loop", func() bool { c.FlushAll(); return true })
	}
	total := int(stop()) + 100
	if err := within(t, "Drain", c.Drain); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, c); got != total {
		t.Fatalf("%d tuples visible after the churn, %d acked", got, total)
	}
}

// TestDrainReportsDeadConsumer: a consumer that meets a record it cannot
// decode stops for good. Inserts into its slot keep being acked from the
// log; Drain is what says nobody is applying them, with the consumer's own
// error — before this the slot just went quiet and Drain hung.
func TestDrainReportsDeadConsumer(t *testing.T) {
	c := startCluster(t, testConfig())
	if err := c.Insert(model.Tuple{Key: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WAL().Partition(0).Append([]byte("not a tuple")); err != nil {
		t.Fatal(err)
	}
	err := within(t, "Drain behind a dead consumer", c.Drain)
	if !errors.Is(err, model.ErrShortBuffer) {
		t.Fatalf("Drain behind a dead consumer = %v, want the decode failure", err)
	}
	// Acks still follow the log, and the other slot still drains.
	if err := c.Insert(model.Tuple{Key: 2, Time: 2}); err != nil {
		t.Fatalf("insert into the dead consumer's slot: %v", err)
	}
	if err := c.Insert(model.Tuple{Key: 1 << 63, Time: 3}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "Drain behind a dead consumer", c.Drain); !errors.Is(err, model.ErrShortBuffer) {
		t.Fatalf("second Drain = %v, want the decode failure again", err)
	}
	// A takeover replays into the same record: still reported, not hung.
	if err := within(t, "CrashIndexServer", func() error { return c.CrashIndexServer(0) }); !errors.Is(err, model.ErrShortBuffer) {
		t.Fatalf("CrashIndexServer over a corrupt record = %v, want the decode failure", err)
	}
}

// TestIdleDeploymentIsQuiet: with every waiter parked on a watermark, a
// started deployment that nobody writes to allocates (next to) nothing.
// Two are measured together, so the sum is under the bound; sleep-polling
// consumers allocated a timer per 200 µs wake, 5 346 objects a second.
// Mallocs, not CPU, so the number is steady on a small guest.
func TestIdleDeploymentIsQuiet(t *testing.T) {
	for range 2 {
		cfg := testConfig()
		cfg.DataDir = t.TempDir()
		c := startCluster(t, cfg)
		for i := 0; i < 100; i++ {
			if err := c.Insert(model.Tuple{Key: model.Key(uint64(i) << 57), Time: model.Timestamp(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		c.FlushAll()
	}
	time.Sleep(50 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	time.Sleep(time.Second)
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("two idle deployments: %d objects allocated in a second", n)
	if n >= 100 {
		t.Fatalf("two idle deployments allocated %d objects in a second, want < 100", n)
	}
}
