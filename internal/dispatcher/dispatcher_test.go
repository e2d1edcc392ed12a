package dispatcher

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// captureSink records what each server was sent, call by call; servers in
// fail reject their whole group, as an all-or-nothing WAL append does.
type captureSink struct {
	mu    sync.Mutex
	byDst map[int][]model.Tuple
	calls [][]int // the servers of each SendGroups call, in group order
	fail  map[int]error
}

func newCaptureSink() *captureSink { return &captureSink{byDst: map[int][]model.Tuple{}} }

func (c *captureSink) SendGroups(groups []Group) (rejected []int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	var servers []int
	for gi := range groups {
		g := &groups[gi]
		servers = append(servers, g.Server)
		if ferr := c.fail[g.Server]; ferr != nil {
			rejected = g.AppendPositions(rejected, 0)
			errs = append(errs, ferr)
			continue
		}
		for _, rec := range g.Records {
			tp, _, err := model.DecodeTuple(rec)
			if err != nil {
				panic(err)
			}
			// The records alias the dispatcher's buffer: keep a copy.
			tp.Payload = append([]byte(nil), tp.Payload...)
			c.byDst[g.Server] = append(c.byDst[g.Server], tp)
		}
	}
	c.calls = append(c.calls, servers)
	return rejected, errors.Join(errs...)
}

func TestDispatchRoutesBySchema(t *testing.T) {
	sink := newCaptureSink()
	schema := meta.PartitionSchema{Version: 1, Servers: 2, Bounds: []model.Key{100}}
	d := New(schema, sink, SamplerConfig{})
	for _, k := range []model.Key{50, 100, 99} {
		if err := d.Dispatch(model.Tuple{Key: k}); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}
	// The boundary key goes right.
	if got := sink.byDst[0]; len(got) != 2 || got[0].Key != 50 || got[1].Key != 99 {
		t.Errorf("server 0 got %v, want keys 50, 99", got)
	}
	if got := sink.byDst[1]; len(got) != 1 || got[0].Key != 100 {
		t.Errorf("server 1 got %v, want key 100", got)
	}
}

// TestDispatchBatchGroupsByServer: however the keys interleave, the sink
// gets one call per batch with each server at most once, a group keeps its
// tuples in arrival order (so arrival order per key survives), and a failed
// group rejects exactly its own positions, ascending.
func TestDispatchBatchGroupsByServer(t *testing.T) {
	schema := meta.PartitionSchema{Version: 1, Servers: 3, Bounds: []model.Key{100, 200}}
	sink := newCaptureSink()
	d := New(schema, sink, SamplerConfig{})
	// Servers 0,2,1,0,2,0,1 — seven runs under contiguous slicing.
	keys := []model.Key{5, 250, 150, 5, 250, 7, 150}
	batch := make([]model.Tuple, len(keys))
	for i, k := range keys {
		batch[i] = model.Tuple{Key: k, Time: model.Timestamp(i)}
	}
	if rej, err := d.DispatchBatch(batch); rej != nil || err != nil {
		t.Fatalf("DispatchBatch = %v, %v", rej, err)
	}
	if want := [][]int{{0, 1, 2}}; !reflect.DeepEqual(sink.calls, want) {
		t.Fatalf("sink calls %v, want one call with each server once %v", sink.calls, want)
	}
	for srv, want := range [][]model.Timestamp{{0, 3, 5}, {2, 6}, {1, 4}} {
		var got []model.Timestamp
		for _, tp := range sink.byDst[srv] {
			got = append(got, tp.Time)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("server %d got arrival positions %v, want %v", srv, got, want)
		}
	}

	boom1, boom2 := errors.New("boom 1"), errors.New("boom 2")
	sink.fail = map[int]error{1: boom1, 2: boom2}
	rej, err := d.DispatchBatch(batch)
	if want := []int{1, 2, 4, 6}; !reflect.DeepEqual(rej, want) {
		t.Fatalf("rejected %v, want %v", rej, want)
	}
	if !errors.Is(err, boom1) || !errors.Is(err, boom2) {
		t.Fatalf("err = %v, want both causes findable", err)
	}
	if got := len(sink.byDst[0]); got != 6 {
		t.Fatalf("server 0 holds %d tuples, want its group acked both times (6)", got)
	}
}

// TestSingleServerBatchIsPassedThrough: a batch that routes to one server
// reaches the sink as the caller's own records — no scatter, no position
// table — and the steady state, its one encode included, allocates
// nothing.
func TestSingleServerBatchIsPassedThrough(t *testing.T) {
	schema := meta.PartitionSchema{Version: 1, Servers: 2, Bounds: []model.Key{100}}
	batch := []model.Tuple{{Key: 150}, {Key: 160}, {Key: 170, Payload: []byte("p")}}
	var got []Group
	var sent [][]byte // the records' bytes, read while the sink holds them
	sink := sinkOf(func(groups []Group) ([]int, error) {
		got = append(got[:0], groups...)
		sent = sent[:0]
		for _, rec := range groups[0].Records {
			sent = append(sent, append([]byte(nil), rec...))
		}
		return nil, nil
	})
	recs := model.AppendRecords(nil, model.AppendTuples(nil, batch))
	if _, err := SendGrouped(schema, sink, recs); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Server != 1 || got[0].Pos != nil || &got[0].Records[0] != &recs[0] || len(got[0].Records) != 3 {
		t.Fatalf("groups = %+v, want the batch itself as server 1's only group", got)
	}
	if got[0].At(2) != 2 {
		t.Fatalf("At(2) = %d on an identity group", got[0].At(2))
	}
	d := New(schema, sink, SamplerConfig{SampleEvery: 1 << 30})
	if _, err := d.DispatchBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(sent) != 3 || !bytes.Equal(sent[2], recs[2]) {
		t.Fatalf("DispatchBatch sent %q, want the batch's three records as one group", sent)
	}
	// Once the sink returned, the dispatcher's scratch holds none of them.
	if got[0].Records[0] != nil {
		t.Fatalf("the pooled scratch still aliases the encoded batch")
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	d = New(schema, sinkOf(func([]Group) ([]int, error) { return nil, nil }), SamplerConfig{SampleEvery: 1 << 30})
	if a := testing.AllocsPerRun(200, func() { d.DispatchBatch(batch) }); a != 0 {
		t.Errorf("single-server DispatchBatch allocates %.1f objects per call, want 0", a)
	}
	// The scatter's working set is recycled too.
	mixed := []model.Tuple{{Key: 150}, {Key: 5}, {Key: 170}, {Key: 6}}
	if a := testing.AllocsPerRun(200, func() { d.DispatchBatch(mixed) }); a != 0 {
		t.Errorf("two-server DispatchBatch allocates %.1f objects per call, want 0", a)
	}
}

// sinkOf adapts a function to Sink.
type sinkOf func(groups []Group) ([]int, error)

func (f sinkOf) SendGroups(groups []Group) ([]int, error) { return f(groups) }

// TestSendGroupedMatchesPerTupleRouting: on random batches and schemas —
// retired slots included — the groups partition the batch exactly as
// ServerFor does tuple by tuple, positions map back to the batch, and each
// group is in arrival order.
func TestSendGroupedMatchesPerTupleRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		active := 1 + rng.Intn(5)
		schema := meta.PartitionSchema{Version: 1, Servers: active + rng.Intn(3)}
		schema.Slots = rng.Perm(schema.Servers)[:active]
		for i := 1; i < active; i++ {
			schema.Bounds = append(schema.Bounds, model.Key(i*1000))
		}
		batch := make([]model.Tuple, 1+rng.Intn(300))
		for i := range batch {
			batch[i] = model.Tuple{Key: model.Key(rng.Intn(active * 1000)), Time: model.Timestamp(i)}
		}
		recs := model.AppendRecords(nil, model.AppendTuples(nil, batch))
		seen := make([]bool, len(batch))
		_, err := SendGrouped(schema, sinkOf(func(groups []Group) ([]int, error) {
			servers := map[int]bool{}
			for gi := range groups {
				g := &groups[gi]
				if servers[g.Server] || len(g.Records) == 0 {
					t.Fatalf("round %d: server %d twice or empty", round, g.Server)
				}
				servers[g.Server] = true
				last := -1
				for i, rec := range g.Records {
					at := g.At(i)
					if at <= last || seen[at] || &rec[0] != &recs[at][0] || schema.ServerFor(batch[at].Key) != g.Server {
						t.Fatalf("round %d: group %d entry %d maps to position %d wrongly", round, g.Server, i, at)
					}
					last, seen[at] = at, true
				}
			}
			return nil, nil
		}), recs)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("round %d: position %d reached no group", round, i)
			}
		}
	}
}

// TestSinkFuncRejectsFromTheFailingTuple: the per-tuple adapter stops a
// group at its first error and keeps going with the next group.
func TestSinkFuncRejectsFromTheFailingTuple(t *testing.T) {
	schema := meta.PartitionSchema{Version: 1, Servers: 2, Bounds: []model.Key{100}}
	boom := errors.New("boom")
	var took []model.Key
	d := New(schema, SinkFunc(func(server int, tp model.Tuple) error {
		if tp.Key == 151 {
			return boom
		}
		took = append(took, tp.Key)
		return nil
	}), SamplerConfig{})
	rej, err := d.DispatchBatch([]model.Tuple{{Key: 150}, {Key: 1}, {Key: 151}, {Key: 2}, {Key: 152}})
	if !reflect.DeepEqual(rej, []int{2, 4}) || !errors.Is(err, boom) {
		t.Fatalf("DispatchBatch = %v, %v; want [2 4] and the cause", rej, err)
	}
	if !reflect.DeepEqual(took, []model.Key{1, 2, 150}) {
		t.Fatalf("sink took %v", took)
	}
	if err := d.Dispatch(model.Tuple{Key: 151}); !errors.Is(err, boom) {
		t.Fatalf("Dispatch = %v, want the cause", err)
	}
}

func TestUpdateSchemaVersioning(t *testing.T) {
	d := New(meta.PartitionSchema{Version: 2, Servers: 2, Bounds: []model.Key{100}}, newCaptureSink(), SamplerConfig{})
	// Stale update ignored.
	d.UpdateSchema(meta.PartitionSchema{Version: 1, Servers: 2, Bounds: []model.Key{999}})
	if d.Schema().Bounds[0] != 100 {
		t.Error("stale schema applied")
	}
	d.UpdateSchema(meta.PartitionSchema{Version: 3, Servers: 2, Bounds: []model.Key{500}})
	if d.Schema().Bounds[0] != 500 {
		t.Error("newer schema not applied")
	}
}

func TestSamplerWindowSlides(t *testing.T) {
	s := NewSampler(SamplerConfig{Buckets: 2, PerBucket: 100})
	for i := 0; i < 50; i++ {
		s.Observe(model.Key(1))
	}
	if got := len(s.Sample()); got != 50 {
		t.Fatalf("sample size %d", got)
	}
	s.Rotate()
	for i := 0; i < 30; i++ {
		s.Observe(model.Key(2))
	}
	if got := len(s.Sample()); got != 80 {
		t.Fatalf("after rotate sample size %d, want 80", got)
	}
	s.Rotate() // drops the 50 ones
	if got := len(s.Sample()); got != 30 {
		t.Fatalf("after second rotate %d, want 30", got)
	}
	for _, k := range s.Sample() {
		if k != 2 {
			t.Fatal("old keys survived the window")
		}
	}
}

func TestSamplerReservoirBounded(t *testing.T) {
	s := NewSampler(SamplerConfig{Buckets: 2, PerBucket: 64, Seed: 1})
	for i := 0; i < 10000; i++ {
		s.Observe(model.Key(i))
	}
	if got := len(s.Sample()); got != 64 {
		t.Fatalf("reservoir size %d, want 64", got)
	}
	// The reservoir should span the stream, not just its head.
	late := 0
	for _, k := range s.Sample() {
		if k >= 5000 {
			late++
		}
	}
	if late < 16 {
		t.Errorf("reservoir biased to stream head: only %d/64 late keys", late)
	}
}

func TestImbalanceUniformVsSkewed(t *testing.T) {
	b := NewBalancer()
	schema := meta.EvenSchema(4)
	rng := rand.New(rand.NewSource(5))
	uniform := make([]model.Key, 4000)
	for i := range uniform {
		uniform[i] = model.Key(rng.Uint64())
	}
	if imb := b.Imbalance(schema, uniform); imb > 0.15 {
		t.Errorf("uniform imbalance %f too high", imb)
	}
	skewed := make([]model.Key, 4000)
	for i := range skewed {
		skewed[i] = model.Key(rng.Intn(1000)) // all in server 0
	}
	if imb := b.Imbalance(schema, skewed); imb < 2.5 {
		t.Errorf("skewed imbalance %f too low (want ~3)", imb)
	}
	if b.Imbalance(schema, nil) != 0 {
		t.Error("empty sample should be balanced")
	}
}

func TestRebalanceProducesEvenSchema(t *testing.T) {
	b := NewBalancer()
	schema := meta.EvenSchema(4)
	rng := rand.New(rand.NewSource(6))
	// Normal-ish distribution centered low in the domain: heavily skewed
	// under the even schema.
	sample := make([]model.Key, 8000)
	for i := range sample {
		sample[i] = model.Key(1 << 20 * (1 + rng.Intn(100)))
	}
	bounds, ok := b.Rebalance(schema, sample)
	if !ok {
		t.Fatal("rebalance declined on a heavily skewed sample")
	}
	newSchema := meta.PartitionSchema{Version: 2, Servers: 4, Bounds: bounds}
	if imb := b.Imbalance(newSchema, sample); imb > 0.25 {
		t.Errorf("imbalance after rebalance %f", imb)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not ascending: %v", bounds)
		}
	}
}

func TestRebalanceDeclinesWhenBalanced(t *testing.T) {
	b := NewBalancer()
	schema := meta.EvenSchema(4)
	rng := rand.New(rand.NewSource(7))
	sample := make([]model.Key, 8000)
	for i := range sample {
		sample[i] = model.Key(rng.Uint64())
	}
	if _, ok := b.Rebalance(schema, sample); ok {
		t.Error("rebalance fired on balanced load")
	}
	// Too little evidence: declined even if skewed.
	if _, ok := b.Rebalance(schema, sample[:10]); ok {
		t.Error("rebalance fired below MinSample")
	}
}

func TestRebalanceHeavyDuplicates(t *testing.T) {
	b := NewBalancer()
	schema := meta.EvenSchema(4)
	sample := make([]model.Key, 1000)
	for i := range sample {
		sample[i] = 42 // every key identical
	}
	bounds, ok := b.Rebalance(schema, sample)
	if ok {
		// If it decides to rebalance, bounds must still be strictly
		// ascending (the nudge rule).
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not ascending: %v", bounds)
			}
		}
	}
}

func TestEndToEndAdaptiveLoop(t *testing.T) {
	// Dispatcher + balancer + metadata server cooperating: skewed stream
	// triggers a schema update that the dispatcher adopts.
	ms := meta.NewServer(4)
	sink := newCaptureSink()
	d := New(ms.Schema(), sink, SamplerConfig{Seed: 1})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		d.Dispatch(model.Tuple{Key: model.Key(rng.Intn(1 << 16))}) // all to server 0
	}
	b := NewBalancer()
	bounds, ok := b.Rebalance(d.Schema(), d.Sampler().Sample())
	if !ok {
		t.Fatal("balancer did not fire")
	}
	newSchema, err := ms.SetSchema(bounds)
	if err != nil {
		t.Fatal(err)
	}
	d.UpdateSchema(newSchema)
	// Fresh tuples now spread across servers.
	fresh := newCaptureSink()
	d2 := New(d.Schema(), fresh, SamplerConfig{})
	for i := 0; i < 4000; i++ {
		d2.Dispatch(model.Tuple{Key: model.Key(rng.Intn(1 << 16))})
	}
	for srv := 0; srv < 4; srv++ {
		n := len(fresh.byDst[srv])
		if n < 500 || n > 1500 {
			t.Errorf("server %d got %d/4000 after rebalance", srv, n)
		}
	}
}

func TestConcurrentDispatch(t *testing.T) {
	sink := newCaptureSink()
	d := New(meta.EvenSchema(4), sink, SamplerConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1000; i++ {
				d.Dispatch(model.Tuple{Key: model.Key(rng.Uint64())})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, v := range sink.byDst {
		total += len(v)
	}
	if total != 8000 {
		t.Errorf("dispatched %d, want 8000", total)
	}
}
