package dispatcher

import (
	"math/rand"
	"sync"
	"testing"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

type captureSink struct {
	mu    sync.Mutex
	byDst map[int][]model.Tuple
}

func newCaptureSink() *captureSink { return &captureSink{byDst: map[int][]model.Tuple{}} }

func (c *captureSink) SendBatch(server int, ts []model.Tuple) (int, error) {
	c.mu.Lock()
	c.byDst[server] = append(c.byDst[server], ts...)
	c.mu.Unlock()
	return len(ts), nil
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
