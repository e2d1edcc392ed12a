// Package dispatcher implements Waterwheel's dispatchers and the adaptive
// key partitioning mechanism (paper §III-D). Dispatchers route incoming
// tuples to indexing servers according to the global key partitioning
// schema, while sampling the key frequencies of their input streams in a
// sliding window. A centralized balancer periodically accumulates the
// samples from all dispatchers; if any indexing server's estimated load
// deviates beyond a threshold (paper: 20%) from the mean, it computes a new
// key partitioning that equalizes the load.
package dispatcher

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// Group is one server's share of a dispatched batch, in arrival order.
type Group struct {
	Server int
	// Records are the share's tuples in wire encoding, one record each in
	// model.AppendTuple's layout: the bytes the WAL stores as they are.
	Records [][]byte
	// Pos maps the group back to the batch: Records[i] was dispatched at
	// position Pos[i]. nil when the group IS the batch (every tuple routed
	// to this one server), where Records[i] sits at position i.
	Pos []int
}

// At returns the batch position of g.Records[i].
func (g *Group) At(i int) int {
	if g.Pos == nil {
		return i
	}
	return g.Pos[i]
}

// AppendPositions appends the batch positions of g.Records[from:] to dst —
// what a sink reports when it rejects the group from that record on.
func (g *Group) AppendPositions(dst []int, from int) []int {
	for i := from; i < len(g.Records); i++ {
		dst = append(dst, g.At(i))
	}
	return dst
}

// Sink receives routed tuples; implemented by the ingest layer (WAL
// partitions in the full system).
type Sink interface {
	// SendGroups delivers one batch scattered by server: each server appears
	// at most once, holding its records in arrival order. Groups are
	// independent failure domains — the sink attempts every one of them
	// whatever happened to the others — and the result names the batch
	// positions (Group.At) of the tuples it did NOT accept, in any order,
	// with the causes joined; none and a nil error accept the whole batch.
	// A position that is not returned is acked, so the sink must never leave
	// out a tuple the log cannot replay, nor return one it took. The groups,
	// every slice in them and the bytes the records alias are the
	// dispatcher's or its caller's: valid until SendGroups returns, not to
	// be retained.
	SendGroups(groups []Group) (rejected []int, err error)
}

// SinkFunc adapts a per-tuple function to the Sink interface — the test
// and benchmark adapter. The tuple's payload aliases the batch's buffer.
type SinkFunc func(server int, t model.Tuple) error

// SendGroups implements Sink by calling f per tuple; a group stops at its
// first error and rejects from there on, the other groups carry on.
func (f SinkFunc) SendGroups(groups []Group) (rejected []int, err error) {
	var errs []error
	for gi := range groups {
		g := &groups[gi]
		for i, rec := range g.Records {
			t, _, err := model.DecodeTuple(rec)
			if err == nil {
				err = f(g.Server, t)
			}
			if err != nil {
				rejected = g.AppendPositions(rejected, i)
				errs = append(errs, err)
				break
			}
		}
	}
	return rejected, errors.Join(errs...)
}

// SamplerConfig tunes the sliding-window key sampler.
type SamplerConfig struct {
	// Buckets is the number of sub-windows in the sliding window; rotating
	// once drops the oldest sub-window (default 8).
	Buckets int
	// PerBucket caps the keys retained per sub-window; past it, reservoir
	// sampling keeps the sample uniform (default 1024).
	PerBucket int
	// SampleEvery observes only one in every SampleEvery dispatched tuples
	// (default 16), keeping the sampling cost off the ingestion fast path.
	SampleEvery int
	// Seed drives the reservoir choices.
	Seed int64
}

func (c *SamplerConfig) fill() {
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.PerBucket <= 0 {
		c.PerBucket = 1024
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
}

// Sampler keeps a uniform sample of the keys observed in the last
// Buckets sub-windows.
type Sampler struct {
	mu      sync.Mutex
	cfg     SamplerConfig
	buckets [][]model.Key
	seen    []int // observations in each bucket, for reservoir sampling
	cur     int
	rng     *rand.Rand
}

// NewSampler creates a sliding-window key sampler.
func NewSampler(cfg SamplerConfig) *Sampler {
	cfg.fill()
	s := &Sampler{
		cfg:     cfg,
		buckets: make([][]model.Key, cfg.Buckets),
		seen:    make([]int, cfg.Buckets),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	return s
}

// Observe records one key into the current sub-window.
func (s *Sampler) Observe(k model.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[s.cur]++
	b := s.buckets[s.cur]
	if len(b) < s.cfg.PerBucket {
		s.buckets[s.cur] = append(b, k)
		return
	}
	// Reservoir: replace a random element with probability cap/seen.
	if j := s.rng.Intn(s.seen[s.cur]); j < s.cfg.PerBucket {
		b[j] = k
	}
}

// Rotate advances the sliding window, dropping the oldest sub-window. The
// cluster runtime calls this on a fixed cadence (paper: a few seconds).
func (s *Sampler) Rotate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = (s.cur + 1) % s.cfg.Buckets
	s.buckets[s.cur] = s.buckets[s.cur][:0]
	s.seen[s.cur] = 0
}

// Sample returns a copy of every retained key in the window.
func (s *Sampler) Sample() []model.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []model.Key
	for _, b := range s.buckets {
		out = append(out, b...)
	}
	return out
}

// Dispatcher routes tuples by the current schema, sampling keys as it
// goes. Multiple dispatchers run concurrently, each with its own sampler.
type Dispatcher struct {
	mu          sync.RWMutex
	schema      meta.PartitionSchema
	sampler     *Sampler
	sink        Sink
	sampleEvery uint64
	dispatched  atomic.Uint64
}

// New creates a dispatcher with the given initial schema and sink.
func New(schema meta.PartitionSchema, sink Sink, samplerCfg SamplerConfig) *Dispatcher {
	samplerCfg.fill()
	return &Dispatcher{
		schema:      schema,
		sampler:     NewSampler(samplerCfg),
		sink:        sink,
		sampleEvery: uint64(samplerCfg.SampleEvery),
	}
}

// Dispatch routes one tuple — DispatchBatch of one — returning the sink's
// verdict: a non-nil error means the tuple was not accepted.
func (d *Dispatcher) Dispatch(t model.Tuple) error {
	_, err := d.DispatchBatch([]model.Tuple{t})
	return err
}

// maxPooledEncode is the encoded batch size above which DispatchBatch's
// buffer is left to the collector instead of going back to the pool.
const maxPooledEncode = 1 << 20

var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// DispatchBatch is DispatchEncoded for a batch of tuples: the batch is
// encoded once, here, into a pooled buffer — the only encode between the
// caller and the WAL, which copies each server's records out of it before
// the sink returns.
func (d *Dispatcher) DispatchBatch(ts []model.Tuple) (rejected []int, err error) {
	if len(ts) == 0 {
		return nil, nil
	}
	bp := encodePool.Get().(*[]byte)
	*bp = model.AppendTuples((*bp)[:0], ts)
	rejected, err = d.DispatchEncoded(*bp)
	if cap(*bp) <= maxPooledEncode {
		encodePool.Put(bp)
	}
	return rejected, err
}

// DispatchEncoded routes a batch of encoded tuples — model.AppendTuples's
// bytes, whole records only (model.CountTuples checks) — against one schema
// snapshot and hands it to the sink grouped by server (SendGrouped). It
// returns the positions of the records the sink did not accept, ascending —
// record i was accepted iff i is not among them — and the joined causes;
// err is nil iff none was rejected. Only one in SampleEvery tuples enters
// the sampler, its key read off the record head, at the cost of a single
// atomic add for the whole batch, keeping routing cheap. Nothing of buf is
// kept past the call.
func (d *Dispatcher) DispatchEncoded(buf []byte) (rejected []int, err error) {
	if len(buf) == 0 {
		return nil, nil
	}
	sc := scatterPool.Get().(*scatterScratch)
	defer sc.recycle()
	sc.recs = model.AppendRecords(sc.recs[:0], buf)
	recs := sc.recs
	base := d.dispatched.Add(uint64(len(recs))) - uint64(len(recs))
	// The first index i with (base+i+1) a multiple of sampleEvery, then
	// every sampleEvery-th after it.
	for i := int(d.sampleEvery - 1 - base%d.sampleEvery); i < len(recs); i += int(d.sampleEvery) {
		d.sampler.Observe(model.RecordKey(recs[i]))
	}
	return sc.send(d.Schema(), d.sink, recs)
}

// scatterScratch is the reusable working set of one dispatch.
type scatterScratch struct {
	recs   [][]byte // an encoded batch cut into its records (DispatchEncoded)
	tags   []int32  // tags[i] is the server recs[i] routes to
	next   []int    // per server: its count, then its group's write cursor
	out    [][]byte // the records, grouped by server
	pos    []int
	groups []Group
}

// maxPooledScatter is the batch size above which a scatterScratch is left to
// the collector instead of going back to the pool.
const maxPooledScatter = 64 << 10

var scatterPool = sync.Pool{New: func() any { return new(scatterScratch) }}

// recycle drops every alias of the batch's bytes — so the pool pins no
// request or WAL buffer — and returns sc to the pool unless a huge batch
// grew it.
func (sc *scatterScratch) recycle() {
	if cap(sc.recs) > maxPooledScatter || cap(sc.out) > maxPooledScatter {
		return
	}
	clear(sc.recs)
	clear(sc.out)
	clear(sc.groups)
	sc.recs, sc.out = sc.recs[:0], sc.out[:0]
	scatterPool.Put(sc)
}

// SendGrouped resolves every record's server once under schema, groups the
// batch by server and hands all groups to sink in ONE SendGroups call, so
// the sink sees each server at most once per batch however the keys
// interleave. The grouping is a stable counting scatter: a group keeps its
// records in arrival order, and since a key maps to one server under one
// schema, arrival order per key survives. A batch whose records all route
// to one server — every batch of one — is passed through as it is, with no
// scatter. Returns the rejected positions in recs, ascending, and the
// sink's error.
func SendGrouped(schema meta.PartitionSchema, sink Sink, recs [][]byte) ([]int, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	sc := scatterPool.Get().(*scatterScratch)
	defer sc.recycle()
	return sc.send(schema, sink, recs)
}

// send is SendGrouped into sc's buffers.
func (sc *scatterScratch) send(schema meta.PartitionSchema, sink Sink, recs [][]byte) ([]int, error) {
	rejected, err := sink.SendGroups(sc.scatter(schema, recs))
	sort.Ints(rejected)
	return rejected, err
}

// scatter groups recs by server into sc's buffers, each record's server
// resolved from the key at its head.
func (sc *scatterScratch) scatter(schema meta.PartitionSchema, recs [][]byte) []Group {
	first := schema.ServerFor(model.RecordKey(recs[0]))
	same := 1
	for same < len(recs) && schema.ServerFor(model.RecordKey(recs[same])) == first {
		same++
	}
	if same == len(recs) {
		sc.groups = append(sc.groups[:0], Group{Server: first, Records: recs})
		return sc.groups
	}
	n := len(recs)
	if cap(sc.tags) < n {
		sc.tags = make([]int32, n)
		sc.out = make([][]byte, n)
		sc.pos = make([]int, n)
	}
	if cap(sc.next) < schema.Servers {
		sc.next = make([]int, schema.Servers)
	}
	tags, next := sc.tags[:n], sc.next[:schema.Servers]
	sc.out = sc.out[:n]
	clear(next)
	for i := 0; i < same; i++ {
		tags[i] = int32(first)
	}
	next[first] = same
	for i := same; i < n; i++ {
		s := schema.ServerFor(model.RecordKey(recs[i]))
		tags[i] = int32(s)
		next[s]++
	}
	sc.groups = sc.groups[:0]
	start := 0
	for s, c := range next {
		if c > 0 {
			sc.groups = append(sc.groups, Group{Server: s, Records: sc.out[start : start+c], Pos: sc.pos[start : start+c]})
		}
		next[s] = start
		start += c
	}
	for i, s := range tags {
		at := next[s]
		next[s]++
		sc.out[at], sc.pos[at] = recs[i], i
	}
	return sc.groups
}

// UpdateSchema installs a newer partitioning schema; stale versions are
// ignored so concurrent pushes cannot roll back.
func (d *Dispatcher) UpdateSchema(s meta.PartitionSchema) {
	d.mu.Lock()
	if s.Version > d.schema.Version {
		d.schema = s
	}
	d.mu.Unlock()
}

// Schema returns the dispatcher's current schema.
func (d *Dispatcher) Schema() meta.PartitionSchema {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.schema
}

// Sampler exposes the dispatcher's key sampler (the balancer reads it).
func (d *Dispatcher) Sampler() *Sampler { return d.sampler }

// Dispatched returns the number of tuples routed by this dispatcher.
func (d *Dispatcher) Dispatched() uint64 { return d.dispatched.Load() }

// Balancer is the centralized process that evaluates the global key
// frequencies and recomputes the partitioning when load is skewed.
type Balancer struct {
	// Threshold is the relative deviation of the most loaded server that
	// triggers a repartition (paper: 0.2).
	Threshold float64
	// MinSample suppresses decisions on too little evidence.
	MinSample int

	// lastImbalance records the key-histogram imbalance measured by the
	// most recent Rebalance call (float64 bits), for telemetry gauges.
	lastImbalance atomic.Uint64
}

// LastImbalance returns the imbalance measured by the most recent
// Rebalance call: max_i |n_i - mean| / mean over the sampled key
// histogram. Zero until the balancer has run on a qualifying sample.
func (b *Balancer) LastImbalance() float64 {
	return math.Float64frombits(b.lastImbalance.Load())
}

// NewBalancer creates a balancer with the paper's 20% threshold.
func NewBalancer() *Balancer { return &Balancer{Threshold: 0.2, MinSample: 256} }

// Imbalance estimates each server's load share from the sample under the
// schema and returns the maximum relative deviation from the mean:
// max_i |n_i - mean| / mean. Returns 0 for empty samples.
func (b *Balancer) Imbalance(schema meta.PartitionSchema, sample []model.Key) float64 {
	active := schema.ActiveCount()
	if len(sample) == 0 || active < 2 {
		return 0
	}
	counts := make([]int, active)
	for _, k := range sample {
		counts[schema.PositionFor(k)]++
	}
	mean := float64(len(sample)) / float64(active)
	worst := 0.0
	for _, c := range counts {
		dev := float64(c) - mean
		if dev < 0 {
			dev = -dev
		}
		if dev/mean > worst {
			worst = dev / mean
		}
	}
	return worst
}

// Rebalance returns a new bound set equalizing the sampled load across
// servers, and whether a repartition is warranted. Bounds are quantile
// cuts of the sorted sample; duplicate cut keys are nudged apart so the
// schema stays strictly ascending. The trigger threshold is raised to the
// sampling noise floor (≈3σ of a multinomial share estimate) so small
// samples do not cause repartition thrash.
func (b *Balancer) Rebalance(schema meta.PartitionSchema, sample []model.Key) ([]model.Key, bool) {
	active := schema.ActiveCount()
	if len(sample) < b.MinSample || active < 2 {
		return nil, false
	}
	threshold := b.Threshold
	if noise := 3 * math.Sqrt(float64(active)/float64(len(sample))); noise > threshold {
		threshold = noise
	}
	imbalance := b.Imbalance(schema, sample)
	b.lastImbalance.Store(math.Float64bits(imbalance))
	if imbalance <= threshold {
		return nil, false
	}
	sorted := append([]model.Key(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := make([]model.Key, 0, active-1)
	for i := 1; i < active; i++ {
		idx := i * len(sorted) / active
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		bounds = append(bounds, sorted[idx])
	}
	// Enforce strict ascent (heavy duplicate keys can collapse quantiles).
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			bounds[i] = bounds[i-1] + 1
		}
	}
	// A final sanity check: the nudging above cannot overflow the domain in
	// any realistic sample, but guard against pathological all-MaxKey input.
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, false
		}
	}
	return bounds, true
}
