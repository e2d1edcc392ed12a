package main

import (
	"sort"
	"time"

	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// Generator parameters, shared by every workload. Event time advances one
// millisecond per tuple (EventsPerSecond = 1000), so a stream position is
// also a millisecond offset; late tuples lag their slot by up to lateMaxMs.
// lateMaxMs exceeds the indexing servers' 60 s side-store threshold so the
// side store takes roughly a third of the late tuples.
const (
	poolSize  = 1 << 18
	lateFrac  = 0.01
	lateMaxMs = 90_000
	batchSize = 256
	// userBytesPerTuple is the encoded tuple: 8 B key, 8 B time, 4 B
	// length, 16 B payload.
	userBytesPerTuple = 36
)

// pool is the pre-generated T-Drive sample every stream draws from. It
// holds keys, payloads and lateness; timestamps are stamped per use, so
// generation stays off the measured path.
type pool struct {
	keys     []model.Key
	payloads [][]byte
	lateBy   []int32
	span     model.KeyRange
	genNanos int64
	sorted   *keyIndex
}

func newPool(seed int64, n int) *pool {
	start := time.Now()
	g := workload.NewTDrive(workload.TDriveConfig{
		EventsPerSecond: 1000,
		LateFrac:        lateFrac,
		LateMaxMillis:   lateMaxMs,
		// A start beyond lateMaxMs keeps the generator from clamping
		// lateness at time zero.
		StartTime: lateMaxMs,
		Seed:      seed,
	})
	p := &pool{
		keys:     make([]model.Key, n),
		payloads: make([][]byte, n),
		lateBy:   make([]int32, n),
		span:     g.KeySpan(),
	}
	for i := 0; i < n; i++ {
		t := g.Next()
		p.keys[i] = t.Key
		p.payloads[i] = t.Payload
		p.lateBy[i] = int32(lateMaxMs + int64(i) + 1 - int64(t.Time))
	}
	p.genNanos = time.Since(start).Nanoseconds()
	return p
}

// keyIndex is the pool ordered by key, as parallel arrays so that the
// oracle walks memory in order: pool index, key, lateness and the aggregate
// field (the payload's leading big-endian uint64).
type keyIndex struct {
	idx    []int32
	keys   []model.Key
	lateBy []int32
	field  []uint64
}

// byKey returns the pool's key index, built on first use.
func (p *pool) byKey() *keyIndex {
	if p.sorted == nil {
		n := len(p.keys)
		ki := &keyIndex{idx: make([]int32, n), keys: make([]model.Key, n), lateBy: make([]int32, n), field: make([]uint64, n)}
		for i := range ki.idx {
			ki.idx[i] = int32(i)
		}
		sort.Slice(ki.idx, func(a, b int) bool { return p.keys[ki.idx[a]] < p.keys[ki.idx[b]] })
		for a, i := range ki.idx {
			ki.keys[a], ki.lateBy[a] = p.keys[i], p.lateBy[i]
			ki.field[a], _ = model.PayloadU64Field(p.payloads[i], 0)
		}
		p.sorted = ki
	}
	return p.sorted
}

// stream is a deterministic tuple sequence over the pool: tuple j carries
// the pool's key and payload at j mod len and the time stamp(j) − lateBy.
// Because a position fixes its time up to the bounded lateness, the stream
// is also the oracle for its own contents: no copy of what was sent is
// kept.
type stream struct {
	p *pool
	// base is the on-time stamp of position 0, in milliseconds.
	base int64
	// perMs > 0 stamps positions in whole batches at perMs tuples per
	// millisecond (the wall-clock stream of the mixed workload); 0 stamps
	// one tuple per millisecond (event time).
	perMs int64
}

// eventStream stamps one tuple per millisecond from base.
func eventStream(p *pool, base int64) *stream { return &stream{p: p, base: base} }

// stamp is the on-time event time of position j; non-decreasing in j.
func (s *stream) stamp(j int64) int64 {
	if s.perMs == 0 {
		return s.base + j
	}
	return s.base + (j/batchSize)*batchSize/s.perMs
}

func (s *stream) at(j int64) model.Tuple {
	i := int(j % int64(len(s.p.keys)))
	return model.Tuple{
		Key:     s.p.keys[i],
		Time:    model.Timestamp(s.stamp(j) - int64(s.p.lateBy[i])),
		Payload: s.p.payloads[i],
	}
}

// fill writes tuples [j, j+len(dst)) into dst.
func (s *stream) fill(dst []model.Tuple, j int64) {
	for k := range dst {
		dst[k] = s.at(j + int64(k))
	}
}

// scan visits every tuple among positions [from, to) that lies inside r.
func (s *stream) scan(from, to int64, r model.Region, fn func(*model.Tuple)) {
	if s.perMs == 0 {
		s.scanEvent(from, to, r, fn)
		return
	}
	// Positions stamped before the window opens or more than lateMaxMs
	// after it closes cannot fall inside it.
	lo := (int64(r.Times.Lo) - s.base) * s.perMs
	lo -= lo % batchSize
	if lo > from {
		from = lo
	}
	if hi := (int64(r.Times.Hi)-s.base+lateMaxMs+1)*s.perMs + batchSize; hi < to {
		to = hi
	}
	for j := from; j < to; j++ {
		t := s.at(j)
		if r.ContainsTuple(&t) {
			fn(&t)
		}
	}
}

// eachEvent is the core of an event-time stream's oracle: it walks only the
// pool entries whose key is in range and solves, for each, which of its
// positions in [from, to) fall inside the time window. fn receives the
// entry's rank in the key index, the first such position and how many there
// are (they are one pool length apart).
func (s *stream) eachEvent(from, to int64, r model.Region, fn func(rank int, first, count int64)) {
	ki := s.p.byKey()
	n := int64(len(ki.idx))
	start := sort.Search(len(ki.keys), func(a int) bool { return ki.keys[a] >= r.Keys.Lo })
	for a := start; a < len(ki.keys) && ki.keys[a] <= r.Keys.Hi; a++ {
		// Position j = idx + w·n has time base + j − lateBy.
		late := int64(ki.lateBy[a])
		lo, hi := int64(r.Times.Lo)-s.base+late, int64(r.Times.Hi)-s.base+late+1
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		first := int64(ki.idx[a])
		if lo > first {
			first += (lo - first + n - 1) / n * n
		}
		if first < hi {
			fn(a, first, (hi-first+n-1)/n)
		}
	}
}

func (s *stream) scanEvent(from, to int64, r model.Region, fn func(*model.Tuple)) {
	n := int64(len(s.p.keys))
	s.eachEvent(from, to, r, func(_ int, first, count int64) {
		for k := int64(0); k < count; k++ {
			t := s.at(first + k*n)
			fn(&t)
		}
	})
}

// countSum is the aggregate oracle of an event-time stream: COUNT and the
// wrapping SUM of the aggregate field over the first n positions inside r,
// without materialising tuples.
func (s *stream) countSum(n int64, r model.Region) (count, sum uint64) {
	field := s.p.byKey().field
	s.eachEvent(0, n, r, func(rank int, _, k int64) {
		count += uint64(k)
		sum += uint64(k) * field[rank]
	})
	return count, sum
}

// digest summarises a tuple set independent of order: count, a wrapping sum
// of per-tuple hashes over key, time and payload, and the wrapping sum of
// the aggregate field (the payload's leading big-endian uint64).
type digest struct {
	Count uint64
	Hash  uint64
	Sum   uint64
}

func (d *digest) add(t *model.Tuple) {
	d.Count++
	d.Hash += tupleHash(t)
	if v, ok := model.PayloadU64Field(t.Payload, 0); ok {
		d.Sum += v
	}
}

func tupleHash(t *model.Tuple) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	mix(uint64(t.Key))
	mix(uint64(t.Time))
	for _, b := range t.Payload {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// oracle computes the digest of the stream's first n tuples inside r.
func (s *stream) oracle(n int64, r model.Region) digest {
	var d digest
	s.scan(0, n, r, d.add)
	return d
}
