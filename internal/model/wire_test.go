package model

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randFilter builds a random filter tree the decoder accepts, in
// canonical form (nil, never empty, Bytes and Children): the form a decoded
// filter has.
func randFilter(rng *rand.Rand, depth int) *Filter {
	f := &Filter{
		Op: FilterOp(rng.Intn(int(FilterTimeWindow) + 1)), Cmp: CmpOp(rng.Intn(int(CmpGE) + 1)),
		Uint: rng.Uint64(), Int: rng.Int63() - rng.Int63(), Modulus: rng.Uint64(), Offset: rng.Uint32(),
	}
	if f.Op == FilterTimeWindow {
		f.Modulus >>= 1 + rng.Intn(63) // a period of at most MaxInt64
	}
	if rng.Intn(3) == 0 {
		f.Bytes = make([]byte, 1+rng.Intn(12))
		rng.Read(f.Bytes)
	}
	kids := 0
	if depth > 0 {
		kids = rng.Intn(4)
	}
	if f.Op == FilterNot {
		kids = 1
	}
	for ; kids > 0; kids-- {
		f.Children = append(f.Children, randFilter(rng, depth-1))
	}
	return f
}

// edge draws from the values time-bound arithmetic goes wrong at.
func edge(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt64
	case 1:
		return math.MinInt64
	case 2:
		return 0
	case 3:
		return -1
	}
	return rng.Int63() - rng.Int63()
}

func randQuery(rng *rand.Rand) Query {
	// Bounds are independent draws, so about half the ranges are inverted.
	q := Query{
		ID:    rng.Uint64(),
		Keys:  KeyRange{Lo: Key(edge(rng)), Hi: Key(edge(rng))},
		Times: TimeRange{Lo: Timestamp(edge(rng)), Hi: Timestamp(edge(rng))},
	}
	if rng.Intn(2) == 0 {
		q.Limit = int(edge(rng))
	}
	if rng.Intn(2) == 0 {
		q.Filter = randFilter(rng, rng.Intn(4))
	}
	return q
}

func randTuples(rng *rand.Rand, n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Key: Key(rng.Uint64()), Time: Timestamp(edge(rng))}
		switch rng.Intn(4) {
		case 0: // nil payload
		case 1:
			ts[i].Payload = []byte{}
		default:
			ts[i].Payload = make([]byte, 1+rng.Intn(40))
			rng.Read(ts[i].Payload)
		}
	}
	return ts
}

func randResult(rng *rand.Rand, n int) *Result {
	r := &Result{
		QueryID: rng.Uint64(), SubQueries: int(edge(rng)), LeavesRead: rng.Int(), LeavesSkipped: rng.Int(),
		BytesRead: edge(rng), CacheHits: rng.Int(), AggPushdown: rng.Int(),
	}
	if n >= 0 {
		r.Tuples = randTuples(rng, n)
	}
	if rng.Intn(3) == 0 {
		r.Agg = &AggPartial{Count: rng.Uint64(), Values: rng.Uint64(), Sum: rng.Uint64(), Min: rng.Uint64(), Max: rng.Uint64()}
	}
	return r
}

// sameResult is DeepEqual except that a nil and an empty payload, which
// the tuple encoding does not tell apart, are equal.
func sameResult(a, b *Result) bool {
	if len(a.Tuples) != len(b.Tuples) || (a.Tuples == nil) != (b.Tuples == nil) {
		return false
	}
	for i := range a.Tuples {
		x, y := &a.Tuples[i], &b.Tuples[i]
		if x.Key != y.Key || x.Time != y.Time || !bytes.Equal(x.Payload, y.Payload) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Tuples, bc.Tuples = nil, nil
	return reflect.DeepEqual(&ac, &bc)
}

func TestQueryWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		q := randQuery(rng)
		enc := AppendQuery(nil, &q)
		got, err := DecodeQuery(enc)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("query %d:\n got  %+v\n want %+v", i, got, q)
		}
		if again := AppendQuery(nil, &got); !bytes.Equal(again, enc) {
			t.Fatalf("query %d re-encodes differently", i)
		}
		// A prefix already in dst is kept.
		if pre := AppendQuery([]byte("xy"), &q); !bytes.Equal(pre[2:], enc) || string(pre[:2]) != "xy" {
			t.Fatalf("query %d: AppendQuery clobbered dst", i)
		}
	}
}

func TestAggregateWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		base := randQuery(rng)
		q := AggregateQuery{ID: base.ID, Keys: base.Keys, Times: base.Times, Filter: base.Filter,
			Kind: AggKind(rng.Intn(256)), Field: rng.Uint32()}
		got, err := DecodeAggregateQuery(AppendAggregateQuery(nil, &q))
		if err != nil || !reflect.DeepEqual(got, q) {
			t.Fatalf("aggregate query %d: %+v, %v, want %+v", i, got, err, q)
		}
		r := &AggResult{
			QueryID: rng.Uint64(), Kind: AggKind(rng.Intn(256)),
			AggPartial: AggPartial{Count: rng.Uint64(), Values: rng.Uint64(), Sum: rng.Uint64(), Min: rng.Uint64(), Max: rng.Uint64()},
			SubQueries: int(edge(rng)), MetaChunks: rng.Int(), PushdownLeaves: rng.Int(), LeavesRead: rng.Int(),
			LeavesSkipped: rng.Int(), BytesRead: edge(rng), CacheHits: rng.Int(),
		}
		enc := AppendAggResult(nil, r)
		gotR, err := DecodeAggResult(enc)
		if err != nil || !reflect.DeepEqual(gotR, r) {
			t.Fatalf("aggregate result %d: %+v, %v, want %+v", i, gotR, err, r)
		}
		if _, err := DecodeAggResult(enc[:len(enc)-1]); !errors.Is(err, ErrBadWire) {
			t.Fatalf("short aggregate result: %v", err)
		}
		if _, err := DecodeAggResult(append(enc, 0)); !errors.Is(err, ErrBadWire) {
			t.Fatalf("long aggregate result: %v", err)
		}
	}
}

func TestResultWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{-1, 0, 1, 2, 150, 1500, 20_000} // -1: nil Tuples
	for i := 0; i < 60; i++ {
		sizes = append(sizes, rng.Intn(300))
	}
	for _, n := range sizes {
		r := randResult(rng, n)
		enc := AppendResult(nil, r)
		size := resultHeaderSize(r)
		for i := range r.Tuples {
			size += EncodedSize(&r.Tuples[i])
		}
		if len(enc) != size {
			t.Fatalf("n=%d: encoded %d bytes, sized %d", n, len(enc), size)
		}
		got, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sameResult(got, r) {
			t.Fatalf("n=%d: result did not round-trip", n)
		}
		if again := AppendResult(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("n=%d: re-encodes differently", n)
		}
		if cap(got.Tuples) != len(got.Tuples) {
			t.Errorf("n=%d: tuple slice cap %d for %d tuples", n, cap(got.Tuples), len(got.Tuples))
		}
		// Payloads are capped, so an append cannot reach the next tuple, and
		// alias the message: there is no copy per tuple.
		for j := range got.Tuples {
			if p := got.Tuples[j].Payload; cap(p) != len(p) {
				t.Fatalf("n=%d: payload %d has cap %d > len %d", n, j, cap(p), len(p))
			}
		}
		if k := len(got.Tuples); k > 0 && len(got.Tuples[k-1].Payload) > 0 {
			last := got.Tuples[k-1].Payload
			enc[len(enc)-1] ^= 0xFF
			if last[len(last)-1] != enc[len(enc)-1] {
				t.Fatalf("n=%d: payloads do not alias the message", n)
			}
		}
	}
}

func TestResultWireRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randResult(rng, 5)
	r.Agg = &AggPartial{Count: 1}
	enc := AppendResult(nil, r)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeResult(enc[:cut]); !errors.Is(err, ErrBadWire) {
			t.Fatalf("prefix of %d/%d bytes: err = %v", cut, len(enc), err)
		}
	}
	if _, err := DecodeResult(append(bytes.Clone(enc), 0)); !errors.Is(err, ErrBadWire) {
		t.Fatalf("trailing byte: %v", err)
	}
	// A count the body cannot hold is refused before it is allocated.
	huge := bytes.Clone(enc)
	be.PutUint32(huge[resultWireFixed+aggPartialSize:], math.MaxUint32)
	if _, err := DecodeResult(huge); !errors.Is(err, ErrBadWire) {
		t.Fatalf("inflated count: %v", err)
	}
	flags := bytes.Clone(enc)
	flags[resultWireFixed-1] |= 0x80
	if _, err := DecodeResult(flags); !errors.Is(err, ErrBadWire) {
		t.Fatalf("unknown flag: %v", err)
	}

	q := randQuery(rng)
	q.Filter = randFilter(rng, 2)
	qenc := AppendQuery(nil, &q)
	for cut := 0; cut < len(qenc); cut++ {
		if _, err := DecodeQuery(qenc[:cut]); !errors.Is(err, ErrBadWire) {
			t.Fatalf("query prefix of %d/%d bytes: err = %v", cut, len(qenc), err)
		}
	}
	if _, err := DecodeQuery(append(qenc, 0)); !errors.Is(err, ErrBadWire) {
		t.Fatalf("query trailing byte: %v", err)
	}
	// Flag bit 2 carried a query's recurrence until the window became a
	// filter op: a frame that sets it is refused, with or without the 24
	// bytes it announced, and the flags around it keep their bits.
	if wireHasFilter != 1 || wireHasAgg != 4 || wireHasTuples != 8 {
		t.Fatalf("flag bits moved: filter %d, agg %d, tuples %d", wireHasFilter, wireHasAgg, wireHasTuples)
	}
	for _, tail := range [][]byte{nil, appendInts(nil, 1000, 0, 10)} {
		enc := bytes.Clone(qenc)
		enc[queryWireFixed-1] |= 2
		enc = append(enc[:queryWireFixed], append(tail, enc[queryWireFixed:]...)...)
		if _, err := DecodeQuery(enc); !errors.Is(err, ErrBadWire) {
			t.Fatalf("recurrence-flagged query with %d tail bytes: err = %v", len(tail), err)
		}
	}
}

func countFilters(f *Filter) int {
	if f == nil {
		return 0
	}
	n := 1
	for _, c := range f.Children {
		n += countFilters(c)
	}
	return n
}

// FuzzDecodeQuery: bytes from a socket either fail with ErrBadWire or are
// a query that re-encodes to exactly those bytes, and what decoding builds
// is bounded by the input's length.
func FuzzDecodeQuery(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		q := randQuery(rng)
		f.Add(AppendQuery(nil, &q))
	}
	day, hour := int64(86_400_000), int64(3_600_000)
	window := TimeWindow(day, 9*hour, 8*hour)
	seeds := []*Filter{
		window,
		And(window, KeyMod(3, 1)),
		Or(TimeCmp(CmpLT, 0), window),
		Not(window),
		TimeWindow(math.MaxInt64, math.MinInt64, math.MaxInt64),
	}
	for _, c := range refusedFilters {
		seeds = append(seeds, c.f)
	}
	for _, fl := range seeds {
		q := Query{Keys: FullKeyRange(), Times: FullTimeRange(), Limit: 10, Filter: fl}
		f.Add(AppendQuery(nil, &q))
	}
	// A frame carrying the retired recurrence flag and its 24 bytes.
	old := AppendQuery(nil, &Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	old[queryWireFixed-1] |= 2
	f.Add(appendInts(old, day, 9*hour, 8*hour))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		q, err := DecodeQuery(in)
		if err != nil {
			if !errors.Is(err, ErrBadWire) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if out := AppendQuery(nil, &q); !bytes.Equal(out, in) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", in, out)
		}
		// Every filter node takes 38 encoded bytes or more.
		if n := countFilters(q.Filter); n*38 > len(in) {
			t.Fatalf("%d filter nodes from %d bytes", n, len(in))
		}
		// What decodes evaluates, and a tuple it accepts at t is one the
		// planner may not prune a range holding t for.
		for _, ts := range []Timestamp{q.Times.Lo, q.Times.Hi} {
			if q.Filter.MatchesCols(q.Keys.Lo, ts, nil) && !q.Filter.MayMatchTimes(TimeRange{Lo: ts, Hi: ts}) {
				t.Fatalf("%+v matches at %d but MayMatchTimes says no", q.Filter, ts)
			}
		}
		q.Filter.MayMatchTimes(q.Times)
	})
}

func FuzzDecodeResult(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{-1, 0, 1, 7, 100} {
		f.Add(AppendResult(nil, randResult(rng, n)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := DecodeResult(in)
		if err != nil {
			if !errors.Is(err, ErrBadWire) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if out := AppendResult(nil, r); !bytes.Equal(out, in) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", in, out)
		}
		// The tuple slice is the one allocation that scales: 40 B a tuple
		// against at least 20 encoded bytes each.
		if cap(r.Tuples)*tupleHeaderSize > len(in) {
			t.Fatalf("%d tuple slots from %d bytes", cap(r.Tuples), len(in))
		}
	})
}
