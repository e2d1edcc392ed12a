package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire codecs for the client-facing verbs: queries travel to the server and
// results travel back as fixed-width big-endian headers followed by the
// same runs AppendFilter and AppendTuples write. Every Append* grows dst at
// most once, to the exact encoded size; every Decode* rejects short,
// oversized and trailing input with ErrBadWire and allocates in proportion
// to the bytes it was given.

// ErrBadWire reports bytes that are not a whole encoded message.
var ErrBadWire = errors.New("model: malformed wire message")

// Flag bits of the query and result headers.
const (
	wireHasFilter = 1 << iota
	_             // retired (a query's recurrence): refused, and the bits after it keep their values
	wireHasAgg
	wireHasTuples // Result.Tuples is non-nil (it may still be empty)
)

const (
	regionWireSize    = 4 * 8
	aggPartialSize    = 5 * 8
	queryWireFixed    = 8 + regionWireSize + 8 + 1
	aggQueryWireFixed = 8 + regionWireSize + 1 + 4 + 1
	resultWireFixed   = 7*8 + 1
	aggResultWireSize = 8 + 1 + aggPartialSize + 7*8
)

var be = binary.BigEndian

func appendRegion(dst []byte, k KeyRange, t TimeRange) []byte {
	dst = be.AppendUint64(dst, uint64(k.Lo))
	dst = be.AppendUint64(dst, uint64(k.Hi))
	dst = be.AppendUint64(dst, uint64(t.Lo))
	return be.AppendUint64(dst, uint64(t.Hi))
}

func decodeRegion(buf []byte) (KeyRange, TimeRange) {
	return KeyRange{Lo: Key(be.Uint64(buf)), Hi: Key(be.Uint64(buf[8:]))},
		TimeRange{Lo: Timestamp(be.Uint64(buf[16:])), Hi: Timestamp(be.Uint64(buf[24:]))}
}

func appendAggPartial(dst []byte, a *AggPartial) []byte {
	for _, v := range [...]uint64{a.Count, a.Values, a.Sum, a.Min, a.Max} {
		dst = be.AppendUint64(dst, v)
	}
	return dst
}

func decodeAggPartial(buf []byte) AggPartial {
	return AggPartial{
		Count: be.Uint64(buf), Values: be.Uint64(buf[8:]), Sum: be.Uint64(buf[16:]),
		Min: be.Uint64(buf[24:]), Max: be.Uint64(buf[32:]),
	}
}

// appendInts appends each int as a big-endian int64.
func appendInts(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = be.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodeInt(buf []byte) int { return int(int64(be.Uint64(buf))) }

// decodeOptFilter decodes the filter a header flagged as present; it must
// end the message.
func decodeOptFilter(buf []byte, present bool) (*Filter, error) {
	if !present {
		if len(buf) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(buf))
		}
		return nil, nil
	}
	f, n, err := DecodeFilter(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadWire, err)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(buf)-n)
	}
	return f, nil
}

// AppendQuery appends the wire form of q:
//
//	[u64 ID][u64 Keys.Lo][u64 Keys.Hi][i64 Times.Lo][i64 Times.Hi][i64 Limit]
//	[u8 flags][Filter, if flagged]
func AppendQuery(dst []byte, q *Query) []byte {
	var flags byte
	if q.Filter != nil {
		flags |= wireHasFilter
	}
	dst = be.AppendUint64(dst, q.ID)
	dst = appendRegion(dst, q.Keys, q.Times)
	dst = be.AppendUint64(dst, uint64(q.Limit))
	dst = append(dst, flags)
	if q.Filter != nil {
		dst = AppendFilter(dst, q.Filter)
	}
	return dst
}

// DecodeQuery decodes a whole AppendQuery message.
func DecodeQuery(buf []byte) (Query, error) {
	if len(buf) < queryWireFixed {
		return Query{}, fmt.Errorf("%w: query of %d bytes", ErrBadWire, len(buf))
	}
	q := Query{ID: be.Uint64(buf), Limit: decodeInt(buf[8+regionWireSize:])}
	q.Keys, q.Times = decodeRegion(buf[8:])
	flags := buf[queryWireFixed-1]
	buf = buf[queryWireFixed:]
	if flags&^wireHasFilter != 0 {
		return Query{}, fmt.Errorf("%w: query flags %#x", ErrBadWire, flags)
	}
	var err error
	q.Filter, err = decodeOptFilter(buf, flags&wireHasFilter != 0)
	return q, err
}

// AppendAggregateQuery appends the wire form of q:
//
//	[u64 ID][u64 Keys.Lo][u64 Keys.Hi][i64 Times.Lo][i64 Times.Hi]
//	[u8 Kind][u32 Field][u8 flags][Filter, if flagged]
func AppendAggregateQuery(dst []byte, q *AggregateQuery) []byte {
	var flags byte
	if q.Filter != nil {
		flags |= wireHasFilter
	}
	dst = be.AppendUint64(dst, q.ID)
	dst = appendRegion(dst, q.Keys, q.Times)
	dst = append(dst, byte(q.Kind))
	dst = be.AppendUint32(dst, q.Field)
	dst = append(dst, flags)
	if q.Filter != nil {
		dst = AppendFilter(dst, q.Filter)
	}
	return dst
}

// DecodeAggregateQuery decodes a whole AppendAggregateQuery message.
func DecodeAggregateQuery(buf []byte) (AggregateQuery, error) {
	if len(buf) < aggQueryWireFixed {
		return AggregateQuery{}, fmt.Errorf("%w: aggregate query of %d bytes", ErrBadWire, len(buf))
	}
	q := AggregateQuery{ID: be.Uint64(buf)}
	q.Keys, q.Times = decodeRegion(buf[8:])
	tail := buf[8+regionWireSize:]
	q.Kind, q.Field = AggKind(tail[0]), be.Uint32(tail[1:])
	flags := tail[5]
	if flags&^wireHasFilter != 0 {
		return AggregateQuery{}, fmt.Errorf("%w: aggregate query flags %#x", ErrBadWire, flags)
	}
	var err error
	q.Filter, err = decodeOptFilter(buf[aggQueryWireFixed:], flags&wireHasFilter != 0)
	return q, err
}

// resultHeaderSize is the number of bytes of r's wire form before its
// tuples.
func resultHeaderSize(r *Result) int {
	if r.Agg != nil {
		return resultWireFixed + aggPartialSize + 4
	}
	return resultWireFixed + 4
}

// appendResultHeader appends r's wire form up to its tuples, with n as the
// tuple count and hasTuples as the flag.
func appendResultHeader(dst []byte, r *Result, n int, hasTuples bool) []byte {
	var flags byte
	if r.Agg != nil {
		flags |= wireHasAgg
	}
	if hasTuples {
		flags |= wireHasTuples
	}
	dst = be.AppendUint64(dst, r.QueryID)
	dst = appendInts(dst, int64(r.SubQueries), int64(r.LeavesRead), int64(r.LeavesSkipped),
		r.BytesRead, int64(r.CacheHits), int64(r.AggPushdown))
	dst = append(dst, flags)
	if r.Agg != nil {
		dst = appendAggPartial(dst, r.Agg)
	}
	return be.AppendUint32(dst, uint32(n))
}

// AppendMergedResult appends the wire form of r whose tuples are the k-way
// merge of runs cut at limit, and returns dst with the number of tuples
// merged:
//
//	[u64 QueryID][i64 SubQueries][i64 LeavesRead][i64 LeavesSkipped]
//	[i64 BytesRead][i64 CacheHits][i64 AggPushdown][u8 flags]
//	[Agg: 5×u64, if flagged][u32 tuple count][tuples, as AppendTuples]
//
// The has-tuples flag is set when the merge holds a tuple; r.Tuples is
// ignored. The header goes first with a zero count, MergeRuns appends
// straight behind it, and the count and the flag are filled in after: the
// result is encoded once, into a buffer grown once, and no Tuple is built
// for it.
func AppendMergedResult(dst []byte, r *Result, runs []Run, limit int) ([]byte, int) {
	at := len(dst)
	dst = appendResultHeader(slices.Grow(dst, resultHeaderSize(r)+mergedSize(runs, limit)), r, 0, false)
	countAt := len(dst) - 4
	dst, n := MergeRuns(dst, runs, limit)
	if n > 0 {
		dst[at+resultWireFixed-1] |= wireHasTuples
		be.PutUint32(dst[countAt:], uint32(n))
	}
	return dst, n
}

// DecodeResult decodes a whole AppendMergedResult message. The tuples come
// back in one slice whose payloads alias buf: the result owns buf from here
// on.
func DecodeResult(buf []byte) (*Result, error) {
	if len(buf) < resultWireFixed+4 {
		return nil, fmt.Errorf("%w: result of %d bytes", ErrBadWire, len(buf))
	}
	r := &Result{
		QueryID:       be.Uint64(buf),
		SubQueries:    decodeInt(buf[8:]),
		LeavesRead:    decodeInt(buf[16:]),
		LeavesSkipped: decodeInt(buf[24:]),
		BytesRead:     int64(be.Uint64(buf[32:])),
		CacheHits:     decodeInt(buf[40:]),
		AggPushdown:   decodeInt(buf[48:]),
	}
	flags := buf[resultWireFixed-1]
	buf = buf[resultWireFixed:]
	if flags&^(wireHasAgg|wireHasTuples) != 0 {
		return nil, fmt.Errorf("%w: result flags %#x", ErrBadWire, flags)
	}
	if flags&wireHasAgg != 0 {
		if len(buf) < aggPartialSize+4 {
			return nil, fmt.Errorf("%w: short aggregate partial", ErrBadWire)
		}
		agg := decodeAggPartial(buf)
		r.Agg, buf = &agg, buf[aggPartialSize:]
	}
	n := int(be.Uint32(buf))
	buf = buf[4:]
	// Every tuple takes at least its header, so a count the bytes cannot
	// hold is refused before anything is allocated for it.
	if n > len(buf)/tupleHeaderSize || (n > 0 && flags&wireHasTuples == 0) {
		return nil, fmt.Errorf("%w: %d tuples in %d bytes", ErrBadWire, n, len(buf))
	}
	if flags&wireHasTuples != 0 {
		ts, err := DecodeTuplesInto(make([]Tuple, 0, n), buf)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadWire, err)
		}
		if len(ts) != n {
			return nil, fmt.Errorf("%w: header counts %d tuples, body holds %d", ErrBadWire, n, len(ts))
		}
		r.Tuples = ts
	} else if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(buf))
	}
	return r, nil
}

// AppendAggResult appends the fixed-size wire form of r:
//
//	[u64 QueryID][u8 Kind][u64 Count][u64 Values][u64 Sum][u64 Min][u64 Max]
//	[i64 SubQueries][i64 MetaChunks][i64 PushdownLeaves][i64 LeavesRead]
//	[i64 LeavesSkipped][i64 BytesRead][i64 CacheHits]
func AppendAggResult(dst []byte, r *AggResult) []byte {
	dst = slices.Grow(dst, aggResultWireSize)
	dst = be.AppendUint64(dst, r.QueryID)
	dst = append(dst, byte(r.Kind))
	dst = appendAggPartial(dst, &r.AggPartial)
	return appendInts(dst, int64(r.SubQueries), int64(r.MetaChunks), int64(r.PushdownLeaves),
		int64(r.LeavesRead), int64(r.LeavesSkipped), r.BytesRead, int64(r.CacheHits))
}

// DecodeAggResult decodes a whole AppendAggResult message.
func DecodeAggResult(buf []byte) (*AggResult, error) {
	if len(buf) != aggResultWireSize {
		return nil, fmt.Errorf("%w: aggregate result of %d bytes, want %d", ErrBadWire, len(buf), aggResultWireSize)
	}
	c := buf[9+aggPartialSize:]
	return &AggResult{
		QueryID:        be.Uint64(buf),
		Kind:           AggKind(buf[8]),
		AggPartial:     decodeAggPartial(buf[9:]),
		SubQueries:     decodeInt(c),
		MetaChunks:     decodeInt(c[8:]),
		PushdownLeaves: decodeInt(c[16:]),
		LeavesRead:     decodeInt(c[24:]),
		LeavesSkipped:  decodeInt(c[32:]),
		BytesRead:      int64(be.Uint64(c[40:])),
		CacheHits:      decodeInt(c[48:]),
	}, nil
}
