package model

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFilterNilAndTrueFalse(t *testing.T) {
	tp := &Tuple{Key: 1, Time: 2}
	var nilF *Filter
	if !nilF.Matches(tp) {
		t.Error("nil filter must match everything")
	}
	if !True().Matches(tp) {
		t.Error("True must match")
	}
	if False().Matches(tp) {
		t.Error("False must not match")
	}
}

func TestFilterKeyAndTimeCmp(t *testing.T) {
	tp := &Tuple{Key: 100, Time: 5000}
	cases := []struct {
		f    *Filter
		want bool
	}{
		{KeyCmp(CmpEQ, 100), true},
		{KeyCmp(CmpEQ, 101), false},
		{KeyCmp(CmpNE, 100), false},
		{KeyCmp(CmpLT, 101), true},
		{KeyCmp(CmpLE, 100), true},
		{KeyCmp(CmpGT, 100), false},
		{KeyCmp(CmpGE, 100), true},
		{TimeCmp(CmpLT, 5001), true},
		{TimeCmp(CmpGT, 5000), false},
		{TimeCmp(CmpGE, 5000), true},
	}
	for i, c := range cases {
		if got := c.f.Matches(tp); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestFilterLogicalOps(t *testing.T) {
	tp := &Tuple{Key: 50}
	yes := KeyCmp(CmpEQ, 50)
	no := KeyCmp(CmpEQ, 51)
	if !And(yes, yes).Matches(tp) || And(yes, no).Matches(tp) {
		t.Error("And wrong")
	}
	if !Or(no, yes).Matches(tp) || Or(no, no).Matches(tp) {
		t.Error("Or wrong")
	}
	if Not(yes).Matches(tp) || !Not(no).Matches(tp) {
		t.Error("Not wrong")
	}
	if !And().Matches(tp) {
		t.Error("empty And must match (vacuous truth)")
	}
	if Or().Matches(tp) {
		t.Error("empty Or must not match")
	}
}

func TestFilterPayload(t *testing.T) {
	payload := make([]byte, 16)
	binary.BigEndian.PutUint64(payload[0:8], 777)
	copy(payload[8:], "deadbeef")
	tp := &Tuple{Payload: payload}

	if !PayloadU64(0, CmpEQ, 777).Matches(tp) {
		t.Error("PayloadU64 equality failed")
	}
	if PayloadU64(0, CmpGT, 777).Matches(tp) {
		t.Error("PayloadU64 GT should fail")
	}
	if PayloadU64(12, CmpEQ, 0).Matches(tp) {
		t.Error("out-of-bounds PayloadU64 must reject")
	}
	if !PayloadBytes(8, CmpEQ, []byte("deadbeef")).Matches(tp) {
		t.Error("PayloadBytes equality failed")
	}
	if !PayloadBytes(8, CmpLT, []byte("zzzz")).Matches(tp) {
		t.Error("PayloadBytes LT failed")
	}
	if PayloadBytes(14, CmpEQ, []byte("longer-than-rest")).Matches(tp) {
		t.Error("out-of-bounds PayloadBytes must reject")
	}
}

func TestFilterKeyMod(t *testing.T) {
	if !KeyMod(10, 3).Matches(&Tuple{Key: 13}) {
		t.Error("13 mod 10 == 3 should match")
	}
	if KeyMod(10, 3).Matches(&Tuple{Key: 14}) {
		t.Error("14 mod 10 != 3 should not match")
	}
	if KeyMod(0, 0).Matches(&Tuple{Key: 14}) {
		t.Error("zero modulus must reject, not divide by zero")
	}
}

func TestFilterEncodeRoundTrip(t *testing.T) {
	f := And(
		KeyCmp(CmpGE, 100),
		Or(TimeCmp(CmpLT, 999), Not(PayloadBytes(4, CmpEQ, []byte("abc"))), TimeWindow(100, 7, 30)),
		KeyMod(7, 2),
		PayloadU64(8, CmpLE, 1<<40),
	)
	buf := AppendFilter(nil, f)
	got, n, err := DecodeFilter(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	// Behavioural equivalence on a spread of tuples.
	for k := uint64(0); k < 300; k += 7 {
		tp := &Tuple{Key: Key(k), Time: Timestamp(k * 13), Payload: []byte("abcdefghijklmnop")}
		if f.Matches(tp) != got.Matches(tp) {
			t.Fatalf("decoded filter disagrees at key %d", k)
		}
	}
}

func TestFilterDecodeGarbage(t *testing.T) {
	if _, _, err := DecodeFilter([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
	// A filter claiming 2^31 children must fail, not OOM.
	f := True()
	buf := AppendFilter(nil, f)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], 1<<31-1)
	if _, _, err := DecodeFilter(buf); err == nil {
		t.Error("absurd child count should fail")
	}
}

func TestFilterEncodeQuick(t *testing.T) {
	// Round-tripped leaf filters must agree with the originals on random tuples.
	f := func(op uint8, cmp uint8, uv uint64, iv int64, key uint64, ts int64) bool {
		leaf := &Filter{
			Op:   FilterOp(op%4) + FilterKeyCmp, // one of the comparison leaves
			Cmp:  CmpOp(cmp % 6),
			Uint: uv,
			Int:  iv,
		}
		dec, _, err := DecodeFilter(AppendFilter(nil, leaf))
		if err != nil {
			return false
		}
		tp := &Tuple{Key: Key(key), Time: Timestamp(ts), Payload: make([]byte, 16)}
		return leaf.Matches(tp) == dec.Matches(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// refusedFilters are filters no server can evaluate: each must fail to
// decode rather than decode into one that matches nothing.
var refusedFilters = []struct {
	name string
	f    *Filter
}{
	{"op beyond the last", &Filter{Op: FilterTimeWindow + 1}},
	{"op 200", &Filter{Op: 200}},
	{"cmp beyond CmpGE", &Filter{Op: FilterKeyCmp, Cmp: CmpGE + 1}},
	{"cmp 99 on a node that ignores it", &Filter{Op: FilterAnd, Cmp: 99}},
	{"not without a child", &Filter{Op: FilterNot}},
	{"not with two children", &Filter{Op: FilterNot, Children: []*Filter{True(), False()}}},
	{"window period beyond MaxInt64", &Filter{Op: FilterTimeWindow, Modulus: math.MaxInt64 + 1, Uint: 1}},
	{"window period MaxUint64", &Filter{Op: FilterTimeWindow, Modulus: math.MaxUint64, Uint: math.MaxUint64}},
	{"refused under And", And(True(), Or(KeyMod(3, 1), &Filter{Op: FilterNot}))},
}

// TestFilterDecodeRefusesWhatItCannotEvaluate: an unknown op or comparison,
// a Not without exactly one child and a window period beyond MaxInt64 fail
// with the typed error, which the query decoders report as ErrBadWire —
// never a filter that silently matches nothing.
func TestFilterDecodeRefusesWhatItCannotEvaluate(t *testing.T) {
	for _, c := range refusedFilters {
		if f, _, err := DecodeFilter(AppendFilter(nil, c.f)); !errors.Is(err, errBadFilter) {
			t.Errorf("%s: decoded %+v, err %v; want %v", c.name, f, err, errBadFilter)
		}
		q := Query{Keys: FullKeyRange(), Times: FullTimeRange(), Filter: c.f}
		if _, err := DecodeQuery(AppendQuery(nil, &q)); !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: query decoded, err %v", c.name, err)
		}
		aq := AggregateQuery{Keys: FullKeyRange(), Times: FullTimeRange(), Filter: c.f}
		if _, err := DecodeAggregateQuery(AppendAggregateQuery(nil, &aq)); !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: aggregate query decoded, err %v", c.name, err)
		}
	}
	// The edges that stay accepted.
	for _, f := range []*Filter{
		{Op: FilterTimeWindow, Modulus: math.MaxInt64, Uint: math.MaxUint64, Int: math.MinInt64},
		{Op: FilterTimeWindow, Cmp: CmpGE},
		Not(Not(TimeWindow(10, -3, 4))),
	} {
		if _, _, err := DecodeFilter(AppendFilter(nil, f)); err != nil {
			t.Errorf("%+v refused: %v", f, err)
		}
	}
}
