package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The paper's query model includes a user-defined predicate fq that decides
// whether a tuple within the query region qualifies (§II-A). Because
// subqueries execute on remote indexing/query servers, the predicate must
// travel over the wire; Go closures cannot. Filter is a small serializable
// expression tree over the tuple's key, timestamp and payload bytes that
// plays the role of fq.

// FilterOp identifies a filter node kind.
type FilterOp uint8

// Filter node kinds.
const (
	// FilterTrue accepts every tuple. A nil *Filter is treated as FilterTrue.
	FilterTrue FilterOp = iota
	// FilterFalse rejects every tuple.
	FilterFalse
	// FilterAnd accepts iff all children accept.
	FilterAnd
	// FilterOr accepts iff any child accepts.
	FilterOr
	// FilterNot accepts iff its single child rejects.
	FilterNot
	// FilterKeyCmp compares the tuple key against Uint using Cmp.
	FilterKeyCmp
	// FilterTimeCmp compares the tuple timestamp against Int using Cmp.
	FilterTimeCmp
	// FilterPayloadU64 decodes a big-endian uint64 at payload offset Offset
	// and compares it against Uint using Cmp. Tuples with short payloads are
	// rejected.
	FilterPayloadU64
	// FilterPayloadBytes compares payload[Offset:Offset+len(Bytes)] against
	// Bytes using Cmp (lexicographic). Short payloads are rejected.
	FilterPayloadBytes
	// FilterKeyMod accepts tuples whose key ≡ Uint (mod Modulus). Useful for
	// sampling predicates in tests and workloads.
	FilterKeyMod
	// FilterTimeWindow accepts tuples whose timestamp falls inside a
	// repeating window — "between 09:00 and 17:00 daily": window k is
	// [k·Modulus+Int, k·Modulus+Int+Uint) for every integer k, in
	// milliseconds. A window may run past the end of its period, a length
	// (Uint) of at least the period (Modulus) matches every timestamp, and
	// a zero period or length matches none. Built by TimeWindow.
	FilterTimeWindow
)

// CmpOp is a comparison operator used by leaf filter nodes.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) evalInt(a, b int64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

func (c CmpOp) evalUint(a, b uint64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

func (c CmpOp) evalOrd(ord int) bool {
	switch c {
	case CmpEQ:
		return ord == 0
	case CmpNE:
		return ord != 0
	case CmpLT:
		return ord < 0
	case CmpLE:
		return ord <= 0
	case CmpGT:
		return ord > 0
	case CmpGE:
		return ord >= 0
	}
	return false
}

// Filter is a serializable predicate over tuples. The zero value (and nil)
// accepts everything.
type Filter struct {
	Op       FilterOp
	Cmp      CmpOp
	Uint     uint64
	Int      int64
	Modulus  uint64
	Offset   uint32
	Bytes    []byte
	Children []*Filter
}

// Matches evaluates the filter against t. A nil filter matches everything.
func (f *Filter) Matches(t *Tuple) bool {
	return f.MatchesCols(t.Key, t.Time, t.Payload)
}

// MatchesCols evaluates the filter against a tuple given as its three
// columns, so columnar scan paths (SoA leaves, chunk columns) can apply
// predicates without materializing a Tuple. A nil filter matches
// everything. The payload is read but never retained.
func (f *Filter) MatchesCols(key Key, ts Timestamp, payload []byte) bool {
	if f == nil {
		return true
	}
	switch f.Op {
	case FilterTrue:
		return true
	case FilterFalse:
		return false
	case FilterAnd:
		for _, c := range f.Children {
			if !c.MatchesCols(key, ts, payload) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, c := range f.Children {
			if c.MatchesCols(key, ts, payload) {
				return true
			}
		}
		return false
	case FilterNot:
		if len(f.Children) != 1 {
			return false
		}
		return !f.Children[0].MatchesCols(key, ts, payload)
	case FilterKeyCmp:
		return f.Cmp.evalUint(uint64(key), f.Uint)
	case FilterTimeCmp:
		return f.Cmp.evalInt(int64(ts), f.Int)
	case FilterPayloadU64:
		end := int(f.Offset) + 8
		if end > len(payload) {
			return false
		}
		v := binary.BigEndian.Uint64(payload[f.Offset:end])
		return f.Cmp.evalUint(v, f.Uint)
	case FilterPayloadBytes:
		end := int(f.Offset) + len(f.Bytes)
		if end > len(payload) {
			return false
		}
		return f.Cmp.evalOrd(bytes.Compare(payload[f.Offset:end], f.Bytes))
	case FilterKeyMod:
		if f.Modulus == 0 {
			return false
		}
		return uint64(key)%f.Modulus == f.Uint
	case FilterTimeWindow:
		p, ok := f.windowPeriod()
		return ok && uint64(windowPhase(ts, f.Int, p)) < f.Uint
	}
	return false
}

// MayMatchTimes reports whether a tuple stamped inside tr may pass the
// filter, so that a planner can skip a chunk's part of a query when it
// answers false. It is exact for a FilterTimeWindow node — whether some
// instant of tr lies in a window, in O(1) however many periods tr spans —
// holds an And to all its children and an Or to any, and answers true for
// every other node and for nil.
func (f *Filter) MayMatchTimes(tr TimeRange) bool {
	if f == nil {
		return true
	}
	switch f.Op {
	case FilterAnd:
		for _, c := range f.Children {
			if !c.MayMatchTimes(tr) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, c := range f.Children {
			if c.MayMatchTimes(tr) {
				return true
			}
		}
		return false
	case FilterTimeWindow:
		p, ok := f.windowPeriod()
		if !ok || tr.Lo > tr.Hi {
			return false
		}
		off := windowPhase(tr.Lo, f.Int, p)
		if uint64(off) < f.Uint {
			return true
		}
		// tr.Lo lies in a gap; the next window starts p−off later. The
		// difference is taken unsigned, so [MinInt64, MaxInt64] does not wrap.
		return uint64(tr.Hi)-uint64(tr.Lo) >= uint64(p-off)
	}
	return true
}

// windowPeriod returns a FilterTimeWindow node's period, and false when the
// node has no windows: a zero length, or a period of zero or beyond
// MaxInt64 (which the decoder refuses).
func (f *Filter) windowPeriod() (int64, bool) {
	return int64(f.Modulus), f.Uint != 0 && f.Modulus != 0 && f.Modulus <= math.MaxInt64
}

// windowPhase returns how far ts lies past the start of the latest window
// starting at or before it, floorMod(ts−start, p), without overflowing for
// any ts or start. p must be positive.
func windowPhase(ts Timestamp, start, p int64) int64 {
	d := floorMod(int64(ts), p) - floorMod(start, p) // in (−p, p)
	if d < 0 {
		d += p
	}
	return d
}

// floorMod is a modulo p rounded toward negative infinity, in [0, p) for
// a positive p.
func floorMod(a, p int64) int64 {
	m := a % p
	if m < 0 {
		m += p
	}
	return m
}

// Constructors for common filter shapes.

// True returns a filter accepting every tuple.
func True() *Filter { return &Filter{Op: FilterTrue} }

// False returns a filter rejecting every tuple.
func False() *Filter { return &Filter{Op: FilterFalse} }

// And combines filters conjunctively.
func And(fs ...*Filter) *Filter { return &Filter{Op: FilterAnd, Children: fs} }

// Or combines filters disjunctively.
func Or(fs ...*Filter) *Filter { return &Filter{Op: FilterOr, Children: fs} }

// Not negates a filter.
func Not(f *Filter) *Filter { return &Filter{Op: FilterNot, Children: []*Filter{f}} }

// KeyCmp compares the tuple key against v.
func KeyCmp(op CmpOp, v Key) *Filter {
	return &Filter{Op: FilterKeyCmp, Cmp: op, Uint: uint64(v)}
}

// TimeCmp compares the tuple timestamp against v.
func TimeCmp(op CmpOp, v Timestamp) *Filter {
	return &Filter{Op: FilterTimeCmp, Cmp: op, Int: int64(v)}
}

// PayloadU64 compares a big-endian uint64 at the given payload offset.
func PayloadU64(offset uint32, op CmpOp, v uint64) *Filter {
	return &Filter{Op: FilterPayloadU64, Cmp: op, Offset: offset, Uint: v}
}

// PayloadBytes compares payload bytes at the given offset against b.
func PayloadBytes(offset uint32, op CmpOp, b []byte) *Filter {
	return &Filter{Op: FilterPayloadBytes, Cmp: op, Offset: offset, Bytes: b}
}

// KeyMod accepts tuples whose key ≡ rem (mod modulus).
func KeyMod(modulus, rem uint64) *Filter {
	return &Filter{Op: FilterKeyMod, Modulus: modulus, Uint: rem}
}

// TimeWindow builds a FilterTimeWindow node; a period or length of zero or
// less matches nothing.
func TimeWindow(period, start, length int64) *Filter {
	if period <= 0 || length <= 0 {
		period, length = 0, 0
	}
	return &Filter{Op: FilterTimeWindow, Modulus: uint64(period), Int: start, Uint: uint64(length)}
}

// errBadFilter reports a malformed encoded filter.
var errBadFilter = errors.New("model: malformed encoded filter")

// maxFilterDepth bounds decoding recursion to reject hostile input.
const maxFilterDepth = 64

// AppendFilter appends a compact binary encoding of f to dst. A nil filter
// encodes as FilterTrue.
func AppendFilter(dst []byte, f *Filter) []byte {
	if f == nil {
		f = True()
	}
	dst = append(dst, byte(f.Op), byte(f.Cmp))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], f.Uint)
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(f.Int))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], f.Modulus)
	dst = append(dst, tmp[:]...)
	var tmp4 [4]byte
	binary.BigEndian.PutUint32(tmp4[:], f.Offset)
	dst = append(dst, tmp4[:]...)
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(f.Bytes)))
	dst = append(dst, tmp4[:]...)
	dst = append(dst, f.Bytes...)
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(f.Children)))
	dst = append(dst, tmp4[:]...)
	for _, c := range f.Children {
		dst = AppendFilter(dst, c)
	}
	return dst
}

// DecodeFilter decodes a filter from the front of buf, returning the filter
// and bytes consumed. A node it could not evaluate — an unknown op or
// comparison, a Not without exactly one child, a window period beyond
// MaxInt64 — is refused, not decoded into a filter that matches nothing.
func DecodeFilter(buf []byte) (*Filter, int, error) {
	return decodeFilterDepth(buf, 0)
}

func decodeFilterDepth(buf []byte, depth int) (*Filter, int, error) {
	if depth > maxFilterDepth {
		return nil, 0, fmt.Errorf("%w: nesting too deep", errBadFilter)
	}
	const fixed = 2 + 8 + 8 + 8 + 4 + 4
	if len(buf) < fixed {
		return nil, 0, errBadFilter
	}
	f := &Filter{
		Op:      FilterOp(buf[0]),
		Cmp:     CmpOp(buf[1]),
		Uint:    binary.BigEndian.Uint64(buf[2:10]),
		Int:     int64(binary.BigEndian.Uint64(buf[10:18])),
		Modulus: binary.BigEndian.Uint64(buf[18:26]),
		Offset:  binary.BigEndian.Uint32(buf[26:30]),
	}
	switch {
	case f.Op > FilterTimeWindow:
		return nil, 0, fmt.Errorf("%w: unknown op %d", errBadFilter, f.Op)
	case f.Cmp > CmpGE:
		return nil, 0, fmt.Errorf("%w: unknown comparison %d", errBadFilter, f.Cmp)
	case f.Op == FilterTimeWindow && f.Modulus > math.MaxInt64:
		return nil, 0, fmt.Errorf("%w: window period %d", errBadFilter, f.Modulus)
	}
	blen := int(binary.BigEndian.Uint32(buf[30:34]))
	pos := fixed
	if blen > 0 {
		if len(buf) < pos+blen {
			return nil, 0, errBadFilter
		}
		f.Bytes = append([]byte(nil), buf[pos:pos+blen]...)
		pos += blen
	}
	if len(buf) < pos+4 {
		return nil, 0, errBadFilter
	}
	nkids := int(binary.BigEndian.Uint32(buf[pos : pos+4]))
	pos += 4
	if nkids > len(buf) { // cheap sanity bound: each child needs ≥1 byte
		return nil, 0, errBadFilter
	}
	if f.Op == FilterNot && nkids != 1 {
		return nil, 0, fmt.Errorf("%w: not with %d children", errBadFilter, nkids)
	}
	for i := 0; i < nkids; i++ {
		c, n, err := decodeFilterDepth(buf[pos:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		f.Children = append(f.Children, c)
		pos += n
	}
	return f, pos, nil
}
