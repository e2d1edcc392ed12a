package waterwheel

import "waterwheel/internal/model"

// CmpOp is a comparison operator for filter predicates.
type CmpOp = model.CmpOp

// Comparison operators for filters.
const (
	EQ = model.CmpEQ
	NE = model.CmpNE
	LT = model.CmpLT
	LE = model.CmpLE
	GT = model.CmpGT
	GE = model.CmpGE
)

// FilterTrue accepts every tuple (also what a nil filter does).
func FilterTrue() *Filter { return model.True() }

// FilterFalse rejects every tuple.
func FilterFalse() *Filter { return model.False() }

// And combines filters conjunctively.
func And(fs ...*Filter) *Filter { return model.And(fs...) }

// Or combines filters disjunctively.
func Or(fs ...*Filter) *Filter { return model.Or(fs...) }

// Not negates a filter.
func Not(f *Filter) *Filter { return model.Not(f) }

// KeyCmp compares the tuple key against v.
func KeyCmp(op CmpOp, v Key) *Filter { return model.KeyCmp(op, v) }

// TimeCmp compares the tuple timestamp against v.
func TimeCmp(op CmpOp, v Timestamp) *Filter { return model.TimeCmp(op, v) }

// PayloadU64 compares the big-endian uint64 at the given payload offset.
func PayloadU64(offset uint32, op CmpOp, v uint64) *Filter {
	return model.PayloadU64(offset, op, v)
}

// PayloadBytes compares payload bytes at the given offset against b.
func PayloadBytes(offset uint32, op CmpOp, b []byte) *Filter {
	return model.PayloadBytes(offset, op, b)
}

// KeyMod accepts tuples whose key ≡ rem (mod modulus).
func KeyMod(modulus, rem uint64) *Filter { return model.KeyMod(modulus, rem) }

// TimeWindow accepts timestamps inside a repeating window — window k is
// [k·period+start, k·period+start+length) for every integer k, all in
// milliseconds. A window may run past the end of its period, a length of
// at least the period matches every timestamp, and a period or length of
// zero or less matches none. The coordinator skips every chunk no window
// meets before reading it, and every scan applies the window, so a query's
// Limit counts window matches.
func TimeWindow(period, start, length int64) *Filter { return model.TimeWindow(period, start, length) }

// Daily is the TimeWindow matching [start, start+length) from every UTC
// midnight, both arguments in milliseconds — "between 09:00 and 17:00
// daily" is Daily(9h, 8h). A window that crosses midnight continues into
// the next day: Daily(22h, 4h) matches 22:00–02:00. Combine it with other
// predicates through And.
func Daily(start, length int64) *Filter { return TimeWindow(24*3_600_000, start, length) }
