package model

import "slices"

// AppendResult appends the wire form of r with r.Tuples as its tuples —
// AppendMergedResult's message for the same tuples merged from runs, with
// the has-tuples flag set whenever Tuples is non-nil — growing dst once to
// the exact size.
func AppendResult(dst []byte, r *Result) []byte {
	n := resultHeaderSize(r)
	for i := range r.Tuples {
		n += EncodedSize(&r.Tuples[i])
	}
	dst = appendResultHeader(slices.Grow(dst, n), r, len(r.Tuples), r.Tuples != nil)
	return AppendTuples(dst, r.Tuples)
}

// IsValid reports whether both intervals are non-empty.
func (r Region) IsValid() bool { return r.Keys.IsValid() && r.Times.IsValid() }
