// Package model defines the core data model of Waterwheel: tuples carrying
// an index key, a timestamp and an opaque payload, plus the key/time
// intervals and key×time regions used throughout partitioning, indexing and
// query processing (paper §II-A).
package model

import (
	"fmt"
	"math"
)

// Key is the index key of a tuple. The key domain K is the full uint64
// space; applications map their natural keys (IP addresses, z-ordered
// coordinates, sensor ids) into it.
type Key uint64

// MaxKey is the largest representable key.
const MaxKey Key = math.MaxUint64

// Timestamp is a point in the time domain T, in milliseconds. The domain
// grows without bound; tuples are assumed to arrive roughly in timestamp
// order.
type Timestamp int64

// MaxTimestamp is the largest representable timestamp.
const MaxTimestamp Timestamp = math.MaxInt64

// MinTimestamp is the smallest representable timestamp.
const MinTimestamp Timestamp = math.MinInt64

// Tuple is the unit of ingestion: d = <dk, dt, de> with index key dk,
// timestamp dt and payload de. Keys and timestamps need not be unique.
type Tuple struct {
	Key     Key
	Time    Timestamp
	Payload []byte
}

// Size returns the approximate wire/storage footprint of the tuple in
// bytes: 8 bytes of key, 8 bytes of timestamp, plus the payload.
func (t *Tuple) Size() int { return 16 + len(t.Payload) }

// String implements fmt.Stringer for debugging output.
func (t *Tuple) String() string {
	return fmt.Sprintf("tuple(key=%d, time=%d, %dB)", t.Key, t.Time, len(t.Payload))
}

// KeyRange is a closed interval K(k-, k+) = {k | k- <= k <= k+} on the key
// domain.
type KeyRange struct {
	Lo, Hi Key
}

// FullKeyRange covers the entire key domain.
func FullKeyRange() KeyRange { return KeyRange{Lo: 0, Hi: MaxKey} }

// Contains reports whether k lies inside the interval.
func (r KeyRange) Contains(k Key) bool { return r.Lo <= k && k <= r.Hi }

// Overlaps reports whether the two intervals intersect.
func (r KeyRange) Overlaps(o KeyRange) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Intersect returns the intersection of the two intervals and whether it is
// non-empty.
func (r KeyRange) Intersect(o KeyRange) (KeyRange, bool) {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return KeyRange{}, false
	}
	return KeyRange{Lo: lo, Hi: hi}, true
}

// IsValid reports whether the interval is non-empty (Lo <= Hi).
func (r KeyRange) IsValid() bool { return r.Lo <= r.Hi }

// Width returns the number of keys covered, saturating at MaxUint64.
func (r KeyRange) Width() uint64 {
	if !r.IsValid() {
		return 0
	}
	w := uint64(r.Hi - r.Lo)
	if w == math.MaxUint64 {
		return w
	}
	return w + 1
}

// String implements fmt.Stringer.
func (r KeyRange) String() string { return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi) }

// TimeRange is a closed interval T(t-, t+) = {t | t- <= t <= t+} on the
// time domain.
type TimeRange struct {
	Lo, Hi Timestamp
}

// FullTimeRange covers the entire time domain.
func FullTimeRange() TimeRange { return TimeRange{Lo: MinTimestamp, Hi: MaxTimestamp} }

// Contains reports whether t lies inside the interval.
func (r TimeRange) Contains(t Timestamp) bool { return r.Lo <= t && t <= r.Hi }

// Overlaps reports whether the two intervals intersect.
func (r TimeRange) Overlaps(o TimeRange) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Intersect returns the intersection of the two intervals and whether it is
// non-empty.
func (r TimeRange) Intersect(o TimeRange) (TimeRange, bool) {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return TimeRange{}, false
	}
	return TimeRange{Lo: lo, Hi: hi}, true
}

// IsValid reports whether the interval is non-empty (Lo <= Hi).
func (r TimeRange) IsValid() bool { return r.Lo <= r.Hi }

// Duration returns Hi-Lo in milliseconds (0 for invalid ranges).
func (r TimeRange) Duration() int64 {
	if !r.IsValid() {
		return 0
	}
	return int64(r.Hi - r.Lo)
}

// String implements fmt.Stringer.
func (r TimeRange) String() string { return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi) }

// Region is a rectangle r = <K, T> in the two-dimensional key×time space R.
// Data regions partition R; query regions select from it.
type Region struct {
	Keys  KeyRange
	Times TimeRange
}

// FullRegion covers the entire key×time space.
func FullRegion() Region {
	return Region{Keys: FullKeyRange(), Times: FullTimeRange()}
}

// Overlaps reports whether two regions intersect: r1 overlaps r2 iff
// K1∩K2 != ∅ and T1∩T2 != ∅ (paper §II-A).
func (r Region) Overlaps(o Region) bool {
	return r.Keys.Overlaps(o.Keys) && r.Times.Overlaps(o.Times)
}

// Contains reports whether the point (k, t) lies inside the region.
func (r Region) Contains(k Key, t Timestamp) bool {
	return r.Keys.Contains(k) && r.Times.Contains(t)
}

// ContainsTuple reports whether the tuple's (key, time) point lies inside
// the region.
func (r Region) ContainsTuple(tp *Tuple) bool { return r.Contains(tp.Key, tp.Time) }

// Intersect returns the intersection region and whether it is non-empty.
func (r Region) Intersect(o Region) (Region, bool) {
	k, ok := r.Keys.Intersect(o.Keys)
	if !ok {
		return Region{}, false
	}
	t, ok := r.Times.Intersect(o.Times)
	if !ok {
		return Region{}, false
	}
	return Region{Keys: k, Times: t}, true
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("region(keys=%s, times=%s)", r.Keys, r.Times)
}
