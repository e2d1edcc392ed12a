// Package bloom implements the bloom filters Waterwheel attaches to B+ tree
// leaves. The time domain is partitioned into mini-ranges (fixed-width
// buckets); each leaf's filter records the buckets covered by its tuples so
// temporal-selective subqueries can skip leaves that cannot contain
// qualifying tuples (paper §IV-B).
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Filter is a standard Bloom filter over uint64 items using the
// Kirsch-Mitzenmacher double-hashing scheme: g_i(x) = h1(x) + i*h2(x).
// The zero value is unusable; construct with New or NewWithEstimates.
type Filter struct {
	bits  []uint64
	nbits uint64
	k     int
}

// New creates a filter with the given number of bits (rounded up to a
// multiple of 64) and hash functions. nbits must be positive; k is clamped
// to [1, 16].
func New(nbits uint64, k int) *Filter {
	if nbits == 0 {
		nbits = 64
	}
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	words := (nbits + 63) / 64
	return &Filter{bits: make([]uint64, words), nbits: words * 64, k: k}
}

// NewWithEstimates creates a filter sized for n items at the given false
// positive rate.
func NewWithEstimates(n int, fpRate float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	// m = -n ln p / (ln 2)^2 ; k = m/n ln 2
	m := math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2))
	k := int(math.Round(m / float64(n) * math.Ln2))
	return New(uint64(m), k)
}

// splitmix64 is a strong 64-bit mixer; we derive two independent hashes from
// one pass with different seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (f *Filter) hashes(item uint64) (h1, h2 uint64) {
	h1 = splitmix64(item)
	h2 = splitmix64(item ^ 0x6a09e667f3bcc909)
	h2 |= 1 // force odd so strides cover the table
	return
}

// Add inserts an item.
func (f *Filter) Add(item uint64) {
	h1, h2 := f.hashes(item)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain reports whether the item may have been added. False positives
// are possible; false negatives are not.
func (f *Filter) MayContain(item uint64) bool {
	h1, h2 := f.hashes(item)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// errCorrupt reports a malformed encoded filter.
var errCorrupt = errors.New("bloom: corrupt encoding")

// maxEncodedWords bounds decode allocations (64 MiB of bits).
const maxEncodedWords = 8 << 20

// AppendTo appends a binary encoding of the filter to dst.
//
// Layout: [4B k][8B nbits][words * 8B bits].
func (f *Filter) AppendTo(dst []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(f.k))
	dst = append(dst, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], f.nbits)
	dst = append(dst, tmp[:]...)
	for _, w := range f.bits {
		binary.BigEndian.PutUint64(tmp[:], w)
		dst = append(dst, tmp[:]...)
	}
	return dst
}

// Decode reads a filter from the front of buf, returning it and the bytes
// consumed.
func Decode(buf []byte) (*Filter, int, error) {
	if len(buf) < 12 {
		return nil, 0, errCorrupt
	}
	k := int(binary.BigEndian.Uint32(buf[0:4]))
	nbits := binary.BigEndian.Uint64(buf[4:12])
	if k < 1 || k > 16 || nbits%64 != 0 {
		return nil, 0, fmt.Errorf("%w: k=%d nbits=%d", errCorrupt, k, nbits)
	}
	words := int(nbits / 64)
	if words > maxEncodedWords {
		return nil, 0, fmt.Errorf("%w: filter too large (%d words)", errCorrupt, words)
	}
	need := 12 + words*8
	if len(buf) < need {
		return nil, 0, errCorrupt
	}
	f := &Filter{bits: make([]uint64, words), nbits: nbits, k: k}
	for i := 0; i < words; i++ {
		f.bits[i] = binary.BigEndian.Uint64(buf[12+i*8:])
	}
	return f, need, nil
}

// TimeSketch maps a leaf's tuple timestamps into time mini-ranges and
// records them in a bloom filter. BucketMillis is the mini-range width; a
// query's time interval expands to the covered buckets, and the leaf is
// skipped when none of them may be present.
type TimeSketch struct {
	// BucketMillis is the mini-range width in milliseconds.
	BucketMillis int64
	F            *Filter
}

// NewTimeSketch creates a sketch sized for roughly n distinct buckets.
func NewTimeSketch(bucketMillis int64, n int, fpRate float64) *TimeSketch {
	if bucketMillis <= 0 {
		bucketMillis = 1000
	}
	return &TimeSketch{BucketMillis: bucketMillis, F: NewWithEstimates(n, fpRate)}
}

// bucket maps a timestamp (millis) to its mini-range index. Floor division
// keeps negative timestamps consistent.
func (s *TimeSketch) bucket(t int64) uint64 {
	b := t / s.BucketMillis
	if t%s.BucketMillis < 0 {
		b--
	}
	return uint64(b)
}

// AddTime records a tuple timestamp.
func (s *TimeSketch) AddTime(t int64) { s.F.Add(s.bucket(t)) }

// MayOverlap reports whether any mini-range in [lo, hi] may be present.
// Wide ranges short-circuit to true after maxProbes buckets — probing
// thousands of buckets would cost more than reading the leaf.
func (s *TimeSketch) MayOverlap(lo, hi int64) bool {
	if lo > hi {
		return false
	}
	const maxProbes = 128
	b0, b1 := s.bucket(lo), s.bucket(hi)
	if b1-b0 >= maxProbes {
		return true
	}
	for b := b0; ; b++ {
		if s.F.MayContain(b) {
			return true
		}
		if b == b1 {
			return false
		}
	}
}

// AppendTo appends a binary encoding: [8B bucketMillis][filter].
func (s *TimeSketch) AppendTo(dst []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(s.BucketMillis))
	dst = append(dst, tmp[:]...)
	return s.F.AppendTo(dst)
}

// DecodeTimeSketch reads a sketch from the front of buf.
func DecodeTimeSketch(buf []byte) (*TimeSketch, int, error) {
	if len(buf) < 8 {
		return nil, 0, errCorrupt
	}
	bm := int64(binary.BigEndian.Uint64(buf[0:8]))
	if bm <= 0 {
		return nil, 0, fmt.Errorf("%w: bucketMillis=%d", errCorrupt, bm)
	}
	f, n, err := Decode(buf[8:])
	if err != nil {
		return nil, 0, err
	}
	return &TimeSketch{BucketMillis: bm, F: f}, 8 + n, nil
}
