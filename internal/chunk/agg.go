// Pre-aggregate block: per-leaf, per-time-mini-range summaries of the
// big-endian uint64 at payload offset 0, the last section of every
// chunk's header. It lies past IndexLen, so a range subquery's header read
// stops before it, and the agg CRC of the fixed header covers it. An
// aggregate subquery answers fully covered leaves from these buckets
// without touching the leaf body, and shrinks the scan window of boundary
// leaves to the uncovered buckets.
//
// Serialized layout, after the sketches:
//
//	[4B field offset]
//	nLeaves × [8B bucket width (ms)][8B first bucket start][4B nBuckets]
//	          nBuckets × [4B count][4B values][8B min][8B max][8B sum]
//
// Buckets tile [First, First+Width×len(Buckets)); bucket b covers
// [First+b×Width, First+(b+1)×Width). Width starts at the sketch
// mini-range width and doubles until a leaf needs at most maxAggBuckets
// buckets, bounding the header cost per leaf.
package chunk

import (
	"encoding/binary"
	"fmt"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// aggField is the payload offset of the field Build pre-aggregates: the
// payload's leading field. The block records it, and readers take it from
// Header.AggField.
const aggField uint32 = 0

// maxAggBuckets caps the pre-aggregate buckets per leaf.
const maxAggBuckets = 16

// aggBucketSize and aggLeafFixed are the serialized sizes.
const (
	aggBucketSize = 4 + 4 + 8 + 8 + 8
	aggLeafFixed  = 8 + 8 + 4
)

// AggBucket summarizes the tuples of one time mini-range of a leaf.
type AggBucket struct {
	// Count is the number of tuples in the bucket.
	Count uint32
	// Values is the number of tuples carrying the aggregate field.
	Values uint32
	Min    uint64
	Max    uint64
	Sum    uint64
}

// LeafAgg is one leaf's pre-aggregate block. Empty leaves have no buckets.
type LeafAgg struct {
	// Width is the bucket width in milliseconds (> 0 when buckets exist).
	Width int64
	// First is the start of bucket 0, aligned down to a Width multiple.
	First int64
	// Buckets tile the leaf's time range.
	Buckets []AggBucket
}

// buildLeafAgg folds a leaf's columns into time buckets. A leaf whose time
// range int64 arithmetic cannot tile — a bucket start below MinTimestamp,
// or a span past MaxInt64, which timestamps near both ends of the domain
// ask for — gets no buckets, and its aggregates are scanned.
func buildLeafAgg(lc *core.LeafCols, width, minT, maxT int64) LeafAgg {
	if width <= 0 {
		width = 1000
	}
	var first int64
	for {
		first = model.FloorDiv(minT, width) * width
		span := maxT - first
		if first > minT || span < 0 { // wrapped
			return LeafAgg{}
		}
		if span/width+1 <= maxAggBuckets {
			break
		}
		width *= 2
	}
	la := LeafAgg{
		Width:   width,
		First:   first,
		Buckets: make([]AggBucket, (maxT-first)/width+1),
	}
	for j := range lc.Times {
		b := &la.Buckets[(int64(lc.Times[j])-first)/width]
		b.Count++
		if v, ok := payloadU64(lc.Payload(j), aggField); ok {
			if b.Values == 0 || v < b.Min {
				b.Min = v
			}
			if b.Values == 0 || v > b.Max {
				b.Max = v
			}
			b.Values++
			b.Sum += v
		}
	}
	return la
}

// aggBlockSize returns the serialized size of the pre-aggregate block.
func aggBlockSize(leafAggs []LeafAgg) int {
	n := 4 + len(leafAggs)*aggLeafFixed
	for i := range leafAggs {
		n += len(leafAggs[i].Buckets) * aggBucketSize
	}
	return n
}

// appendAggBlock serializes the pre-aggregate block.
func appendAggBlock(out []byte, leafAggs []LeafAgg) []byte {
	out = appendU32(out, aggField)
	for i := range leafAggs {
		la := &leafAggs[i]
		out = appendU64(out, uint64(la.Width))
		out = appendU64(out, uint64(la.First))
		out = appendU32(out, uint32(len(la.Buckets)))
		for _, b := range la.Buckets {
			out = appendU32(out, b.Count)
			out = appendU32(out, b.Values)
			out = appendU64(out, b.Min)
			out = appendU64(out, b.Max)
			out = appendU64(out, b.Sum)
		}
	}
	return out
}

// parseAggBlock decodes the pre-aggregate block buf into h, which the
// index sections already fill.
func parseAggBlock(h *Header, buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("%w: agg block truncated", ErrCorrupt)
	}
	h.AggField = binary.BigEndian.Uint32(buf)
	pos := 4
	h.LeafAggs = make([]LeafAgg, h.Leaves)
	for i := range h.LeafAggs {
		if pos+aggLeafFixed > len(buf) {
			return fmt.Errorf("%w: agg leaf %d truncated", ErrCorrupt, i)
		}
		la := &h.LeafAggs[i]
		la.Width = int64(binary.BigEndian.Uint64(buf[pos:]))
		la.First = int64(binary.BigEndian.Uint64(buf[pos+8:]))
		nb := int(binary.BigEndian.Uint32(buf[pos+16:]))
		pos += aggLeafFixed
		// Bound the allocation by the remaining header bytes before making
		// the slice: a corrupt count must not OOM.
		if nb < 0 || pos+nb*aggBucketSize > len(buf) {
			return fmt.Errorf("%w: agg leaf %d bucket count %d", ErrCorrupt, i, nb)
		}
		if nb > 0 && la.Width <= 0 {
			return fmt.Errorf("%w: agg leaf %d bucket width %d", ErrCorrupt, i, la.Width)
		}
		la.Buckets = make([]AggBucket, nb)
		for j := range la.Buckets {
			b := &la.Buckets[j]
			b.Count = binary.BigEndian.Uint32(buf[pos:])
			b.Values = binary.BigEndian.Uint32(buf[pos+4:])
			b.Min = binary.BigEndian.Uint64(buf[pos+8:])
			b.Max = binary.BigEndian.Uint64(buf[pos+16:])
			b.Sum = binary.BigEndian.Uint64(buf[pos+24:])
			pos += aggBucketSize
		}
	}
	if pos != len(buf) {
		return fmt.Errorf("%w: agg block has %d trailing bytes", ErrCorrupt, len(buf)-pos)
	}
	h.HasAgg = true
	return nil
}

// foldBucket folds one bucket into a partial, optionally counts only.
func foldBucket(agg *model.AggPartial, b *AggBucket, countOnly bool) {
	agg.Count += uint64(b.Count)
	if countOnly || b.Values == 0 {
		return
	}
	if agg.Values == 0 || b.Min < agg.Min {
		agg.Min = b.Min
	}
	if agg.Values == 0 || b.Max > agg.Max {
		agg.Max = b.Max
	}
	agg.Values += uint64(b.Values)
	agg.Sum += b.Sum
}

// FoldLeafAggAll folds every bucket of leaf li into agg — exact when the
// query's time range covers the leaf's whole [MinT, MaxT] (every tuple in
// every bucket matches, even where edge buckets overhang the range).
// Returns false when the leaf has no pre-aggregates.
func (h *Header) FoldLeafAggAll(li int, countOnly bool, agg *model.AggPartial) bool {
	if !h.HasAgg || len(h.LeafAggs[li].Buckets) == 0 {
		return false
	}
	for j := range h.LeafAggs[li].Buckets {
		foldBucket(agg, &h.LeafAggs[li].Buckets[j], countOnly)
	}
	return true
}

// FoldLeafAgg folds the buckets of leaf li that lie fully inside tr into
// agg, returning the bucket-aligned window that was folded. The caller
// must scan the rest of the leaf excluding that window. ok is false (and
// nothing is folded) when no bucket fits inside tr.
func (h *Header) FoldLeafAgg(li int, tr model.TimeRange, countOnly bool, agg *model.AggPartial) (folded model.TimeRange, ok bool) {
	if !h.HasAgg {
		return model.TimeRange{}, false
	}
	la := &h.LeafAggs[li]
	if len(la.Buckets) == 0 {
		return model.TimeRange{}, false
	}
	w := la.Width
	// First bucket starting at or after tr.Lo; last bucket ending at or
	// before tr.Hi (bucket b spans [First+b·w, First+(b+1)·w − 1]).
	bLo := model.FloorDiv(int64(tr.Lo)-la.First+w-1, w)
	bHi := model.FloorDiv(int64(tr.Hi)-la.First+1, w) - 1
	if bLo < 0 {
		bLo = 0
	}
	if bHi > int64(len(la.Buckets)-1) {
		bHi = int64(len(la.Buckets) - 1)
	}
	if bLo > bHi {
		return model.TimeRange{}, false
	}
	for b := bLo; b <= bHi; b++ {
		foldBucket(agg, &la.Buckets[b], countOnly)
	}
	return model.TimeRange{
		Lo: model.Timestamp(la.First + bLo*w),
		Hi: model.Timestamp(la.First + (bHi+1)*w - 1),
	}, true
}

// AggregateLeaf scans leaf li, folding matching tuples into agg. Tuples
// inside the exclude window (already folded from pre-aggregate buckets)
// are skipped; pass nil when nothing was folded. exclude must only be used
// when the leaf's keys are fully covered and the filter is nil — the
// bucket fold it complements has no key or predicate resolution.
func (h *Header) AggregateLeaf(li int, body []byte, cols *LeafColumns, kr model.KeyRange, tr model.TimeRange, filter *model.Filter, exclude *model.TimeRange, field uint32, countOnly bool, agg *model.AggPartial) error {
	return h.ScanLeafColsWith(cols, li, body, kr, tr, filter, func(_ model.Key, ts model.Timestamp, p []byte) bool {
		if exclude != nil && ts >= exclude.Lo && ts <= exclude.Hi {
			return true
		}
		agg.Count++
		if !countOnly {
			if v, ok := payloadU64(p, field); ok {
				agg.AddValue(v)
			}
		}
		return true
	})
}
