package model

import (
	"encoding/binary"
	"fmt"
)

// AggKind selects which aggregate an AggregateQuery returns.
type AggKind uint8

const (
	// AggCount counts the matching tuples.
	AggCount AggKind = iota
	// AggMin is the minimum of the designated payload field.
	AggMin
	// AggMax is the maximum of the designated payload field.
	AggMax
	// AggSum is the (wrapping uint64) sum of the designated payload field.
	AggSum
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	}
	return fmt.Sprintf("aggkind(%d)", uint8(k))
}

// ParseAggKind parses the textual aggregate names used by tooling.
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "count":
		return AggCount, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "sum":
		return AggSum, nil
	}
	return 0, fmt.Errorf("model: unknown aggregate kind %q", s)
}

// AggregateQuery is an aggregate over a key range × time range: the
// COUNT/MIN/MAX/SUM query verb. MIN/MAX/SUM read the big-endian uint64
// payload field at byte offset Field; tuples whose payload is shorter than
// Field+8 are counted but contribute no value.
type AggregateQuery struct {
	// ID identifies the query within the cluster. The coordinator assigns
	// it when it registers the query, over any value the caller set.
	ID uint64
	// Keys is the selection interval on the key domain.
	Keys KeyRange
	// Times is the selection interval on the time domain.
	Times TimeRange
	// Filter is the optional predicate. A non-nil filter disables all
	// metadata pushdown: every candidate leaf is scanned.
	Filter *Filter
	// Kind is the requested aggregate.
	Kind AggKind
	// Field is the payload byte offset of the aggregated uint64.
	Field uint32
}

// Region returns the query region.
func (q *AggregateQuery) Region() Region { return Region{Keys: q.Keys, Times: q.Times} }

// AggSpec rides on a SubQuery to turn it into an aggregate subquery: the
// executor folds matching tuples into Result.Agg instead of returning
// them, answering fully covered leaves from chunk-header pre-aggregates
// where possible.
type AggSpec struct {
	// Field is the payload byte offset of the aggregated uint64.
	Field uint32
	// CountOnly marks a COUNT query: tuple counts push down from any
	// chunk regardless of which field its pre-aggregates summarize, and
	// executors skip field extraction entirely.
	CountOnly bool
}

// AggPartial is a mergeable partial aggregate. Min/Max are meaningful only
// when Values > 0; Sum wraps modulo 2^64.
type AggPartial struct {
	// Count is the number of matching tuples.
	Count uint64
	// Values is the number of matching tuples that carried the aggregate
	// field (payload length >= field offset + 8).
	Values uint64
	Sum    uint64
	Min    uint64
	Max    uint64
}

// AddValue folds one field value.
func (a *AggPartial) AddValue(v uint64) {
	if a.Values == 0 || v < a.Min {
		a.Min = v
	}
	if a.Values == 0 || v > a.Max {
		a.Max = v
	}
	a.Values++
	a.Sum += v
}

// PayloadU64Field reads the big-endian uint64 payload field at byte offset
// off, reporting ok=false when the payload is too short to carry it.
func PayloadU64Field(p []byte, off uint32) (uint64, bool) {
	if int64(off)+8 > int64(len(p)) {
		return 0, false
	}
	return binary.BigEndian.Uint64(p[off:]), true
}

// AddTuple folds one matching tuple, extracting the field at offset when
// the payload carries it.
func (a *AggPartial) AddTuple(t *Tuple, field uint32) {
	a.Count++
	if v, ok := PayloadU64Field(t.Payload, field); ok {
		a.AddValue(v)
	}
}

// Merge folds o into a.
func (a *AggPartial) Merge(o *AggPartial) {
	if o == nil {
		return
	}
	a.Count += o.Count
	if o.Values > 0 {
		if a.Values == 0 || o.Min < a.Min {
			a.Min = o.Min
		}
		if a.Values == 0 || o.Max > a.Max {
			a.Max = o.Max
		}
		a.Values += o.Values
		a.Sum += o.Sum
	}
}

// ChunkAgg is a chunk-level aggregate summary registered with the chunk's
// metadata, letting the coordinator answer aggregate subqueries over fully
// covered chunks without dispatching them at all.
type ChunkAgg struct {
	// Field is the payload offset the summary was built over.
	Field uint32
	AggPartial
}

// AggResult is the answer to an AggregateQuery: the merged aggregate plus
// execution metadata mirroring Result's counters.
type AggResult struct {
	QueryID uint64
	Kind    AggKind
	AggPartial
	// SubQueries is the number of dispatched subqueries (fully covered
	// chunks answered from metadata are not dispatched; see MetaChunks).
	SubQueries int
	// MetaChunks counts chunks answered wholly from coordinator metadata.
	MetaChunks int
	// PushdownLeaves counts leaves answered from header pre-aggregates
	// without reading the leaf body.
	PushdownLeaves int
	// LeavesRead counts leaves whose bodies were scanned.
	LeavesRead int
	// LeavesSkipped counts leaves pruned by time sketches.
	LeavesSkipped int
	// BytesRead counts chunk bytes fetched from the file system.
	BytesRead int64
	// CacheHits counts query-server cache-unit hits.
	CacheHits int
}

// Value returns the requested aggregate. ok is false when the aggregate is
// undefined: MIN/MAX over zero valued tuples. (SUM of nothing is 0 and
// COUNT of nothing is 0; both are defined.)
func (r *AggResult) Value() (uint64, bool) {
	switch r.Kind {
	case AggCount:
		return r.Count, true
	case AggSum:
		return r.Sum, true
	case AggMin:
		return r.Min, r.Values > 0
	case AggMax:
		return r.Max, r.Values > 0
	}
	return 0, false
}
