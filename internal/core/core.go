// Package core implements Waterwheel's primary contribution: the
// template-based B+ tree (paper §III-B, §III-C). It indexes a stream of
// tuples on the key domain, answers key-range scans with optional
// time-range and predicate filtering through one columnar scan
// (RangeCols), hands its leaves to the chunk builder while retaining the
// template — the leaves' separator keys — for the next chunk (FlushReset),
// and rebuilds the template when the skewness factor
// S(P,D) = max_i (|Ki(D)| - n)/n says the partition no longer fits the
// keys. The two B+ trees it is evaluated against in §VI-A
// live in internal/baseline, beside the other comparison systems.
package core

import "sync/atomic"

// Stats aggregates instrumentation counters for the insertion-time
// breakdown experiment (paper Fig. 7b), which reads one Stats per compared
// tree — the template tree's here, the concurrent and bulk trees' in
// internal/baseline. Counters are cumulative and safe for concurrent
// update.
type Stats struct {
	// Inserts counts tuples inserted.
	Inserts atomic.Int64
	// Splits counts node splits (concurrent tree only; always 0 for the
	// template tree).
	Splits atomic.Int64
	// SplitNanos accumulates wall time spent splitting nodes.
	SplitNanos atomic.Int64
	// SortNanos accumulates wall time spent sorting (bulk tree builds).
	SortNanos atomic.Int64
	// BuildNanos accumulates wall time spent building index structure
	// bottom-up (bulk tree).
	BuildNanos atomic.Int64
	// TemplateUpdates counts template rebuilds (template tree only).
	TemplateUpdates atomic.Int64
	// TemplateUpdateNanos accumulates wall time spent in template updates.
	TemplateUpdateNanos atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Inserts:             s.Inserts.Load(),
		Splits:              s.Splits.Load(),
		SplitNanos:          s.SplitNanos.Load(),
		SortNanos:           s.SortNanos.Load(),
		BuildNanos:          s.BuildNanos.Load(),
		TemplateUpdates:     s.TemplateUpdates.Load(),
		TemplateUpdateNanos: s.TemplateUpdateNanos.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Inserts             int64
	Splits              int64
	SplitNanos          int64
	SortNanos           int64
	BuildNanos          int64
	TemplateUpdates     int64
	TemplateUpdateNanos int64
}
