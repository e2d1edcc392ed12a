// Package baseline holds what the paper's evaluation measures Waterwheel
// against and nothing production runs.
//
// For the index comparison (§VI-A, Fig. 7–9): a traditional concurrent B+
// tree with latch coupling and node splits (ConcurrentTree), a bulk-loading
// B+ tree that sorts batches and builds bottom-up (BulkTree), and the Index
// surface the figure drivers put all three trees behind — the template tree
// through the Template adapter.
//
// For the overall evaluation (§VI-D): an LSM-tree key-value store modelled
// on HBase and a time-partitioned segment store modelled on Druid. Both run
// against the same simulated distributed file system as Waterwheel so the
// comparison isolates the architectural differences the paper attributes
// the gap to:
//
//   - the LSM store merges fresh data into historical runs (compaction),
//     capping insertion throughput, and has no temporal index — a time
//     constraint is checked by reading every tuple in the key range;
//   - the segment store prunes by time but has no key-range index — a key
//     constraint is checked by reading every tuple in the time range.
package baseline

import "waterwheel/internal/model"

// Store is the interface the overall-comparison experiments drive. All
// three systems (Waterwheel and the two baselines) are adapted to it.
type Store interface {
	// Insert ingests one tuple; safe for concurrent use.
	Insert(t model.Tuple)
	// Query answers a key+time range query with an optional filter.
	Query(q model.Query) (*model.Result, error)
	// Flush forces buffered data to persistent storage.
	Flush()
	// Close releases resources.
	Close()
}
