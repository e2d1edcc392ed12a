package baseline

import (
	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// Default structural parameters of the compared B+ trees. Fanout applies
// to inner nodes; LeafCap is the target number of entries per leaf, which
// the figure drivers also divide a template tree's expected size by to pick
// its leaf count (template leaves may overflow it — that is what skewness
// detection watches for).
const (
	DefaultFanout  = 64
	DefaultLeafCap = 64
)

// Index is the surface the B+ tree comparison of §VI-A (Fig. 7–9) drives:
// the paper's template tree, through Template, and the two trees it is
// measured against, ConcurrentTree and BulkTree.
type Index interface {
	// Insert adds one tuple. Implementations are safe for concurrent use.
	Insert(t model.Tuple)
	// Range visits every tuple with key in kr, time in tr and matching
	// filter, stopping early if fn returns false. Visit order is by key
	// within a leaf; cross-leaf order is ascending key ranges. The tuple
	// pointer (and its payload) must not be retained past the callback.
	Range(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool)
	// Len returns the number of tuples currently in the index.
	Len() int
}

// Template adapts the template tree to Index. The tree's one scan is
// columnar (RangeCols); the tuple-shaped Range the comparison drives is
// built here, reusing one tuple value across the whole scan.
type Template struct{ *core.TemplateTree }

func (t Template) Range(kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(*model.Tuple) bool) {
	var tp model.Tuple
	t.RangeCols(kr, tr, filter, func(k model.Key, ts model.Timestamp, p []byte) bool {
		tp.Key, tp.Time, tp.Payload = k, ts, p
		return fn(&tp)
	})
}

var (
	_ Index = Template{}
	_ Index = (*ConcurrentTree)(nil)
	_ Index = (*BulkTree)(nil)
)
