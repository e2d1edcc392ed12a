// Package zorder implements Morton (Z-order) encoding [31], used by
// Waterwheel to map two-dimensional attributes — latitude/longitude in the
// T-Drive workload — into the one-dimensional key domain so the B+ tree can
// index them (paper §III-A, §VI). It also decomposes a query rectangle into
// a small set of contiguous z-code intervals, the way the paper converts a
// geographical rectangle into one or more key-range queries.
package zorder

// Interleave spreads the low 32 bits of x into the even bit positions of a
// 64-bit word.
func Interleave(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Encode interleaves x (even bits) and y (odd bits) into one z-code.
func Encode(x, y uint32) uint64 {
	return Interleave(x) | Interleave(y)<<1
}

// Grid maps a geographic bounding box onto a 2^bits × 2^bits cell grid and
// z-encodes cell coordinates. It is the preprocessing the paper's
// dispatchers apply to T-Drive records.
type Grid struct {
	MinLon, MaxLon float64
	MinLat, MaxLat float64
	// Bits is the per-dimension resolution; the grid has 2^Bits cells per
	// axis. Must be in [1, 32].
	Bits uint
}

// NewGrid creates a grid over the given bounding box with the given
// per-dimension resolution (clamped to [1, 32]).
func NewGrid(minLon, maxLon, minLat, maxLat float64, bits uint) *Grid {
	if bits < 1 {
		bits = 1
	}
	if bits > 32 {
		bits = 32
	}
	return &Grid{MinLon: minLon, MaxLon: maxLon, MinLat: minLat, MaxLat: maxLat, Bits: bits}
}

// cells returns the number of cells per axis.
func (g *Grid) cells() uint64 { return uint64(1) << g.Bits }

// clampCell maps a coordinate to its axis cell index, clamping outliers to
// the border cells.
func clampCell(v, lo, hi float64, cells uint64) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	c := uint64(f * float64(cells))
	if c >= cells {
		c = cells - 1
	}
	return uint32(c)
}

// Cell returns the (x, y) cell indices of a point.
func (g *Grid) Cell(lon, lat float64) (x, y uint32) {
	return clampCell(lon, g.MinLon, g.MaxLon, g.cells()),
		clampCell(lat, g.MinLat, g.MaxLat, g.cells())
}

// Key z-encodes a point into the key domain.
func (g *Grid) Key(lon, lat float64) uint64 {
	x, y := g.Cell(lon, lat)
	return Encode(x, y)
}

// Interval is a closed z-code interval [Lo, Hi].
type Interval struct {
	Lo, Hi uint64
}

// CoverRect decomposes the cell rectangle [x0,x1]×[y0,y1] into at most
// maxIntervals closed z-code intervals whose union covers the rectangle
// (possibly with slack when the budget is tight). It recursively subdivides
// z-space quadrants (BIGMIN-style) and merges adjacent intervals.
func CoverRect(x0, y0, x1, y1 uint32, bits uint, maxIntervals int) []Interval {
	if x1 < x0 || y1 < y0 {
		return nil
	}
	if bits < 1 {
		bits = 1
	}
	if bits > 32 {
		bits = 32
	}
	if maxIntervals < 1 {
		maxIntervals = 1
	}
	var out []Interval
	var walk func(qx, qy uint64, level uint)
	walk = func(qx, qy uint64, level uint) {
		// Quadrant at `level` spans cells [qx, qx+size-1] × [qy, qy+size-1].
		// 64-bit coordinates avoid overflow at level 32.
		size := uint64(1) << level
		qx1, qy1 := qx+size-1, qy+size-1
		if qx > uint64(x1) || qx1 < uint64(x0) || qy > uint64(y1) || qy1 < uint64(y0) {
			return
		}
		if qx >= uint64(x0) && qx1 <= uint64(x1) && qy >= uint64(y0) && qy1 <= uint64(y1) {
			lo := Encode(uint32(qx), uint32(qy))
			span := uint64(1)<<(2*level) - 1 // wraps to MaxUint64 at level 32, which is exact
			out = append(out, Interval{Lo: lo, Hi: lo + span})
			return
		}
		if level == 0 {
			lo := Encode(uint32(qx), uint32(qy))
			out = append(out, Interval{Lo: lo, Hi: lo})
			return
		}
		half := size >> 1
		// Z-order within a quadrant: (0,0), (1,0), (0,1), (1,1) by code.
		walk(qx, qy, level-1)
		walk(qx+half, qy, level-1)
		walk(qx, qy+half, level-1)
		walk(qx+half, qy+half, level-1)
	}
	walk(0, 0, bits)
	out = mergeAdjacent(out)
	for len(out) > maxIntervals {
		out = coalesceCheapest(out)
	}
	return out
}

// CoverGeoRect covers a geographic rectangle on the grid.
func (g *Grid) CoverGeoRect(lon0, lat0, lon1, lat1 float64, maxIntervals int) []Interval {
	if lon1 < lon0 {
		lon0, lon1 = lon1, lon0
	}
	if lat1 < lat0 {
		lat0, lat1 = lat1, lat0
	}
	x0, y0 := g.Cell(lon0, lat0)
	x1, y1 := g.Cell(lon1, lat1)
	return CoverRect(x0, y0, x1, y1, g.Bits, maxIntervals)
}

// mergeAdjacent merges touching or overlapping intervals; input is in
// ascending z order because the quadtree walk follows z order.
func mergeAdjacent(in []Interval) []Interval {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 && last.Hi+1 != 0 { // contiguous (guard overflow)
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// coalesceCheapest merges the pair of adjacent intervals with the smallest
// gap, trading one interval for a little covering slack.
func coalesceCheapest(in []Interval) []Interval {
	if len(in) < 2 {
		return in
	}
	best, bestGap := 0, uint64(1<<63)
	for i := 0; i+1 < len(in); i++ {
		gap := in[i+1].Lo - in[i].Hi
		if gap < bestGap {
			bestGap, best = gap, i
		}
	}
	in[best].Hi = in[best+1].Hi
	return append(in[:best+1], in[best+2:]...)
}
