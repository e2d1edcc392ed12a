// Hierarchical time tiering over chunk metadata (ROADMAP item 5, in the
// spirit of Timehash's hierarchical time index). Two pieces live here:
//
//   - Tier labels on ChunkInfo (hot → warm → cold): retention demotes
//     chunks through the tiers by age instead of deleting them outright;
//     only the coldest tier is ever compacted or dropped.
//
//   - A coarse hour → day → week bucket hierarchy counting how many chunk
//     regions intersect each time bucket. The coordinator consults it to
//     prune whole buckets of a recurring-window query (e.g. "09:00–17:00
//     daily") before touching the R-tree candidates: a chunk whose hour
//     buckets never meet a window's hour buckets cannot contribute.
//
// The bucket test is hour-granular and therefore a superset of the exact
// window intersection — false positives cost a header read, false
// negatives are impossible because buckets fully tile both the windows
// and the chunk spans. Chunks spanning more hours than maxTrackedHours
// (hand-registered extreme regions) are counted in a "wide" bucket that
// defeats pruning for them but keeps the index small.
package meta

import (
	"sort"

	"waterwheel/internal/model"
)

// Retention tiers, coldest last.
const (
	TierHot = iota
	TierWarm
	TierCold
)

// Bucket widths of the time hierarchy, in milliseconds.
const (
	HourMillis int64 = 3_600_000
	DayMillis        = 24 * HourMillis
	WeekMillis       = 7 * DayMillis
)

// maxTrackedHours bounds the hour buckets one chunk contributes to the
// hierarchy; wider chunks fall back to the always-matching wide count.
const maxTrackedHours = 1 << 14

// tierIndex is the hour → day → week bucket hierarchy. Keys are bucket
// indexes (timestamp floor-divided by the bucket width); values count the
// chunk regions intersecting the bucket.
type tierIndex struct {
	hours map[int64]int
	days  map[int64]int
	weeks map[int64]int
	// wide counts chunks too wide to track per-hour; they match every
	// window.
	wide int
	// minHour/maxHour clamp hierarchy walks to the span ever registered.
	// They never shrink on removal — stale slack only costs iteration.
	minHour, maxHour int64
	tracked          int
}

func newTierIndex() *tierIndex {
	return &tierIndex{
		hours: make(map[int64]int),
		days:  make(map[int64]int),
		weeks: make(map[int64]int),
	}
}

// span returns the hour-bucket span of a time range and whether it is
// narrow enough to track per-bucket.
func (t *tierIndex) span(tr model.TimeRange) (hLo, hHi int64, tracked bool) {
	hLo = model.FloorDiv(int64(tr.Lo), HourMillis)
	hHi = model.FloorDiv(int64(tr.Hi), HourMillis)
	return hLo, hHi, hHi-hLo+1 <= maxTrackedHours
}

func (t *tierIndex) add(tr model.TimeRange) {
	hLo, hHi, tracked := t.span(tr)
	if !tracked {
		t.wide++
		return
	}
	if t.tracked == 0 || hLo < t.minHour {
		t.minHour = hLo
	}
	if t.tracked == 0 || hHi > t.maxHour {
		t.maxHour = hHi
	}
	t.tracked++
	for h := hLo; h <= hHi; h++ {
		t.hours[h]++
	}
	for d := model.FloorDiv(int64(tr.Lo), DayMillis); d <= model.FloorDiv(int64(tr.Hi), DayMillis); d++ {
		t.days[d]++
	}
	for w := model.FloorDiv(int64(tr.Lo), WeekMillis); w <= model.FloorDiv(int64(tr.Hi), WeekMillis); w++ {
		t.weeks[w]++
	}
}

func (t *tierIndex) remove(tr model.TimeRange) {
	hLo, hHi, tracked := t.span(tr)
	if !tracked {
		if t.wide > 0 {
			t.wide--
		}
		return
	}
	t.tracked--
	dec := func(m map[int64]int, k int64) {
		if m[k] <= 1 {
			delete(m, k)
		} else {
			m[k]--
		}
	}
	for h := hLo; h <= hHi; h++ {
		dec(t.hours, h)
	}
	for d := model.FloorDiv(int64(tr.Lo), DayMillis); d <= model.FloorDiv(int64(tr.Hi), DayMillis); d++ {
		dec(t.days, d)
	}
	for w := model.FloorDiv(int64(tr.Lo), WeekMillis); w <= model.FloorDiv(int64(tr.Hi), WeekMillis); w++ {
		dec(t.weeks, w)
	}
}

// matchHours collects the non-empty hour buckets intersecting the windows
// into dst, walking the hierarchy top-down so empty weeks and days are
// skipped in one step each.
func (t *tierIndex) matchHours(windows []model.TimeRange, dst map[int64]struct{}) {
	if t.tracked == 0 {
		return
	}
	const hoursPerDay = DayMillis / HourMillis
	const hoursPerWeek = WeekMillis / HourMillis
	for _, w := range windows {
		hLo, hHi, _ := t.span(w)
		if hLo < t.minHour {
			hLo = t.minHour
		}
		if hHi > t.maxHour {
			hHi = t.maxHour
		}
		for h := hLo; h <= hHi; {
			if wk := model.FloorDiv(h, hoursPerWeek); t.weeks[wk] == 0 {
				h = (wk + 1) * hoursPerWeek
				continue
			}
			if d := model.FloorDiv(h, hoursPerDay); t.days[d] == 0 {
				h = (d + 1) * hoursPerDay
				continue
			}
			if t.hours[h] > 0 {
				dst[h] = struct{}{}
			}
			h++
		}
	}
}

// trackLocked indexes a registered chunk in the bucket hierarchy and
// advances the max-time clock. Requires mu.
func (s *Server) trackLocked(info ChunkInfo) {
	s.tiers.add(info.Region.Times)
	if info.Region.Times.Hi > s.maxTime {
		s.maxTime = info.Region.Times.Hi
	}
}

// SetTier relabels a chunk's retention tier. Returns false for unknown
// chunks.
func (s *Server) SetTier(id model.ChunkID, tier int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.chunks[id]
	if !ok {
		return false
	}
	info.Tier = tier
	s.chunks[id] = info
	return true
}

// TierCounts returns the number of chunks per retention tier.
func (s *Server) TierCounts() [3]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [3]int
	for _, c := range s.chunks {
		t := c.Tier
		if t < TierHot || t > TierCold {
			t = TierHot
		}
		out[t]++
	}
	return out
}

// MaxTime returns the largest Region.Times.Hi ever registered — the
// compactor's notion of "now", so tier ages follow the data stream
// rather than the wall clock. Zero before any chunk registers.
func (s *Server) MaxTime() model.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxTime
}

// QueryHorizon returns the last query ID assigned. Every query planned
// before now has ID <= QueryHorizon(); the drain-safe retirement path
// captures this at drop time and defers the file delete until
// OldestActiveQuery has passed it.
func (s *Server) QueryHorizon() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextQuery
}

// OldestActiveQuery returns the smallest active query ID, or MaxUint64
// when no query is running.
func (s *Server) OldestActiveQuery() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	min := ^uint64(0)
	for id := range s.queries {
		if id < min {
			min = id
		}
	}
	return min
}

// ReplaceChunks atomically swaps a set of input chunks for their
// compacted outputs: in one critical section the inputs are verified and
// dropped, and the outputs registered with fresh IDs. A concurrent
// ChunksForWithWatermark sees either every input or every output, never
// a mix, so no query plan can double-count or miss the region. Returns
// the registered outputs, the dropped input infos (the caller retires
// their files), and false — with no change — if any input is missing.
func (s *Server) ReplaceChunks(outs []ChunkInfo, ins []model.ChunkID) (registered, dropped []ChunkInfo, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped = make([]ChunkInfo, len(ins))
	for i, id := range ins {
		info, found := s.chunks[id]
		if !found {
			return nil, nil, false
		}
		dropped[i] = info
	}
	for _, info := range dropped {
		delete(s.chunks, info.ID)
		id := info.ID
		s.regions.Delete(info.Region, func(v any) bool { return v.(model.ChunkID) == id })
		s.tiers.remove(info.Region.Times)
	}
	registered = make([]ChunkInfo, len(outs))
	for i, info := range outs {
		s.nextChunk++
		info.ID = model.ChunkID(s.nextChunk)
		s.chunks[info.ID] = info
		s.regions.Insert(info.Region, info.ID)
		s.trackLocked(info)
		registered[i] = info
	}
	return registered, dropped, true
}

// ChunksForWindowsWithWatermark is ChunksForWithWatermark restricted to a
// set of time windows inside r: the bucket hierarchy is consulted first,
// and R-tree candidates whose hour buckets meet no window are pruned
// without ever reading their headers. pruned counts the candidates
// eliminated at the bucket level — the waterwheel_tier_pruned_chunks_total
// feed. The windows must lie within r.Times; chunks too wide for the
// hierarchy are never pruned.
func (s *Server) ChunksForWindowsWithWatermark(r model.Region, windows []model.TimeRange) (chunks []ChunkInfo, pruned int, watermark uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	matched := make(map[int64]struct{})
	s.tiers.matchHours(windows, matched)
	ids := s.regions.Search(r)
	out := make([]ChunkInfo, 0, len(ids))
	for _, v := range ids {
		info := s.chunks[v.(model.ChunkID)]
		hLo, hHi, tracked := s.tiers.span(info.Region.Times)
		keep := !tracked
		for h := hLo; tracked && h <= hHi; h++ {
			if _, hit := matched[h]; hit {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, info)
		} else {
			pruned++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, pruned, s.nextChunk + 1
}
