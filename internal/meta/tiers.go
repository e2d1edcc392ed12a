// Retention tiers on chunk metadata: retention demotes chunks hot → warm →
// cold by age instead of deleting them outright, and only the coldest tier
// is ever compacted or dropped.

package meta

import "waterwheel/internal/model"

// Retention tiers, coldest last.
const (
	TierHot = iota
	TierWarm
	TierCold
)

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
