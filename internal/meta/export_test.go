package meta

import "waterwheel/internal/model"

// Actual returns the actual key interval of an indexing server: its live
// region's keys.
func (s *Server) Actual(server int) model.KeyRange {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live[server].Keys
}
