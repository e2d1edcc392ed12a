package meta

import (
	"sort"

	"waterwheel/internal/model"
)

// Read-backs of state production only writes and persists: the registered
// queries (what a replacement coordinator would re-run, §V) and the WAL
// offset recorded at a slot's last ownership transfer.

// ActiveQueries returns the registered, unfinished queries — what a new
// coordinator re-initializes after a failover (§V).
func (s *Server) ActiveQueries() []QueryInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]QueryInfo, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HandoffOffset returns the WAL offset recorded at the slot's last
// ownership transfer — where the incoming owner resumed replay.
func (s *Server) HandoffOffset(server int) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if server < 0 || server >= len(s.handoffs) {
		return 0
	}
	return s.handoffs[server]
}

// Actual returns the actual key interval of an indexing server.
func (s *Server) Actual(server int) model.KeyRange {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.actual[server]
}
