package queryexec

// Fail injects a failure: subsequent subqueries error until Recover.
func (s *Server) Fail() { s.down.Store(true) }

// Recover clears an injected failure.
func (s *Server) Recover() { s.down.Store(false) }

// SetPolicy switches the dispatch policy.
func (c *Coordinator) SetPolicy(p Policy) {
	c.mu.Lock()
	c.cfg.Policy = p
	c.mu.Unlock()
}
