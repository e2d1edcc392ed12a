package queryexec

// Fail injects a failure: subsequent subqueries error until Recover.
func (s *Server) Fail() { s.down.Store(true) }

// Recover clears an injected failure.
func (s *Server) Recover() { s.down.Store(false) }

// SetPolicy switches the dispatch policy. Call it between queries, never
// during one: the policy is fixed for a coordinator's life otherwise.
func (c *Coordinator) SetPolicy(p Policy) {
	c.cfg.Policy, c.policy, c.dispatch = p, p.Name(), c.m.dispatchHist(p.Name())
}
