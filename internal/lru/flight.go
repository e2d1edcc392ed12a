package lru

import "sync"

// FlightGroup deduplicates concurrent executions of the same keyed
// operation: while one caller (the leader) runs fn, later callers with the
// same key block and receive the leader's result instead of re-running fn.
// Query servers use it so concurrent subqueries missing the same chunk
// extent trigger one DFS read that fills the cache for everyone.
//
// Unlike a cache, the group retains nothing: the key is forgotten the
// moment the leader's fn returns, so a failed read is retried by the next
// caller and successful results live only in the LRU the leader populated.
type FlightGroup[K comparable] struct {
	mu    sync.Mutex
	calls map[K]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Do executes fn under key, deduplicating concurrent callers. It returns
// fn's result and whether this caller shared a flight led by another
// (shared is false for the leader).
func (g *FlightGroup[K]) Do(key K, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	if g.calls == nil {
		g.calls = make(map[K]*flightCall)
	}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
