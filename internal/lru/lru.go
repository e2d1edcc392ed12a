// Package lru implements the byte-budgeted LRU cache query servers use to
// keep frequently accessed chunk data in memory (paper §IV-B). The caching
// unit is a template or a leaf; eviction follows the LRU policy [32].
package lru

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU cache with a byte budget, keyed by any
// comparable type (the query server's key is a small struct, so a lookup
// builds no string). Each entry carries its own size; inserting past the
// budget evicts least-recently used entries until the new entry fits.
type Cache[K comparable] struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[K]*list.Element

	hits      int64
	misses    int64
	evictions int64

	// onEvict, when set, observes each eviction. Called with the cache
	// lock held: the hook must be cheap and must not call back into the
	// cache.
	onEvict func(key K, size int64)
}

type entry[K comparable] struct {
	key   K
	value any
	size  int64
}

// New creates a cache with the given byte capacity. A capacity <= 0
// disables caching (every Get misses, every Put is dropped).
func New[K comparable](capacity int64) *Cache[K] {
	return &Cache[K]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
	}
}

// SetEvictHook installs a callback observing evictions (telemetry). The
// hook runs with the cache lock held; it must be cheap and must not call
// back into the cache. Install before concurrent use.
func (c *Cache[K]) SetEvictHook(fn func(key K, size int64)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the cached value and whether it was present, promoting the
// entry to most-recently-used.
func (c *Cache[K]) Get(key K) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K]).value, true
}

// Put inserts or replaces a value with the given size in bytes. Entries
// larger than the whole capacity are not cached.
func (c *Cache[K]) Put(key K, value any, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		// Too large to ever fit; drop (and remove any stale version).
		c.removeLocked(key)
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K])
		c.used += size - e.size
		e.value, e.size = value, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry[K]{key: key, value: value, size: size})
		c.items[key] = el
		c.used += size
	}
	for c.used > c.capacity {
		c.evictOldestLocked()
	}
}

// RemoveFunc drops every entry whose key satisfies pred, returning the
// number removed. Chunk retirement uses it to purge a dropped chunk's
// header and leaves in one pass.
func (c *Cache[K]) RemoveFunc(pred func(key K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed []K
	for key := range c.items {
		if pred(key) {
			doomed = append(doomed, key)
		}
	}
	for _, key := range doomed {
		c.removeLocked(key)
	}
	return len(doomed)
}

func (c *Cache[K]) removeLocked(key K) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K])
		c.ll.Remove(el)
		delete(c.items, key)
		c.used -= e.size
	}
}

func (c *Cache[K]) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry[K])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.used -= e.size
	c.evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, e.size)
	}
}

// Metrics is a snapshot of the cache counters.
type Metrics struct {
	Hits, Misses, Evictions int64
	Used, Capacity          int64
	Entries                 int
}

// Metrics returns a snapshot of the counters.
func (c *Cache[K]) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Used: c.used, Capacity: c.capacity, Entries: c.ll.Len(),
	}
}
