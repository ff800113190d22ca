package core

import (
	"container/list"
	"sync"
)

// cacheKey identifies one answer in the path cache. Version is the engine's
// graph version, bumped whenever the loaded graph or the SegTable index
// changes, so stale answers die without an explicit sweep: keys minted
// against an old version can never match again and age out of the LRU.
type cacheKey struct {
	version uint64
	alg     Algorithm
	s, t    int64
}

// CacheStats snapshots path-cache effectiveness for the serving tier.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Invalidations counts whole-cache purges (graph reload, index build,
	// edge insertion).
	Invalidations uint64
	Entries       int
	Capacity      int
}

// pathCache is a bounded LRU of shortest-path answers keyed by
// (graph version, algorithm, source, target). It is the layer that turns
// the single-writer engine into a serving tier: repeated queries — the
// common shape of road-network and social-graph traffic — bypass the
// relational search entirely and never touch the query gate.
type pathCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are *cacheEntry
	index map[cacheKey]*list.Element
	stats CacheStats
}

type cacheEntry struct {
	key  cacheKey
	path Path
}

// newPathCache creates a cache holding at most capacity answers.
func newPathCache(capacity int) *pathCache {
	return &pathCache{
		cap:   capacity,
		lru:   list.New(),
		index: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns a copy of the cached path for key, if present.
func (c *pathCache) get(key cacheKey) (Path, bool) {
	return c.lookup(key, true)
}

// recheck is the lookup that counts only hits: Query's probe before
// admission, whose miss the lookup inside the admission counts.
func (c *pathCache) recheck(key cacheKey) (Path, bool) {
	return c.lookup(key, false)
}

func (c *pathCache) lookup(key cacheKey, countMiss bool) (Path, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		if countMiss {
			c.stats.Misses++
		}
		return Path{}, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return copyPath(el.Value.(*cacheEntry).path), true
}

// put stores a copy of path under key, evicting the LRU entry when full.
func (c *pathCache) put(key cacheKey, path Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		el.Value.(*cacheEntry).path = copyPath(path)
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.index, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
	c.index[key] = c.lru.PushFront(&cacheEntry{key: key, path: copyPath(path)})
}

// purge drops every entry (the version bump already makes them
// unreachable; purging releases the memory immediately).
func (c *pathCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.index = make(map[cacheKey]*list.Element, c.cap)
	c.stats.Invalidations++
}

// snapshot returns the current counters.
func (c *pathCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Capacity = c.cap
	return s
}

// copyPath deep-copies a Path so cache entries and callers never share the
// Nodes slice.
func copyPath(p Path) Path {
	if p.Nodes != nil {
		nodes := make([]int64, len(p.Nodes))
		copy(nodes, p.Nodes)
		p.Nodes = nodes
	}
	return p
}
