package routing

import (
	"sync"
	"sync/atomic"

	"bgqflow/internal/torus"
)

// maxRoutes bounds how many routes a Cache stores per failure epoch.
const maxRoutes = 1 << 15

// cacheKey identifies one cached route by its endpoints.
type cacheKey struct {
	src, dst torus.NodeID
}

// Cache memoizes a deterministic route oracle: any func(src, dst) that
// returns the directed-link path between two endpoints of one fabric
// (the torus's default dimension-ordered route, or a topology's route
// oracle). Deterministic routes are pure functions of (src, dst) on a
// fixed fabric, and the flow simulator asks for the same routes once per
// flow — across collective I/O rounds, proxy legs, and repeated engine
// runs over one network — so memoizing them removes the route walk and
// its allocation from the per-flow hot path.
//
// The memo holds at most maxRoutes (2^15) routes per failure epoch.
// Past that a miss still walks the route, returns it and counts it, but
// does not store it: a full-Mira flow set asks for over 126,000
// distinct routes and reuses 3.5% of them, so memoizing them all would
// cost more than it saves. The route sets bgqbench's experiments reuse
// fit under the bound (DESIGN.md §8).
//
// Cached routes share one exactly-sized Links slice per entry: callers
// must treat Route.Links as read-only. Appending to it is safe (the
// slice has no spare capacity, so append always copies), which is how
// ionet extends bridge routes with the 11th link.
//
// A Cache is safe for concurrent use. Fault handling: failed links do
// not change what the oracle returns, so cached routes stay
// byte-identical across failures — but no entry memoized before a
// failure event may be served afterwards without a fresh look at the
// world. Every failure event therefore calls Invalidate, which purges
// the map and bumps the failure epoch; the cache then repopulates from
// current state and stays hot for the rest of the campaign (DESIGN.md §8
// documents the invalidation rule).
type Cache struct {
	route func(src, dst torus.NodeID) []int

	mu     sync.RWMutex
	routes map[cacheKey][]int
	epoch  uint64 // failure events seen (Invalidate calls)

	hits, misses atomic.Uint64
}

// NewCache returns an empty cache over the route oracle route. The
// oracle must be deterministic and must not modify a slice it returned
// earlier; the cache keeps exactly-sized copies of what it returns
// (or the slice itself when it is already exactly sized).
func NewCache(route func(src, dst torus.NodeID) []int) *Cache {
	return &Cache{route: route, routes: make(map[cacheKey][]int)}
}

// Route returns the oracle's route from src to dst, served from the
// cache when possible and stored while the cache holds fewer than
// maxRoutes routes.
func (c *Cache) Route(src, dst torus.NodeID) Route {
	key := cacheKey{src, dst}
	c.mu.RLock()
	links, ok := c.routes[key]
	if ok {
		// Count the hit while still holding the read lock: Invalidate
		// resets the counters under the write lock, so counting after
		// RUnlock would let a concurrent Invalidate zero the counters
		// first and leak this epoch-N hit into epoch N+1 — observers
		// would see hits > 0 on a cache that is provably empty.
		c.hits.Add(1)
	}
	c.mu.RUnlock()
	if ok {
		return Route{Src: src, Dst: dst, Links: links}
	}
	links = c.route(src, dst)
	if cap(links) != len(links) {
		// Store an exactly-sized copy so callers appending to Links
		// always reallocate instead of scribbling over the cached slice.
		exact := make([]int, len(links))
		copy(exact, links)
		links = exact
	}
	c.mu.Lock()
	// The miss is counted in the same critical section that stores the
	// entry, so it always lands in the epoch whose map it populated,
	// even when an Invalidate slid in since the read.
	c.misses.Add(1)
	if len(c.routes) < maxRoutes {
		c.routes[key] = links
	}
	c.mu.Unlock()
	return Route{Src: src, Dst: dst, Links: links}
}

// Invalidate records one failure event: it purges every cached route and
// advances the failure epoch. The cache stays active, so lookups
// repopulate it from post-failure state — the memoized routes are pure
// functions of the (unchanged) fabric, and fail-stop checks against
// failed links are made by the submitting layer against live state,
// never against the cache. Each failure event must call Invalidate
// again: repeated calls purge idempotently. The hit/miss counters reset
// with the purge — they describe the current epoch's (cold-started)
// cache, so observability reads hit rates per failure epoch rather than
// blended across purges.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.routes = make(map[cacheKey][]int)
	c.epoch++
	c.hits.Store(0)
	c.misses.Store(0)
	c.mu.Unlock()
}

// Epoch reports how many failure events (Invalidate calls) the cache has
// absorbed.
func (c *Cache) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Len reports the number of cached routes, at most maxRoutes.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.routes)
}

// Counts reports the cache's observability counters: hits and misses in
// the current failure epoch (both reset by Invalidate, which cold-starts
// the cache) and the number of invalidations absorbed so far.
func (c *Cache) Counts() (hits, misses, invalidations uint64) {
	hits, misses = c.hits.Load(), c.misses.Load()
	return hits, misses, c.Epoch()
}
