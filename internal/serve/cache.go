package serve

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"bgqflow/internal/cluster"
	"bgqflow/internal/scenario"
)

// planCache is a sharded plan cache with link-scoped invalidation and
// singleflight-style request coalescing. It also holds the published
// fault state, so a lookup can judge an entry against it.
//
// Concurrency discipline (DESIGN.md §12):
//
//   - A request loads ONE faultSnapshot and plans against it; its entry
//     is stamped with that snapshot's epoch and keeps the read set the
//     computation recorded (the links whose failed state it read, and
//     whether it asked if the fault set is empty).
//   - A fault event publishes the next snapshot in one atomic store:
//     epoch+1, the new fault set and vector, and the changed links
//     stamped with epoch+1 (publish; callers serialize on Server.mu).
//   - A lookup under snapshot r serves an entry stamped s when s == r,
//     or when the entry is complete and none of the links it read
//     changed after min(s, r) and its emptiness read gives the same
//     answer under r. Entries without a read set are served only when
//     s == r, so every event invalidates them.
//
// A plan's computation reads the fault state only through the reads it
// records, so replaying it under r would read the same values, take the
// same path and produce the same bytes: a served plan is always the plan
// of the requesting snapshot. The stamps consulted come from the latest
// snapshot, which is at least as new as both s and r.
type planCache struct {
	state    atomic.Pointer[faultSnapshot]
	maxShard int
	shards   []cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one cached (or in-flight) plan computation. ready is
// closed once val/err/reads are final; waiters that find an unready
// entry of their own epoch are coalesced onto it instead of recomputing.
type cacheEntry struct {
	epoch uint64 // guarded by the shard mutex: a revalidated entry is restamped
	ready chan struct{}
	val   []byte
	err   error
	reads *readSet // nil: no read set recorded
}

// cacheOutcome says how a Do call was satisfied.
type cacheOutcome int

const (
	// outcomeComputed: this caller ran the computation.
	outcomeComputed cacheOutcome = iota
	// outcomeHit: a completed entry valid for the caller's snapshot was
	// served.
	outcomeHit
	// outcomeCoalesced: the caller attached to an in-flight computation.
	outcomeCoalesced
)

func newPlanCache(shards, entriesPerShard int) *planCache {
	if shards < 1 {
		shards = 1
	}
	if entriesPerShard < 1 {
		entriesPerShard = 1
	}
	c := &planCache{maxShard: entriesPerShard, shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	c.state.Store(&faultSnapshot{lowNode: lowestFaulted(nil)})
	return c
}

// current returns the latest published fault snapshot.
func (c *planCache) current() *faultSnapshot { return c.state.Load() }

// Epoch returns the current invalidation epoch.
func (c *planCache) Epoch() uint64 { return c.current().epoch }

// publish is the one fault-publish step: it installs the snapshot that
// follows the current one with fault set faults and vector vec,
// stamping the links whose failed state changed, and returns it.
// Entries are judged lazily at lookup rather than swept, so publish
// costs O(changed links + stamped links), whatever the cache holds.
// Callers serialize publishes (Server.mu); faults and vec must not be
// mutated afterwards.
func (c *planCache) publish(faults []scenario.FailLink, vec cluster.Vector) *faultSnapshot {
	next := nextSnapshot(c.current(), faults, vec)
	c.state.Store(next)
	return next
}

func (c *planCache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[int(h.Sum32())%len(c.shards)]
}

// Do returns the plan for key as the snapshot snap sees it, computing
// it at most once per snapshot across concurrent callers. compute plans
// against snap and returns the plan with its read set (nil for none).
// Failed computations are not cached.
func (c *planCache) Do(key string, snap *faultSnapshot, compute func() ([]byte, *readSet, error)) ([]byte, error, cacheOutcome) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	old := sh.m[key]
	if old != nil && old.epoch == snap.epoch {
		sh.mu.Unlock()
		select {
		case <-old.ready:
			return old.val, old.err, outcomeHit
		default:
		}
		<-old.ready
		return old.val, old.err, outcomeCoalesced
	}
	if old != nil && c.servable(old, snap) {
		if old.epoch < snap.epoch {
			// The plan is the plan of snap too: restamp it so later
			// lookups under snap take the same-epoch path.
			old.epoch = snap.epoch
		}
		sh.mu.Unlock()
		return old.val, nil, outcomeHit
	}
	e := &cacheEntry{epoch: snap.epoch, ready: make(chan struct{})}
	// A request that raced behind a newer entry computes privately
	// rather than displace it.
	install := old == nil || old.epoch < snap.epoch
	if install {
		if old == nil && len(sh.m) >= c.maxShard {
			// Shard full: drop an arbitrary entry. Eviction never blocks
			// waiters — they hold the entry pointer, not the map slot.
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
		sh.m[key] = e
	}
	sh.mu.Unlock()

	e.val, e.reads, e.err = compute()
	close(e.ready)
	if e.err != nil && install {
		// Do not cache failures (including load-shed computations): the
		// next request must be free to retry. Only remove the slot if it
		// is still ours — a newer snapshot's entry may have replaced it.
		sh.mu.Lock()
		if sh.m[key] == e {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
	}
	return e.val, e.err, outcomeComputed
}

// servable reports whether entry e, stamped with another epoch than
// snap, holds the plan snap would compute. Caller holds the shard lock.
func (c *planCache) servable(e *cacheEntry, snap *faultSnapshot) bool {
	select {
	case <-e.ready:
	default:
		return false // still computing: its read set is not known yet
	}
	rs := e.reads
	if e.err != nil || rs == nil {
		return false
	}
	if c.current().changedSince(rs.links, min(e.epoch, snap.epoch)) {
		return false
	}
	return !rs.askedAny || snap.anyApplicable(rs.size, rs.dims) == rs.anyFailed
}

// Len reports the number of resident entries across all shards
// (entries no longer servable included until evicted or replaced).
func (c *planCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
