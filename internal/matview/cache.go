package matview

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheShards splits the LRU into independently locked shards so hits on
// the hot read path never contend on the invalidation index.
const cacheShards = 16

// entryOverheadBytes approximates the per-entry bookkeeping cost (list
// element, map slots, friend-index registrations) charged against the
// byte budget on top of the caller-reported value size.
const entryOverheadBytes = 96

// entry is one cached result plus the bookkeeping to unregister it.
type entry struct {
	key     string
	value   any
	size    int64
	friends []int64
	elem    *list.Element
}

// cacheShard is one LRU partition: a key map plus a recency list with the
// most recent entry at the front.
type cacheShard struct {
	mu    sync.Mutex
	items map[string]*entry
	lru   *list.List
	bytes int64
}

// ResultCache memoizes personalized query results keyed by the normalized
// query spec. It is a sharded LRU bounded by bytes, with two pieces of
// invalidation state shared across shards:
//
//   - an index from friend (user) id to the cache entries whose friend
//     set contains it, so a check-in write removes exactly the results it
//     stales. It holds entry pointers, not keys: a key spells out the
//     whole friend list, so hashing it once per friend would make
//     registering a search quadratic in its friend count;
//   - a monotone epoch per friend, bumped on every invalidating write
//     while a query holds a Snapshot of that friend.
//
// The epochs close the race between a query's scan and its store: callers
// Snapshot the epochs of the query's friends before scanning and pass the
// snapshot to StoreIfFresh, which rejects the store if any epoch advanced
// — a result computed from pre-write state never overwrites the
// invalidation that should have killed it. Snapshots are reference
// counted (pending): Invalidate bumps an epoch only while at least one
// snapshot holds the user, and releasing the last snapshot of a user
// drops their epoch entry, so the epoch map is bounded by in-flight
// queries instead of growing with the distinct-writer population.
type ResultCache struct {
	shardBytes int64
	shards     [cacheShards]cacheShard

	// liveBytes/liveEntries mirror the summed shard accounting so gauges
	// publish without touching any shard mutex.
	liveBytes   atomic.Int64
	liveEntries atomic.Int64

	// indexMu guards byFriend, epochs and pending. Lock order: indexMu
	// before any shard mu; Get takes only the shard mu.
	indexMu  sync.Mutex
	byFriend map[int64]map[*entry]struct{}
	epochs   map[int64]uint64
	pending  map[int64]int
}

// NewResultCache builds a cache bounded at maxBytes across all shards.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes < cacheShards {
		maxBytes = cacheShards
	}
	c := &ResultCache{
		shardBytes: maxBytes / cacheShards,
		byFriend:   map[int64]map[*entry]struct{}{},
		epochs:     map[int64]uint64{},
		pending:    map[int64]int{},
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{items: map[string]*entry{}, lru: list.New()}
	}
	return c
}

// fnv1a hashes a key to pick its shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *ResultCache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)%cacheShards]
}

// Get returns the cached value for key, refreshing its recency.
func (c *ResultCache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if ok {
		mCacheHits.Inc()
		return e.value, true
	}
	mCacheMisses.Inc()
	return nil, false
}

// EpochSnapshot is a claim on the epochs of one query's friend set, taken
// before the query's scan. It must be settled exactly once: StoreIfFresh
// consumes it, and any path that abandons the store (scan error, degraded
// answer) must call Release instead. While unsettled it pins the friends'
// epoch entries so an invalidating write is guaranteed to be visible to
// the freshness check.
type EpochSnapshot struct {
	c        *ResultCache
	friends  []int64
	epochs   []uint64
	released bool
}

// Snapshot captures the current epoch of every given friend and registers
// the claim that keeps those epochs live. Take it before running the
// query's scan and hand it to StoreIfFresh (which consumes it) or Release
// it if the result is never stored.
func (c *ResultCache) Snapshot(friends []int64) *EpochSnapshot {
	s := &EpochSnapshot{c: c, friends: friends, epochs: make([]uint64, len(friends))}
	c.indexMu.Lock()
	for i, f := range friends {
		s.epochs[i] = c.epochs[f]
		c.pending[f]++
	}
	c.indexMu.Unlock()
	return s
}

// Release drops the snapshot's claim without storing. Idempotent and
// nil-safe; StoreIfFresh releases internally, so only abandoned snapshots
// need an explicit call.
func (s *EpochSnapshot) Release() {
	if s == nil {
		return
	}
	s.c.indexMu.Lock()
	s.releaseLocked()
	s.c.indexMu.Unlock()
}

// releaseLocked returns the snapshot's pending claims and prunes the
// epoch entries nobody holds anymore: once the last claim on a user is
// gone, no outstanding snapshot can ever compare against their epoch, so
// dropping it is safe and keeps the map bounded. Called with indexMu
// held.
func (s *EpochSnapshot) releaseLocked() {
	if s.released {
		return
	}
	s.released = true
	for _, f := range s.friends {
		if n := s.c.pending[f]; n > 1 {
			s.c.pending[f] = n - 1
		} else {
			delete(s.c.pending, f)
			delete(s.c.epochs, f)
		}
	}
}

// StoreIfFresh inserts a value computed for snap's friend set, unless any
// friend's epoch advanced since snap was taken (the value would embed
// pre-invalidation state) or the value alone exceeds a shard's budget.
// The snapshot is consumed — released whether or not the value is stored.
// valueBytes is the caller's estimate of the value's retained size; key
// and index overhead are charged on top. Reports whether the value was
// stored.
func (c *ResultCache) StoreIfFresh(key string, snap *EpochSnapshot, value any, valueBytes int64) bool {
	var friends []int64
	if snap != nil {
		friends = snap.friends
	}
	size := valueBytes + int64(len(key)) + int64(len(friends))*8 + entryOverheadBytes
	c.indexMu.Lock()
	defer c.indexMu.Unlock()
	if snap != nil {
		defer snap.releaseLocked()
	}
	if size > c.shardBytes {
		return false
	}
	if snap != nil {
		for i, f := range snap.friends {
			if c.epochs[f] != snap.epochs[i] {
				mCacheStaleStores.Inc()
				return false
			}
		}
	}
	s := c.shard(key)
	s.mu.Lock()
	// Unregister a replaced entry BEFORE registering the new one's
	// friends: the old entry carries the same key, so the reverse order
	// would strip the index registrations just added and leave the
	// replacement invisible to Invalidate.
	if old, ok := s.items[key]; ok {
		c.removeLocked(s, old)
		c.unregisterLocked(old)
	}
	e := &entry{key: key, value: value, size: size, friends: friends}
	for _, f := range friends {
		entries := c.byFriend[f]
		if entries == nil {
			entries = map[*entry]struct{}{}
			c.byFriend[f] = entries
		}
		entries[e] = struct{}{}
	}
	e.elem = s.lru.PushFront(e)
	s.items[key] = e
	s.bytes += size
	c.liveBytes.Add(size)
	c.liveEntries.Add(1)
	for s.bytes > c.shardBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.removeLocked(s, victim)
		c.unregisterLocked(victim)
		mCacheEvictions.Inc()
	}
	s.mu.Unlock()
	c.publishGauges()
	return true
}

// removeLocked detaches e from its shard's map, list, byte account and
// the cache-wide gauge counters. Called with the shard's mu held.
func (c *ResultCache) removeLocked(s *cacheShard, e *entry) {
	delete(s.items, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.size
	c.liveBytes.Add(-e.size)
	c.liveEntries.Add(-1)
}

// unregisterLocked removes e from every friend's index set. Called with
// indexMu held.
func (c *ResultCache) unregisterLocked(e *entry) {
	for _, f := range e.friends {
		entries := c.byFriend[f]
		if entries == nil {
			continue
		}
		delete(entries, e)
		if len(entries) == 0 {
			delete(c.byFriend, f)
		}
	}
}

// Invalidate removes the cached results whose friend set contains one of
// the given users, and bumps the epoch of each user a live snapshot
// holds. The Visits store hook calls it with each committed batch's user
// ids, so a friend's check-in immediately stales every memoized result it
// contributed to. Users with neither a cached entry nor an outstanding
// snapshot leave no state behind — there is nothing of theirs to stale.
func (c *ResultCache) Invalidate(userIDs []int64) {
	if len(userIDs) == 0 {
		return
	}
	c.indexMu.Lock()
	var removed int64
	for _, uid := range userIDs {
		if c.pending[uid] > 0 {
			c.epochs[uid]++
		}
		for e := range c.byFriend[uid] {
			// Every indexed entry is live: replacement and eviction
			// unregister an entry under indexMu before it leaves its
			// shard. The check keeps a stale index slot from ever removing
			// the key's current entry.
			s := c.shard(e.key)
			s.mu.Lock()
			live := s.items[e.key] == e
			if live {
				c.removeLocked(s, e)
			}
			s.mu.Unlock()
			c.unregisterLocked(e)
			if live {
				removed++
			}
		}
	}
	c.indexMu.Unlock()
	if removed > 0 {
		mCacheInvalidations.Add(removed)
	}
	c.publishGauges()
}

// publishGauges pushes the incrementally maintained size counters to the
// registry. Lock-free, so it is cheap enough to run on every mutation.
func (c *ResultCache) publishGauges() {
	mCacheBytes.Set(c.liveBytes.Load())
	mCacheEntries.Set(c.liveEntries.Load())
}

// Len returns the live entry count.
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the charged byte total.
func (c *ResultCache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
