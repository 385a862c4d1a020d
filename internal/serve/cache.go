package serve

import (
	"math/bits"
	"runtime"

	"repro/internal/core"
)

// shardedCache spreads the compiled fault-set cache over a power-of-two
// number of independent lruCache shards so that the read path scales with
// cores: a probe locks only the shard its canonical fault-label hash maps
// to, and probes of different failure events proceed in parallel instead of
// funneling through one global mutex. Each shard keeps the full LRU,
// generation, collision, and singleflight-compile semantics of lruCache
// (the compile itself always ran outside the lock; sharding narrows what
// the lock protects to one shard's bookkeeping).
//
// The update sweep is sharded too: applyUpdate walks the shards one at a
// time, so a /update commit only ever stalls probes of one shard while the
// other shards keep serving. Per-entry soundness is unchanged — the sweep
// and the probe path reason about each entry's generation independently,
// so the order in which shards are swept cannot be observed beyond the
// staleness the unsharded cache already tolerated (a probe that races the
// sweep finds either the old entry, which it replaces, or the rebased one).
//
// The requested capacity is divided evenly across shards (shards never
// exceed the capacity, so every shard holds at least one entry and the
// total never exceeds the request). Hit/miss/evict/rebase counters live in
// the shards as atomics; stats aggregates them without stopping the world.
type shardedCache struct {
	shards []*lruCache
	mask   uint64
}

// maxCacheShards bounds the shard count: past the core count sharding buys
// no parallelism, and 64 shards puts the lock-contention ceiling three
// orders of magnitude above a single mutex — far beyond the fleet sizes
// the daemon targets.
const maxCacheShards = 64

// defaultCacheShards picks every server's shard count from its capacity:
// the largest power of two that keeps at least 16 entries per shard,
// capped by maxCacheShards and by 4×GOMAXPROCS. Small caches (tests, tiny
// deployments) get one shard and behave exactly like the historical
// single-lock LRU; the ftcserve default of 256 gets 16 on four or more
// cores.
func defaultCacheShards(capacity int) int {
	want := capacity / 16
	if want > maxCacheShards {
		want = maxCacheShards
	}
	if c := runtime.GOMAXPROCS(0) * 4; want > c {
		want = c
	}
	if want < 1 {
		want = 1
	}
	return floorPow2(want)
}

func floorPow2(n int) int {
	if n < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// newShardedCache builds a cache of the given total capacity split over
// the given shard count (0 = defaultCacheShards; non-powers of two are
// rounded down; shards are clamped so each holds at least one entry).
// When the capacity does not divide evenly, the remainder is spread one
// entry each over the first shards, so the total always equals the
// request.
func newShardedCache(capacity, shards int) *shardedCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = defaultCacheShards(capacity)
	}
	shards = floorPow2(shards)
	if shards > maxCacheShards {
		shards = maxCacheShards
	}
	for shards > capacity {
		shards >>= 1
	}
	c := &shardedCache{
		shards: make([]*lruCache, shards),
		mask:   uint64(shards - 1),
	}
	per, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := per
		if i < extra {
			cap++
		}
		c.shards[i] = newLRUCache(cap)
	}
	return c
}

func (c *shardedCache) shardFor(key uint64) *lruCache {
	return c.shards[key&c.mask]
}

// get is lruCache.get against the owning shard.
func (c *shardedCache) get(key uint64, canon []int, gen uint64) (*cacheEntry, bool) {
	return c.shardFor(key).get(key, canon, gen)
}

// applyUpdate sweeps every shard in turn, locking one at a time.
//
// A rebased entry's canonical indices can be remapped, which moves its key
// — possibly across shards. The per-shard sweep re-homes entries within
// their shard only, so a cross-shard mover is evicted instead of rebased:
// strictly less warm state retained than the unsharded sweep, never less
// sound (the entry recompiles on next use). Same-shard movers keep the
// full rebase path.
func (c *shardedCache) applyUpdate(rep *core.CommitReport) (evicted, rebased int) {
	for i, sh := range c.shards {
		e, r := sh.applyUpdate(rep, c.mask, uint64(i))
		evicted += e
		rebased += r
	}
	return evicted, rebased
}

// ShardStats is the per-shard slice of the cache counters surfaced by
// GET /stats.
type ShardStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

func (c *shardedCache) stats() (hits, misses, evicted, rebased, capEvicted uint64, size, capacity int, per []ShardStats) {
	per = make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		h, m, e, r, ce, s, cp := sh.stats()
		per[i] = ShardStats{Size: s, Capacity: cp, Hits: h, Misses: m}
		hits += h
		misses += m
		evicted += e
		rebased += r
		capEvicted += ce
		size += s
		capacity += cp
	}
	return
}
