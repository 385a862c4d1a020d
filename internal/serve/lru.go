package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serve/wire"
)

// cacheEntry is one compiled failure event at one scheme generation. The
// FaultSet is compiled at most once per entry (outside the cache lock, via
// once), so a slow compile of one event never blocks probes of other
// events, and concurrent first requests for the same event share one
// compilation. compiled flips after once completes; the update sweep only
// rebases entries whose compilation finished (an in-flight one is simply
// evicted and recompiled on next use).
type cacheEntry struct {
	key      uint64
	canon    []int // canonical fault edge indices, for collision detection
	gen      uint64
	once     sync.Once
	compiled atomic.Bool
	fs       *core.FaultSet
	err      error
}

// lruCache is the server's one cache of compiled fault sets: a
// mutex-guarded LRU keyed by the canonical fault-label hash (wire.FaultKey).
// The lock covers only map/list bookkeeping and the counters; compilation
// and probing happen outside it. Entries are generation-stamped: an update
// sweep (applyUpdate) evicts exactly the entries whose fault edges were
// relabeled or removed and rebases the rest in place, keeping their warm
// closures.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	items   map[uint64]*list.Element
	hits    uint64
	misses  uint64
	evicted uint64 // entries dropped by update sweeps
	rebased uint64 // entries carried across generations by update sweeps
	// capEvicted counts entries displaced by capacity pressure (the LRU
	// eviction proper, as opposed to update-sweep drops) — the signal that
	// the cache is undersized for the working set.
	capEvicted uint64
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[uint64]*list.Element, capacity),
	}
}

// get returns the entry for (key, canon) at generation gen, inserting (and
// LRU-evicting) as needed. hit reports whether a matching entry already
// existed. A nil entry signals a key collision — the cached entry belongs
// to a different canonical fault set — and the caller must bypass the
// cache. An entry left over from an older generation (possible only when a
// probe raced an update sweep) is replaced, not returned.
func (c *lruCache) get(key uint64, canon []int, gen uint64) (ent *cacheEntry, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		if !equalInts(ent.canon, canon) {
			// Collision bypass: count as a miss so lookups == hits+misses.
			c.misses++
			return nil, false
		}
		if ent.gen == gen {
			c.ll.MoveToFront(el)
			c.hits++
			return ent, true
		}
		if ent.gen > gen {
			// The entry is newer than the caller's snapshot: a probe still
			// holding a superseded view must not evict the warm entry the
			// update sweep just rebased. Bypass the cache, like the
			// collision path.
			c.misses++
			return nil, false
		}
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.misses++
	ent = &cacheEntry{key: key, canon: append([]int(nil), canon...), gen: gen}
	c.items[key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.capEvicted++
	}
	return ent, false
}

// applyUpdate sweeps the cache after a committed batch: entries containing
// a relabeled or removed fault edge (or not yet compiled) are evicted;
// every other entry is remapped to post-commit edge indices and rebased to
// the new generation, keeping its compiled fragment state and closures
// warm. Returns how many entries each fate met. The sweep holds the lock
// for its whole pass.
//
// Probes are not serialized with updates, so the cache can hold entries
// from other generations than the one this report supersedes: an entry
// already at rep.Gen (a probe raced ahead of the sweep) is left untouched
// — its canonical indices are already post-commit, so remapping it again
// would corrupt it — and an entry at any generation other than rep.Gen-1
// is evicted, because this report says nothing about the commits it
// missed.
func (c *lruCache) applyUpdate(rep *core.CommitReport) (evicted, rebased int) {
	if rep.Incremental && len(rep.Relabeled) == 0 && len(rep.Removed) == 0 && rep.Remap == nil {
		return 0, 0 // no-op commit: no generation change, nothing to sweep
	}
	relabeled := map[int]bool{}
	for _, e := range rep.Relabeled {
		relabeled[e] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every swept entry leaves the map before any rebased one re-enters
	// it: a remapped key can equal the old key of an entry not yet swept
	// (removing edge r moves {e} onto {e-1}'s slot).
	var moved []*list.Element
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.gen == rep.Gen {
			continue
		}
		delete(c.items, ent.key)
		// Entries that never compiled — or compiled to an error (fs nil) —
		// carry nothing worth rebasing; recompiling on next use is cheap.
		drop := !rep.Incremental || ent.gen != rep.Gen-1 || !ent.compiled.Load() || ent.fs == nil
		canon := ent.canon
		if !drop && rep.Remap != nil {
			canon = make([]int, len(ent.canon))
			for i, e := range ent.canon {
				if e >= len(rep.Remap) || rep.Remap[e] < 0 {
					drop = true
					break
				}
				canon[i] = rep.Remap[e]
			}
		}
		if !drop {
			for _, e := range canon {
				if relabeled[e] {
					drop = true
					break
				}
			}
		}
		if drop {
			c.ll.Remove(el)
			evicted++
			continue
		}
		// Clean entry: carry it into the new generation under its
		// remapped key.
		fresh := &cacheEntry{key: wire.FaultKey(canon), canon: canon, gen: rep.Gen, err: ent.err}
		fresh.fs = ent.fs.Rebase(rep.Token, rep.Gen)
		fresh.once.Do(func() {}) // already compiled
		fresh.compiled.Store(true)
		el.Value = fresh
		moved = append(moved, el)
	}
	for _, el := range moved {
		// Canonical index sets are unique per event, so a clash is a hash
		// collision or an entry a probe raced in at rep.Gen: drop ours.
		key := el.Value.(*cacheEntry).key
		if _, clash := c.items[key]; clash {
			c.ll.Remove(el)
			evicted++
			continue
		}
		c.items[key] = el
		rebased++
	}
	c.evicted += uint64(evicted)
	c.rebased += uint64(rebased)
	return evicted, rebased
}

func (c *lruCache) stats() (hits, misses, evicted, rebased, capEvicted uint64, size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.rebased, c.capEvicted, c.ll.Len(), c.cap
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
