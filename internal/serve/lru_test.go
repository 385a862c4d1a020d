package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/serve/wire"
)

func TestLRUEvictionAndStats(t *testing.T) {
	c := newLRUCache(2)
	if _, hit := c.get(1, []int{1}, 1); hit {
		t.Fatal("fresh key reported as hit")
	}
	if _, hit := c.get(1, []int{1}, 1); !hit {
		t.Fatal("second lookup of same key missed")
	}
	c.get(2, []int{2}, 1)
	c.get(1, []int{1}, 1) // touch 1 so 2 becomes the LRU victim
	c.get(3, []int{3}, 1) // evicts 2
	if _, hit := c.get(2, []int{2}, 1); hit {
		t.Fatal("evicted key reported as hit")
	}
	if _, hit := c.get(1, []int{1}, 1); hit {
		// 1 was evicted by re-inserting 2 above; keys 2 and 1 now rotate.
		t.Fatal("expected 1 to have been evicted after reinserting 2")
	}
	hits, misses, _, _, _, size, capacity := c.stats()
	if capacity != 2 || size != 2 {
		t.Fatalf("size=%d capacity=%d, want 2/2", size, capacity)
	}
	if hits != 2 || misses != 5 {
		t.Fatalf("hits=%d misses=%d, want 2/5", hits, misses)
	}
}

func TestLRUCollisionReturnsNil(t *testing.T) {
	c := newLRUCache(4)
	if ent, _ := c.get(7, []int{1, 2}, 1); ent == nil {
		t.Fatal("insert returned nil entry")
	}
	// Same key, different canonical fault set: must refuse to serve the
	// cached entry.
	if ent, hit := c.get(7, []int{1, 3}, 1); ent != nil || hit {
		t.Fatalf("colliding key served cached entry (ent=%v hit=%v)", ent, hit)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRUCache(0)
	c.get(1, []int{1}, 1)
	c.get(2, []int{2}, 1)
	if _, _, _, _, _, size, capacity := c.stats(); size != 1 || capacity != 1 {
		t.Fatalf("size=%d capacity=%d, want 1/1", size, capacity)
	}
}

// TestLRUGenerationMismatchReplaces: an entry left at an older generation
// (a probe racing an update sweep) must be replaced, never served.
func TestLRUGenerationMismatchReplaces(t *testing.T) {
	c := newLRUCache(4)
	ent1, _ := c.get(9, []int{4}, 1)
	ent1.compiled.Store(true)
	ent2, hit := c.get(9, []int{4}, 2)
	if hit || ent2 == ent1 {
		t.Fatalf("stale-generation entry served (hit=%v same=%v)", hit, ent2 == ent1)
	}
	if _, hit := c.get(9, []int{4}, 2); !hit {
		t.Fatal("replaced entry not cached at the new generation")
	}
}

// TestLRUStaleProbeDoesNotEvictNewerEntry: a probe still holding a
// superseded snapshot must bypass — not evict — an entry the update sweep
// carried into a newer generation.
func TestLRUStaleProbeDoesNotEvictNewerEntry(t *testing.T) {
	c := newLRUCache(4)
	fresh, _ := c.get(9, []int{4}, 3)
	fresh.compiled.Store(true)
	if ent, hit := c.get(9, []int{4}, 2); ent != nil || hit {
		t.Fatalf("stale probe was served a cache slot (ent=%v hit=%v)", ent, hit)
	}
	if ent, hit := c.get(9, []int{4}, 3); !hit || ent != fresh {
		t.Fatal("newer-generation entry was evicted by a stale probe")
	}
}

// TestLRUApplyUpdateSweep: the selective sweep must evict exactly the
// entries touching relabeled/removed edges (plus uncompiled ones) and
// rebase the rest with remapped indices.
func TestLRUApplyUpdateSweep(t *testing.T) {
	c := newLRUCache(8)
	mk := func(canon []int) *cacheEntry {
		ent, _ := c.get(wire.FaultKey(canon), canon, 1)
		ent.fs = &core.FaultSet{} // stand-in; Rebase of an empty set is itself
		ent.compiled.Store(true)
		return ent
	}
	mk([]int{0, 2})
	mk([]int{5})
	mk([]int{3, 7})
	uncompiled, _ := c.get(wire.FaultKey([]int{9}), []int{9}, 1)
	_ = uncompiled // stays uncompiled: must be evicted by the sweep

	// Commit: edge 5 removed (indices above shift down), edge 2 relabeled.
	remap := []int{0, 1, 2, 3, 4, -1, 5, 6, 7, 8}
	rep := &core.CommitReport{
		Gen:         2,
		Token:       42,
		Incremental: true,
		Relabeled:   []int{2},
		Removed:     []int{5},
		Remap:       remap,
	}
	evicted, rebased := c.applyUpdate(rep)
	if evicted != 3 || rebased != 1 {
		t.Fatalf("evicted=%d rebased=%d, want 3/1", evicted, rebased)
	}
	// {3,7} survived as {3,6} at generation 2.
	if _, hit := c.get(wire.FaultKey([]int{3, 6}), []int{3, 6}, 2); !hit {
		t.Fatal("surviving entry not reachable under remapped indices at the new generation")
	}
	// The relabeled and removed events are gone.
	if _, hit := c.get(wire.FaultKey([]int{0, 2}), []int{0, 2}, 2); hit {
		t.Fatal("entry containing a relabeled edge survived the sweep")
	}
	if _, hit := c.get(wire.FaultKey([]int{5}), []int{5}, 2); hit {
		t.Fatal("entry containing a removed edge survived the sweep")
	}
}

// TestLRUApplyUpdateRehomesShiftedKeys: removing an edge below a run of
// consecutive cached events moves each onto the slot its predecessor held
// before the sweep. Swept front to back (most recent first), {5} → {4}
// meets the old key of {4} before {4} has moved; every entry must still be
// rebased, none evicted.
func TestLRUApplyUpdateRehomesShiftedKeys(t *testing.T) {
	c := newLRUCache(8)
	for _, e := range []int{3, 4, 5} {
		ent, _ := c.get(wire.FaultKey([]int{e}), []int{e}, 1)
		ent.fs = &core.FaultSet{}
		ent.compiled.Store(true)
	}
	rep := &core.CommitReport{
		Gen:         2,
		Incremental: true,
		Removed:     []int{1},
		Remap:       []int{0, -1, 1, 2, 3, 4},
	}
	if evicted, rebased := c.applyUpdate(rep); evicted != 0 || rebased != 3 {
		t.Fatalf("evicted=%d rebased=%d, want 0/3", evicted, rebased)
	}
	for _, e := range []int{2, 3, 4} {
		if _, hit := c.get(wire.FaultKey([]int{e}), []int{e}, 2); !hit {
			t.Fatalf("event {%d} not warm at the new generation", e)
		}
	}
	if _, _, _, _, _, size, _ := c.stats(); size != 3 {
		t.Fatalf("size=%d after the sweep, want 3", size)
	}
}
