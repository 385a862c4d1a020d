package serve

// NewDynamicSharded is NewDynamic with the fault-set cache split over a
// pinned shard count, so a test can run more shards than its small
// capacity would get from defaultCacheShards.
func NewDynamicSharded(view func() Scheme, upd Updatable, cacheSize, shards int) *Server {
	s := NewDynamic(view, upd, cacheSize)
	s.cache = newShardedCache(cacheSize, shards)
	return s
}
