package tpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestTraceGolden pins the §6.3 page-write trace of the in-memory engine:
// the write sequence (hashed as little-endian uint32s), the page universe,
// the preload and the cache model's counters, at a cache that thrashes and
// one that mostly fits. Recorded at commit 7575d36, when the trace model was
// still the one-shard configuration of the concurrent pool; any diff is a
// change to CLOCK replacement, id allocation or the tree's access pattern.
func TestTraceGolden(t *testing.T) {
	type counters struct{ hits, misses, evictions, dirtyEvictions, flushes uint64 }
	for _, g := range []struct {
		cachePages int
		writes     int
		hash       string
		pool       counters
	}{
		{64, 22921, "83f6b6637b47aeb4", counters{265600, 35825, 37361, 23785, 281}},
		{512, 6637, "d1128a30fd62016d", counters{295177, 6248, 7336, 4834, 2914}},
	} {
		cfg := smallCfg()
		cfg.CachePages = g.cachePages
		e := NewEngine(cfg)
		e.Run(3000)
		tr := e.Trace()
		h := sha256.New()
		var b [4]byte
		for _, w := range tr.Writes {
			binary.LittleEndian.PutUint32(b[:], w)
			h.Write(b[:])
		}
		hash := hex.EncodeToString(h.Sum(nil))[:16]
		st := e.Stats().Pool
		got := counters{st.Hits, st.Misses, st.Evictions, st.DirtyEvictions, st.Flushes}
		if tr.Universe != 1601 || tr.Preload != 1108 || len(tr.Writes) != g.writes || hash != g.hash || got != g.pool {
			t.Errorf("cache %d: universe %d preload %d writes %d hash %s pool %+v; want 1601 1108 %d %s %+v",
				g.cachePages, tr.Universe, tr.Preload, len(tr.Writes), hash, got, g.writes, g.hash, g.pool)
		}
	}
}
