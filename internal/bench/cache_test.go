package bench

import (
	"testing"

	"dtio/internal/mpiio"
	"dtio/internal/workloads"
)

func smallCacheCfg(verify bool) Config {
	cfg := DefaultConfig(4, 1)
	cfg.Servers = 4
	cfg.CacheBytes = 1 << 20
	cfg.CacheChunkBytes = 16 * 1024
	if verify {
		cfg.Discard = false
		cfg.Verify = true
	}
	return cfg
}

// TestReReadHitRatio: with the cache sized to hold each rank's region,
// re-reads are served locally at >= 90% hit ratio and the flushed file
// is byte-identical to the oracle.
func TestReReadHitRatio(t *testing.T) {
	cfg := smallCacheCfg(true)
	res := ReRead(cfg, 4, 64*1024, 1024, 4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if ratio := res.Total.HitRatio(); ratio < 0.9 {
		t.Fatalf("hit ratio %.2f, want >= 0.9 (hits=%d misses=%d)",
			ratio, res.Total.CacheHits, res.Total.CacheMisses)
	}
}

// TestReWriteAbsorbed: repeated overwrites are absorbed in cache; the
// wire traffic of the timed phase is a small multiple of one region
// write, not rounds of them.
func TestReWriteAbsorbed(t *testing.T) {
	cfg := smallCacheCfg(true)
	const rounds = 8
	res := ReWrite(cfg, 4, 64*1024, 1024, rounds)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	uncfg := smallCacheCfg(true)
	uncfg.CacheBytes = 0
	unres := ReWrite(uncfg, 4, 64*1024, 1024, rounds)
	if unres.Err != nil {
		t.Fatal(unres.Err)
	}
	if res.PerClient.WireMsgs*4 >= unres.PerClient.WireMsgs {
		t.Fatalf("cached rewrite wire msgs %d not well below uncached %d",
			res.PerClient.WireMsgs, unres.PerClient.WireMsgs)
	}
	if res.PerClient.FlushOps == 0 {
		t.Fatal("no write-back flushes recorded")
	}
}

// TestCacheContentionCoherent: ping-ponging one shared extent across
// ranks stays deadlock-free and byte-correct, with revocations actually
// exercised.
func TestCacheContentionCoherent(t *testing.T) {
	cfg := smallCacheCfg(true)
	res := CacheContention(cfg, 4, 64*1024, 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Total.Invalidations == 0 {
		t.Fatal("contention run recorded no lease invalidations")
	}
}

// TestCachedTileWriteAggregates: on the paper's full-size tile, the
// cached posix write produces the same verified image as the uncached
// one while sending under 5% of its wire messages — the extent cache's
// headline. (A scaled-down frame has a floor of a few messages per
// client, which a 5% bound cannot tell from a broken cache.)
func TestCachedTileWriteAggregates(t *testing.T) {
	tile := workloads.DefaultTile()
	base := DefaultConfig(tile.NumClients(), 1)
	base.Discard = false
	base.Verify = true

	uncached := TileWrite(base, tile, mpiio.Posix, 1)
	if uncached.Err != nil {
		t.Fatal(uncached.Err)
	}
	cfg := base
	cfg.CacheBytes = 4 << 20
	// Row-major tile writes never revisit an extent, so large chunks
	// aggregate maximally: each surrender writes back megabytes of
	// sorted runs in one list request per server.
	cfg.CacheChunkBytes = 4 << 20
	cached := TileWrite(cfg, tile, mpiio.Posix, 1)
	if cached.Err != nil {
		t.Fatal(cached.Err)
	}
	if cached.PerClient.WireMsgs*20 > uncached.PerClient.WireMsgs {
		t.Fatalf("cached posix tile write: %d wire msgs/client, uncached %d — over 5%%",
			cached.PerClient.WireMsgs, uncached.PerClient.WireMsgs)
	}
	if cached.PerClient.CacheHits == 0 || cached.PerClient.FlushOps == 0 {
		t.Fatalf("cache not exercised: %+v", cached.PerClient)
	}
}
