package bench

import "testing"

// TestMetaScaleShardsScale: with the rank population fixed, spreading
// the control plane over 4 metadata shards must lift metadata/lock
// throughput at least 1.5x over 1 shard, and rendezvous naming must
// give every shard real and roughly even work (no shard above twice
// the mean acquire count).
func TestMetaScaleShardsScale(t *testing.T) {
	opsAt := map[int]float64{}
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig(256, 8)
		cfg.MetaShards = shards
		r := MetaScale(cfg, 2, 20)
		if r.Err != nil {
			t.Fatalf("%d shards: %v", shards, r.Err)
		}
		if len(r.ShardLocks) != shards {
			t.Fatalf("%d shards: got %d shard snapshots", shards, len(r.ShardLocks))
		}
		mean := r.Locks.Acquires / int64(shards)
		for i, sl := range r.ShardLocks {
			if sl.Acquires == 0 || sl.Acquires > 2*mean+1 {
				t.Errorf("%d shards: shard %d took %d acquires, mean %d", shards, i, sl.Acquires, mean)
			}
		}
		opsAt[shards] = r.MetaOpsPerSec()
	}
	t.Logf("1 -> 4 shards: %.0f -> %.0f meta-ops/s", opsAt[1], opsAt[4])
	if opsAt[4] < 1.5*opsAt[1] {
		t.Fatalf("1 -> 4 shards: %.0f -> %.0f meta-ops/s, want >= 1.5x", opsAt[1], opsAt[4])
	}
}

// TestShardIdentityDigestStable: partitioning the control plane moves
// metadata and lock authority, never data — the verified mixed workload
// hashes to one digest at 1, 2 and 4 metadata shards.
func TestShardIdentityDigestStable(t *testing.T) {
	var want uint64
	for _, shards := range []int{1, 2, 4} {
		cfg := DefaultConfig(8, 4)
		cfg.MetaShards = shards
		cfg.Verify = true
		r, h := ShardIdentity(cfg, 8, 2)
		if r.Err != nil {
			t.Fatalf("%d shards: %v", shards, r.Err)
		}
		if h == 0 {
			t.Fatalf("%d shards: no digest captured", shards)
		}
		if want == 0 {
			want = h
		} else if h != want {
			t.Fatalf("%d shards: digest %016x, 1 shard %016x", shards, h, want)
		}
	}
}
