package pvfs

import (
	"sync"
	"sync/atomic"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/transport"
)

func cacheServer() *Server {
	return NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
}

// distinctLoop returns the wire encoding of a loop unique to n.
func distinctLoop(n int64) []byte {
	return dataloop.FromType(datatype.Bytes(n)).Encode(nil)
}

func TestLoopCacheEvictionBound(t *testing.T) {
	s := cacheServer()
	for i := int64(1); i <= loopCacheCap; i++ {
		if _, _, hit, err := s.cachedLoop(distinctLoop(i)); err != nil || hit {
			t.Fatalf("i=%d hit=%v err=%v", i, hit, err)
		}
	}
	if n := len(s.loopCache); n != loopCacheCap {
		t.Fatalf("cache holds %d entries, want %d", n, loopCacheCap)
	}
	// Mark one entry hot, then stream 200 cold distinct views through.
	// Second-chance eviction keeps the cache exactly at capacity and the
	// hot entry survives every sweep; a reset would wipe it.
	hot := distinctLoop(1)
	if _, _, hit, _ := s.cachedLoop(hot); !hit {
		t.Fatal("warm entry missed")
	}
	const cold = 200
	for i := int64(0); i < cold; i++ {
		if _, _, hit, err := s.cachedLoop(distinctLoop(loopCacheCap + 1 + i)); err != nil || hit {
			t.Fatalf("cold insert %d hit=%v err=%v", i, hit, err)
		}
		if n := len(s.loopCache); n != loopCacheCap {
			t.Fatalf("cache holds %d entries mid-stream, want %d", n, loopCacheCap)
		}
		if _, _, hit, _ := s.cachedLoop(hot); !hit {
			t.Fatalf("hot entry evicted after %d cold inserts", i+1)
		}
	}
	cs := s.LoopCacheStats()
	if cs.Evictions != cold {
		t.Fatalf("evictions=%d, want %d", cs.Evictions, cold)
	}
	if cs.Misses != loopCacheCap+cold {
		t.Fatalf("misses=%d, want %d", cs.Misses, loopCacheCap+cold)
	}
	if cs.Hits != cold+1 {
		t.Fatalf("hits=%d, want %d", cs.Hits, cold+1)
	}
	// The most recent cold entry is still resident.
	if _, _, hit, _ := s.cachedLoop(distinctLoop(loopCacheCap + cold)); !hit {
		t.Fatal("fresh entry missed")
	}
}

func TestLoopCacheDisabled(t *testing.T) {
	s := cacheServer()
	s.DisableLoopCache = true
	enc := distinctLoop(7)
	for i := 0; i < 3; i++ {
		l, prog, hit, err := s.cachedLoop(enc)
		if err != nil || l == nil || hit {
			t.Fatalf("l=%v hit=%v err=%v", l, hit, err)
		}
		// The cache memoizes; it does not gate compilation.
		if prog == nil {
			t.Fatal("disabled cache returned no compiled program")
		}
	}
	if cs := s.LoopCacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	if s.loopCache != nil {
		t.Fatal("disabled cache stored entries")
	}
}

func TestLoopCacheStatsConcurrent(t *testing.T) {
	// Hammer the cache from many goroutines (meaningful under -race):
	// every call is either a hit or a miss, and double-misses from
	// check-then-insert races are bounded by goroutines x keys.
	s := cacheServer()
	const goroutines, calls, keys = 8, 200, 4
	encs := make([][]byte, keys)
	for i := range encs {
		encs[i] = distinctLoop(int64(100 + i))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, _, _, err := s.cachedLoop(encs[(g+i)%keys]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cs := s.LoopCacheStats()
	if cs.Hits+cs.Misses != goroutines*calls {
		t.Fatalf("hits=%d + misses=%d != %d calls", cs.Hits, cs.Misses, goroutines*calls)
	}
	if cs.Misses < keys || cs.Misses > goroutines*keys {
		t.Fatalf("misses=%d outside [%d,%d]", cs.Misses, keys, goroutines*keys)
	}
}

func TestCompiledCacheConcurrentReplay(t *testing.T) {
	// Many goroutines hitting the same cached compiled program and
	// replaying it concurrently: Program must be immutable in practice,
	// not just by doc-comment (this is the -race coverage for concurrent
	// compiled-cache hits).
	s := cacheServer()
	enc := dataloop.FromType(datatype.Vector(64, 2, 5, datatype.Int32)).Encode(nil)
	loop, prog, _, err := s.cachedLoop(enc)
	if err != nil || prog == nil {
		t.Fatalf("prog=%v err=%v", prog, err)
	}
	want := loop.Size * 3
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, p, hit, err := s.cachedLoop(enc)
				if err != nil || !hit || p == nil {
					bad.Add(1)
					return
				}
				var got int64
				p.Replay(3, 0, 0, want, func(off, n int64) error {
					got += n
					return nil
				})
				if got != want {
					bad.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d goroutines saw a bad replay", bad.Load())
	}
}

func TestLoopCacheHitPathAllocs(t *testing.T) {
	// The hit path must be allocation-free: the []byte->string map lookup
	// is elided by the compiler and the entry is returned as-is.
	s := cacheServer()
	enc := distinctLoop(42)
	if _, _, hit, err := s.cachedLoop(enc); err != nil || hit {
		t.Fatalf("warmup hit=%v err=%v", hit, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		l, _, hit, err := s.cachedLoop(enc)
		if err != nil || !hit || l == nil {
			t.Fatalf("l=%v hit=%v err=%v", l, hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("loop cache hit path allocates %.1f per lookup", allocs)
	}
}
