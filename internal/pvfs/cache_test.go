package pvfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dtio/internal/iostats"
	"dtio/internal/striping"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// cachedClient returns a client with the extent cache enabled.
func (tc *testCluster) cachedClient(cacheBytes, chunkBytes int64) *Client {
	c := tc.client()
	c.CacheBytes = cacheBytes
	c.CacheChunkBytes = chunkBytes
	c.Stats = &iostats.Stats{}
	return c
}

// TestCacheAggregation: a stream of tiny writes is absorbed by the cache
// and reaches the servers as a handful of aggregated flushes, with the
// flushed image byte-identical to the uncached result.
func TestCacheAggregation(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.cachedClient(1<<20, 4096)
	defer c.Close()
	f, err := c.Create(tc.env, "agg.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ops, opLen = 512, 32
	want := make([]byte, ops*opLen)
	for i := range want {
		want[i] = byte(i*13 + 7)
	}
	for i := 0; i < ops; i++ {
		if err := f.WriteContig(tc.env, int64(i*opLen), want[i*opLen:(i+1)*opLen]); err != nil {
			t.Fatal(err)
		}
	}
	mid := c.Stats.Snapshot()
	if mid.WireMsgs != 0 {
		t.Fatalf("absorbed writes sent %d wire messages, want 0", mid.WireMsgs)
	}
	if mid.CacheHits != ops {
		t.Fatalf("CacheHits = %d, want %d", mid.CacheHits, ops)
	}
	if err := c.Flush(tc.env); err != nil {
		t.Fatal(err)
	}
	s := c.Stats.Snapshot()
	if s.FlushOps == 0 || s.FlushBytes != int64(len(want)) {
		t.Fatalf("flush stats: ops=%d bytes=%d, want >0 and %d", s.FlushOps, s.FlushBytes, len(want))
	}
	// The per-server wire cost of the flush must be far below one round
	// trip per small write.
	if s.WireMsgs >= ops {
		t.Fatalf("flush cost %d wire messages for %d writes; aggregation failed", s.WireMsgs, ops)
	}
	// Uncached read-back: byte-identical.
	plain := tc.client()
	defer plain.Close()
	pf, err := plain.Open(tc.env, "agg.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := pf.ReadContig(tc.env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed image differs from written data")
	}
}

// TestCacheReadHits: re-reads of a cached region are served locally.
func TestCacheReadHits(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.cachedClient(1<<20, 4096)
	defer c.Close()
	f, err := c.Create(tc.env, "hits.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16*1024)
	for i := range want {
		want[i] = byte(i * 3)
	}
	// Seed through the plain path so the first cached read misses.
	f.NoCache = true
	if err := f.WriteContig(tc.env, 0, want); err != nil {
		t.Fatal(err)
	}
	f.NoCache = false
	buf := make([]byte, 512)
	const rounds = 64
	for rd := 0; rd < rounds; rd++ {
		for at := 0; at < len(want); at += len(buf) {
			if err := f.ReadContig(tc.env, int64(at), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want[at:at+len(buf)]) {
				t.Fatalf("round %d: wrong bytes at %d", rd, at)
			}
		}
	}
	s := c.Stats.Snapshot()
	ratio := s.HitRatio()
	if ratio < 0.9 {
		t.Fatalf("hit ratio %.2f, want >= 0.9 (hits=%d misses=%d)", ratio, s.CacheHits, s.CacheMisses)
	}
}

// TestCacheCoherence: two caching clients ping-pong through one shared
// chunk — each writes its own slot and polls the peer's slot for the
// round value. Every step conflicts with the peer's cached copy of the
// chunk, so progress is only possible if the lease protocol revokes,
// flushes and re-grants on every transition: the rounds advancing in
// lockstep IS the proof that overlapping cached writes serialize via
// revocation, deterministically and regardless of goroutine scheduling.
func TestCacheCoherence(t *testing.T) {
	tc := startCluster(t, 3)
	const rounds = 20
	const slotA, slotB = int64(0), int64(64) // same 4 KiB chunk
	run := func(c *Client, mine, peer int64) error {
		f, err := c.Open(tc.env, "coh.dat")
		if err != nil {
			return err
		}
		one := make([]byte, 1)
		for rd := 0; rd < rounds; rd++ {
			one[0] = byte(rd + 1)
			if err := f.WriteContig(tc.env, mine, one); err != nil {
				return err
			}
			// Poll the peer's slot; each read is an op boundary that
			// also services revocations of our own lease. The peer may
			// already be a round ahead: it can write rounds rd and rd+1
			// into its still-exclusive chunk before our shared request
			// lands, so wait for "at least rd+1", not "exactly".
			got := make([]byte, 1)
			for got[0] < byte(rd+1) {
				if err := f.ReadContig(tc.env, peer, got); err != nil {
					return err
				}
			}
		}
		return c.Flush(tc.env)
	}
	seed := tc.client()
	if _, err := seed.Create(tc.env, "coh.dat", 128, 0); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	a := tc.cachedClient(1<<20, 4096)
	b := tc.cachedClient(1<<20, 4096)
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = run(a, slotA, slotB) }()
	go func() { defer wg.Done(); errs[1] = run(b, slotB, slotA) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	inval := a.Stats.Snapshot().Invalidations + b.Stats.Snapshot().Invalidations
	if inval == 0 {
		t.Fatal("no invalidations: the clients never actually contended through the lease protocol")
	}
	// Both slots carry the final round's value in the flushed image.
	plain := tc.client()
	defer plain.Close()
	pf, err := plain.Open(tc.env, "coh.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := pf.ReadContig(tc.env, slotA, got[:1]); err != nil {
		t.Fatal(err)
	}
	if err := pf.ReadContig(tc.env, slotB, got[1:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != rounds || got[1] != rounds {
		t.Fatalf("final slots = %v, want both %d", got, rounds)
	}
}

// TestRevokeBeforeGrantReleasedAtNextOp: the lock service may deliver
// LeaseRevoke{X} ahead of the client's own LockGrant{X}. The revoke is
// at-most-once, so dropping it as "unknown lease" would leave the
// conflicting waiter stalled until the lease expires. A scripted meta
// connection answers the first acquire with Revoke(X) then Grant(X); the
// client must flush and release X at its next op boundary.
func TestRevokeBeforeGrantReleasedAtNextOp(t *testing.T) {
	net := transport.NewMemNetwork()
	env := transport.NewRealEnv()
	srv := NewServer(net, "io0", 0, CostModel{})
	go srv.Serve(env)
	defer srv.Close()
	for i := 0; ; i++ {
		conn, err := net.Dial(env, "io0")
		if err == nil {
			conn.Close()
			break
		}
		if i == 2000 {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	lis, err := net.Listen("meta")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const leaseX = 41
	released := make(chan uint64, 4) // room for every release the test provokes: the fake never blocks
	go func() {
		conn, err := lis.Accept(env)
		if err != nil {
			return
		}
		defer conn.Close()
		next := uint64(leaseX)
		for {
			raw, err := conn.Recv(env)
			if err != nil {
				return
			}
			mt, v, err := wire.DecodeMsg(raw)
			if err != nil {
				return
			}
			switch mt {
			case wire.MTLockAcquireReq:
				a := v.(*wire.LockAcquireReq)
				if next == leaseX {
					conn.Send(env, wire.EncodeLeaseRevoke(&wire.LeaseRevoke{
						Handle: a.Handle, LockID: next, Off: a.Off, N: a.N,
					}))
				}
				conn.Send(env, wire.EncodeLockGrant(&wire.LockGrant{OK: true, LockID: next}))
				next++
			case wire.MTLockReleaseReq:
				released <- v.(*wire.LockReleaseReq).LockID
				conn.Send(env, wire.EncodeMetaResp(&wire.MetaResp{OK: true}))
			}
		}
	}()

	c := NewClient(net, "meta", []string{"io0"}, CostModel{})
	c.CacheBytes = 1 << 20
	c.CacheChunkBytes = 4096
	defer c.Close()
	f := &File{c: c, name: "early.dat", handle: 1, layout: striping.Layout{StripSize: 4096, NServers: 1}}
	if err := f.WriteContig(env, 0, []byte("A")); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-released:
		t.Fatalf("lease %d released before any op boundary", id)
	default:
	}
	// The next op boundary services the revoke: flush, then release X.
	if err := f.WriteContig(env, 1, []byte("B")); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-released:
		if id != leaseX {
			t.Fatalf("released lease %d, want %d", id, leaseX)
		}
	default:
		t.Fatalf("revoke of lease %d arrived before its grant and was lost", leaseX)
	}
	f.NoCache = true
	got := make([]byte, 1)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 'A' {
		t.Fatalf("revoked chunk not flushed before release: server holds %q", got)
	}
}

// TestCacheWriterObservedByReader: a reader on a second client pulls
// dirty data out of a writer's cache through revocation — the writer
// only has to keep issuing operations (its op-boundary poll services
// the revoke), never to flush explicitly.
func TestCacheWriterObservedByReader(t *testing.T) {
	tc := startCluster(t, 3)
	w := tc.cachedClient(1<<20, 4096)
	r := tc.cachedClient(1<<20, 4096)
	defer w.Close()
	defer r.Close()
	wf, err := w.Create(tc.env, "wr.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1024)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	if err := wf.WriteContig(tc.env, 0, want); err != nil {
		t.Fatal(err)
	}
	// Writer stays live on an unrelated file; its maintain() poll is the
	// only thing that can service the revoke.
	other, err := w.Create(tc.env, "wr-other.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := other.ReadContig(tc.env, 0, buf); err != nil {
				return
			}
		}
	}()
	rf, err := r.Open(tc.env, "wr.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := rf.ReadContig(tc.env, 0, got); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if !bytes.Equal(got, want) {
		t.Fatal("reader did not observe the writer's cached data")
	}
	if w.Stats.Snapshot().Invalidations == 0 {
		t.Fatal("writer's lease was never revoked")
	}
}

// TestCacheSelfConflict: a non-revocable Lock() on a range the client's
// own cache holds a lease over must not deadlock — the inline revoke
// handler flushes and releases the cache's lease while blocked in the
// lock wait.
func TestCacheSelfConflict(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.cachedClient(1<<20, 4096)
	defer c.Close()
	f, err := c.Create(tc.env, "self.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("cached-before-lock")
	if err := f.WriteContig(tc.env, 100, want); err != nil {
		t.Fatal(err)
	}
	donec := make(chan error, 1)
	go func() {
		lk, err := f.Lock(tc.env, 0, 4096, false)
		if err != nil {
			donec <- err
			return
		}
		donec <- f.Unlock(tc.env, lk)
	}()
	select {
	case err := <-donec:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("self-conflicting lock deadlocked against the client's own cache lease")
	}
	if c.Stats.Snapshot().FlushOps == 0 {
		t.Fatal("self-revocation did not flush the dirty chunk")
	}
}

// TestCacheLeaseExpiryFlush: dirty data buffered under a finite lease is
// flushed by the client's expiry margin before the server reclaims the
// lease — acknowledged application writes survive lease loss.
func TestCacheLeaseExpiryFlush(t *testing.T) {
	net := transport.NewMemNetwork()
	env := transport.NewRealEnv()
	meta := NewMetaServer(net, "meta", 2)
	meta.LeaseTimeout = 200 * time.Millisecond
	go meta.Serve(env)
	defer meta.Close()
	var addrs []string
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("io%d", i)
		s := NewServer(net, addr, i, CostModel{})
		addrs = append(addrs, addr)
		go s.Serve(env)
		defer s.Close()
	}
	c := NewClient(net, "meta", addrs, CostModel{})
	c.CacheBytes = 1 << 20
	c.CacheChunkBytes = 4096
	c.Stats = &iostats.Stats{}
	defer c.Close()
	var f *File
	var err error
	for i := 0; i < 2000; i++ {
		if f, err = c.Create(env, "exp.dat", 128, 0); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("dirty-under-short-lease")
	if err := f.WriteContig(env, 0, want); err != nil {
		t.Fatal(err)
	}
	// Sleep past the client's 3/4 margin; the next operation's maintain
	// pass must flush and drop the chunk.
	time.Sleep(300 * time.Millisecond)
	if err := f.ReadContig(env, 64*1024, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats.Snapshot(); s.FlushOps == 0 {
		t.Fatalf("no flush after lease expiry (stats %+v)", s)
	}
	plain := NewClient(net, "meta", addrs, CostModel{})
	defer plain.Close()
	pf, err := plain.Open(env, "exp.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := pf.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("dirty data lost across lease expiry")
	}
}

// TestCacheFlushAcrossCrash: a flush issued while an I/O server is down
// rides the retry path; once the server restarts, the write-back lands
// and no acknowledged data is lost.
func TestCacheFlushAcrossCrash(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.cachedClient(1<<20, 4096)
	c.Retry = RetryPolicy{Attempts: 20, Timeout: 250 * time.Millisecond, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	defer c.Close()
	f, err := c.Create(tc.env, "crash.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8*1024)
	for i := range want {
		want[i] = byte(i*11 + 3)
	}
	for at := 0; at < len(want); at += 256 {
		if err := f.WriteContig(tc.env, int64(at), want[at:at+256]); err != nil {
			t.Fatal(err)
		}
	}
	tc.servers[0].Crash(150 * time.Millisecond)
	if err := c.Flush(tc.env); err != nil {
		t.Fatalf("flush across crash: %v", err)
	}
	plain := tc.client()
	defer plain.Close()
	pf, err := plain.Open(tc.env, "crash.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := pf.ReadContig(tc.env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cached writes lost across server crash-restart")
	}
	if c.Stats.Snapshot().Retries == 0 {
		t.Log("note: crash window closed before the flush needed a retry")
	}
}

// TestCacheEvictionWriteback: a cache smaller than the write footprint
// evicts LRU chunks through flush; everything written is durable after
// Flush and byte-identical.
func TestCacheEvictionWriteback(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.cachedClient(16*1024, 4096) // 4 chunks resident
	defer c.Close()
	f, err := c.Create(tc.env, "evict.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64*1024)
	for i := range want {
		want[i] = byte(i*5 + 1)
	}
	for at := 0; at < len(want); at += 1024 {
		if err := f.WriteContig(tc.env, int64(at), want[at:at+1024]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tc.env); err != nil {
		t.Fatal(err)
	}
	plain := tc.client()
	defer plain.Close()
	pf, err := plain.Open(tc.env, "evict.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := pf.ReadContig(tc.env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("eviction write-back corrupted data")
	}
}

// TestCacheMixedPaths: list and dtype operations on a caching client
// stay coherent with its own cached dirty data (flush-before-bypass),
// and bypassing writes invalidate stale cached copies.
func TestCacheMixedPaths(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.cachedClient(1<<20, 4096)
	defer c.Close()
	f, err := c.Create(tc.env, "mixed.dat", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cached write, then a list read over the same range must see it.
	if err := f.WriteContig(tc.env, 10, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	lr := []Region{{Off: 10, Len: 6}}
	mr := []Region{{Off: 0, Len: 6}}
	if err := f.ReadList(tc.env, lr, mr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "cached" {
		t.Fatalf("list read missed cached dirty data: %q", got)
	}
	// A list write over a cached range, then a cached read must not
	// serve the stale pre-write copy.
	if err := f.ReadContig(tc.env, 10, got); err != nil { // populate cache
		t.Fatal(err)
	}
	if err := f.WriteList(tc.env, lr, mr, []byte("listio")); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadContig(tc.env, 10, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "listio" {
		t.Fatalf("cached read served stale data after bypassing write: %q", got)
	}
}
