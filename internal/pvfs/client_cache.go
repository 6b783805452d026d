package pvfs

import (
	"errors"
	"sort"

	"dtio/internal/cache"
	"dtio/internal/flatten"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// clientCache couples the extent cache (internal/cache) with lease
// bookkeeping and the revocation protocol (DESIGN.md §13). Every
// resident chunk is covered by a revocable byte-range lock — shared for
// read-only chunks, exclusive for dirty ones — acquired from the
// metadata server's lock service, so cross-client coherence reduces to
// lock conflicts: the server revokes whichever leases block a new
// request, the holder flushes and releases, and the requester proceeds.
//
// Everything here runs on the client's single logical thread. Revokes
// arrive on the meta connection and are serviced at two kinds of safe
// point: inline while blocked in lockCall (breaking hold-and-wait
// cycles between caching clients), and polled at cached-op boundaries
// via the transport's non-blocking receive. Holding leases across
// external synchronization (a barrier) is therefore forbidden — the
// mpiio layer flushes at the end of every collective operation, and
// other users must call Sync/Flush before synchronizing.
type clientCache struct {
	c      *Client
	store  *cache.Store
	byLock map[uint64]*cache.Chunk // granted lease id -> covered chunk
	files  map[uint64]*File        // handle -> a File to flush through
}

func (c *Client) cacheEnabled() bool { return c.CacheBytes > 0 }

func (c *Client) cacheState() *clientCache {
	if c.cc == nil {
		c.cc = &clientCache{
			c:      c,
			store:  cache.New(cache.Config{ChunkBytes: c.CacheChunkBytes, MaxBytes: c.CacheBytes}),
			byLock: make(map[uint64]*cache.Chunk),
			files:  make(map[uint64]*File),
		}
	}
	return c.cc
}

// cacheFor returns the client's cache when this file operation should
// consult it: caching enabled and the file not opted out.
func (f *File) cacheFor() *clientCache {
	if !f.c.cacheEnabled() || f.NoCache {
		return nil
	}
	return f.c.cacheState()
}

// maintain is the op-boundary safe point: service revocations the meta
// server pushed since the last operation (deferred from mid-exchange
// arrivals, plus whatever the non-blocking poll surfaces now), then
// flush leases nearing expiry while dirty data is still ours to write.
func (cc *clientCache) maintain(env transport.Env) error {
	for {
		for len(cc.c.pendRevokes) > 0 {
			r := cc.c.pendRevokes[0]
			cc.c.pendRevokes = cc.c.pendRevokes[1:]
			if err := cc.handleRevoke(env, r); err != nil {
				return err
			}
		}
		// Poll every shard connection: a revocation arrives on the
		// connection its lease was granted on, and a multi-shard client
		// may hold leases on several.
		polled := false
		for _, conn := range cc.c.metas {
			if conn == nil {
				continue
			}
			raw, ok, err := transport.TryRecv(env, conn)
			if err != nil || !ok {
				// No polling support (TCP) or nothing pending: lock-wait
				// servicing and lease expiry remain the coherence backstops.
				continue
			}
			polled = true
			t, v, derr := wire.DecodeMsg(raw)
			if derr != nil {
				return derr
			}
			cc.c.stashLease(t, v)
		}
		if !polled && len(cc.c.pendRevokes) == 0 {
			break
		}
	}
	return cc.expireLeases(env)
}

// expireLeases flushes and drops chunks whose lease deadline (with a
// safety margin, see ensureLease) has passed: dirty data must reach the
// servers while the lease still protects the range. A client that slept
// past the full server-side lease re-acquires before flushing
// (ensureLease), accepting last-writer-wins on anything written in the
// gap.
func (cc *clientCache) expireLeases(env transport.Env) error {
	now := int64(env.Now())
	var expired []*cache.Chunk
	for _, ch := range cc.store.All() {
		if ch.LeaseEnd != 0 && now >= ch.LeaseEnd {
			expired = append(expired, ch)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].Handle != expired[j].Handle {
			return expired[i].Handle < expired[j].Handle
		}
		return expired[i].Off < expired[j].Off
	})
	for _, ch := range expired {
		if err := cc.dropChunk(env, ch, true); err != nil {
			return err
		}
		if st := cc.c.stats(); st != nil {
			st.AddInvalidations(1)
		}
	}
	return nil
}

// handleRevoke services one server-pushed revocation: flush the covered
// chunk's dirty ranges, release the lease (the release is the ack the
// server's waiter queue is waiting on), and drop the chunk. Outside a
// lock acquire an unknown lock id means our own release crossed the
// revoke on the wire; nothing to do (lockCall parks unknown ids while
// an acquire is outstanding, since the revoke may precede its grant).
func (cc *clientCache) handleRevoke(env transport.Env, r *wire.LeaseRevoke) error {
	ch := cc.byLock[r.LockID]
	if ch == nil {
		return nil
	}
	sp := cc.c.Tracer.Begin(env, cc.c.track(), "cache:invalidate", cc.c.opSpan.SID())
	sp.SetAttr("off", ch.Off)
	sp.SetAttr("dirty", ch.Dirty.Bytes())
	err := cc.dropChunk(env, ch, true)
	sp.End(env)
	if st := cc.c.stats(); st != nil {
		st.AddInvalidations(1)
	}
	return err
}

// dropChunk removes a chunk from the cache, optionally flushing its
// dirty ranges first, and releases its lease.
func (cc *clientCache) dropChunk(env transport.Env, ch *cache.Chunk, flush bool) error {
	if flush && len(ch.Dirty) > 0 {
		if f := cc.files[ch.Handle]; f != nil {
			if err := cc.flushChunks(env, f, []*cache.Chunk{ch}); err != nil {
				return err
			}
		}
	}
	cc.releaseLease(env, ch)
	cc.store.Drop(ch)
	return nil
}

// releaseLease gives the chunk's lock back to the meta server. Errors
// are swallowed: a lease the server already reclaimed (expiry, dropped
// handle) reports "no such lock", and on a dead meta connection the
// server's owner cleanup releases everything anyway.
func (cc *clientCache) releaseLease(env transport.Env, ch *cache.Chunk) {
	if ch.LockID == 0 {
		return
	}
	id := ch.LockID
	delete(cc.byLock, id)
	ch.LockID = 0
	_, _ = cc.c.metaCall(env, cc.c.shards.OfHandle(ch.Handle), wire.EncodeLockRelease(&wire.LockReleaseReq{
		Handle: ch.Handle, LockID: id,
	}))
}

// releaseShardsExcept flushes and drops every cached chunk whose lease
// lives on a shard other than s. Called before blocking on shard s's
// lock service: while blocked, the client reads only shard s's
// connection, so a lease it still held elsewhere could be revoked into
// the void and deadlock the revoker against our wait. Surrendering the
// other shards' leases first makes the blocked client revocation-free
// everywhere it is not listening.
func (cc *clientCache) releaseShardsExcept(env transport.Env, s int) error {
	var doomed []*cache.Chunk
	for _, ch := range cc.store.All() {
		if cc.c.shards.OfHandle(ch.Handle) != s {
			doomed = append(doomed, ch)
		}
	}
	sort.Slice(doomed, func(i, j int) bool {
		if doomed[i].Handle != doomed[j].Handle {
			return doomed[i].Handle < doomed[j].Handle
		}
		return doomed[i].Off < doomed[j].Off
	})
	for _, ch := range doomed {
		if err := cc.dropChunk(env, ch, true); err != nil {
			return err
		}
	}
	return nil
}

// ensureLease returns the chunk at chunkOff holding a live lease strong
// enough for the access, acquiring or upgrading as needed. An upgrade
// (shared -> exclusive) or a near-expiry lease is flushed, released and
// re-acquired; its cached data cannot survive the release, because the
// range is unprotected in between.
func (cc *clientCache) ensureLease(env transport.Env, f *File, chunkOff int64, excl bool) (*cache.Chunk, error) {
	now := int64(env.Now())
	if ch := cc.store.Get(f.handle, chunkOff); ch != nil && ch.LockID != 0 {
		if (ch.LeaseEnd == 0 || now < ch.LeaseEnd) && (ch.Exclusive || !excl) {
			cc.store.Touch(ch)
			return ch, nil
		}
		if err := cc.dropChunk(env, ch, true); err != nil {
			return nil, err
		}
	}
	sp := cc.c.Tracer.Begin(env, cc.c.track(), "lock", cc.c.opSpan.SID())
	sp.SetAttr("off", chunkOff)
	g, err := cc.c.lockCall(env, cc.c.shards.OfHandle(f.handle), wire.EncodeLockAcquire(&wire.LockAcquireReq{
		Handle: f.handle, Off: chunkOff, N: cc.store.ChunkBytes(),
		Shared: !excl, Span: uint64(sp.SID()), Revocable: true,
	}))
	sp.End(env)
	if err != nil {
		return nil, err
	}
	if st := cc.c.stats(); st != nil {
		st.AddLock()
		st.AddLockWait(g.WaitedNs)
	}
	ch := cc.store.GetOrCreate(f.handle, chunkOff)
	ch.LockID, ch.Exclusive = g.LockID, excl
	ch.LeaseEnd = 0
	if g.LeaseNs > 0 {
		// Flush at 3/4 of the lease: the margin is what lets dirty data
		// reach the servers before the server-side reclaim.
		ch.LeaseEnd = int64(env.Now()) + g.LeaseNs*3/4
	}
	cc.byLock[g.LockID] = ch
	cc.files[f.handle] = f
	return ch, nil
}

// readContig serves a small read from the cache, filling whole chunks
// on miss (the read-ahead that turns streams of tiny reads into one
// chunk-sized server read).
func (cc *clientCache) readContig(env transport.Env, f *File, off int64, buf []byte) error {
	if err := cc.maintain(env); err != nil {
		return err
	}
	cb := cc.store.ChunkBytes()
	n := int64(len(buf))
	hit := true
	for co := cc.store.Align(off); co < off+n; co += cb {
		// Lease, check, fill and copy one chunk at a time: a later
		// chunk's lock wait can revoke (flush and drop) an earlier one,
		// so no chunk pointer is held across a wait.
		ch, err := cc.ensureLease(env, f, co, false)
		if err != nil {
			return err
		}
		lo, hi := max(off, co), min(off+n, co+cb)
		if ch.ReadInto(lo, buf[lo-off:hi-off]) {
			continue
		}
		hit = false
		if err := cc.fillChunk(env, f, ch); err != nil {
			return err
		}
		if !ch.ReadInto(lo, buf[lo-off:hi-off]) {
			return errors.New("pvfs: cache fill left requested range invalid")
		}
	}
	if st := cc.c.stats(); st != nil {
		if hit {
			st.AddCacheHit()
		} else {
			st.AddCacheMiss()
		}
	}
	return cc.evict(env)
}

// writeContig absorbs a small write into the cache under exclusive
// leases; the bytes reach the servers in an aggregated flush (revoke,
// eviction, lease expiry, or Sync).
func (cc *clientCache) writeContig(env transport.Env, f *File, off int64, data []byte) error {
	if err := cc.maintain(env); err != nil {
		return err
	}
	cb := cc.store.ChunkBytes()
	n := int64(len(data))
	for co := cc.store.Align(off); co < off+n; co += cb {
		ch, err := cc.ensureLease(env, f, co, true)
		if err != nil {
			return err
		}
		lo, hi := max(off, co), min(off+n, co+cb)
		ch.Write(lo, data[lo-off:hi-off])
	}
	if st := cc.c.stats(); st != nil {
		st.AddCacheHit()
	}
	return cc.evict(env)
}

// fillChunk reads the chunk's whole extent as one uncached contiguous
// read (the store zero-fills past EOF, so over-reading the tail is safe)
// and installs it around any dirty bytes already present.
func (cc *clientCache) fillChunk(env transport.Env, f *File, ch *cache.Chunk) error {
	data := make([]byte, cc.store.ChunkBytes())
	if err := f.do(env, f.contigPlan(ch.Off, data, false)); err != nil {
		return err
	}
	ch.Fill(data)
	return nil
}

// flushChunks writes the chunks' dirty ranges back as one uncached
// list-I/O call: the runs are gathered in ascending file order into a
// single request stream, which the streaming write path and the server
// disk scheduler then handle as a few large sorted runs.
func (cc *clientCache) flushChunks(env transport.Env, f *File, chunks []*cache.Chunk) error {
	sorted := make([]*cache.Chunk, 0, len(chunks))
	for _, ch := range chunks {
		if len(ch.Dirty) > 0 {
			sorted = append(sorted, ch)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var fileRegions, memRegions []flatten.Region
	var mem []byte
	for _, ch := range sorted {
		for _, r := range ch.DirtyRuns() {
			fileRegions = append(fileRegions, flatten.Region{Off: r.Off, Len: r.N})
			memRegions = append(memRegions, flatten.Region{Off: int64(len(mem)), Len: r.N})
			rel := r.Off - ch.Off
			mem = append(mem, ch.Data[rel:rel+r.N]...)
		}
	}
	sp := cc.c.Tracer.Begin(env, cc.c.track(), "cache:flush", cc.c.opSpan.SID())
	sp.SetAttr("bytes", int64(len(mem)))
	sp.SetAttr("runs", int64(len(fileRegions)))
	err := f.list(env, fileRegions, memRegions, mem, true)
	sp.End(env)
	if err != nil {
		return err
	}
	for _, ch := range sorted {
		ch.MarkClean()
	}
	if st := cc.c.stats(); st != nil {
		st.AddFlush(int64(len(mem)))
	}
	return nil
}

// evict flushes and drops least-recently-used chunks until the cache
// fits its budget.
func (cc *clientCache) evict(env transport.Env) error {
	for cc.store.OverBudget() {
		v := cc.store.Victim(nil)
		if v == nil {
			return nil
		}
		if err := cc.dropChunk(env, v, true); err != nil {
			return err
		}
	}
	return nil
}

// prepRanges keeps a cache-bypassing operation (large contiguous, list,
// or NoCache-adjacent I/O on a caching client) coherent with this
// client's own cache: overlapping dirty data is flushed first — reads
// must see the client's own writes, and writes must land in issue
// order — and a bypassing write additionally invalidates overlapping
// cached data, which would otherwise serve pre-write bytes to later
// cached reads.
func (cc *clientCache) prepRanges(env transport.Env, f *File, write bool, regions []cache.Region) error {
	if err := cc.maintain(env); err != nil {
		return err
	}
	for _, r := range regions {
		for _, ch := range cc.store.Overlapping(f.handle, r.Off, r.N) {
			if len(ch.Dirty) > 0 {
				if err := cc.flushChunks(env, f, []*cache.Chunk{ch}); err != nil {
					return err
				}
			}
			if write {
				if err := cc.dropChunk(env, ch, false); err != nil {
					return err
				}
				if st := cc.c.stats(); st != nil {
					st.AddInvalidations(1)
				}
			}
		}
	}
	return nil
}

// prepFile is prepRanges over the whole file, for operations whose file
// footprint is not worth enumerating (datatype I/O).
func (cc *clientCache) prepFile(env transport.Env, f *File, write bool) error {
	if err := cc.maintain(env); err != nil {
		return err
	}
	chunks := cc.store.Chunks(f.handle)
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Off < chunks[j].Off })
	if err := cc.flushChunks(env, f, chunks); err != nil {
		return err
	}
	if !write {
		return nil
	}
	for _, ch := range chunks {
		if err := cc.dropChunk(env, ch, false); err != nil {
			return err
		}
		if st := cc.c.stats(); st != nil {
			st.AddInvalidations(1)
		}
	}
	return nil
}

// syncFile flushes the file's dirty chunks as one sorted run batch and
// releases every lease the file holds.
func (cc *clientCache) syncFile(env transport.Env, f *File) error {
	if err := cc.maintain(env); err != nil {
		return err
	}
	chunks := cc.store.Chunks(f.handle)
	if len(chunks) == 0 {
		return nil
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Off < chunks[j].Off })
	if err := cc.flushChunks(env, f, chunks); err != nil {
		return err
	}
	for _, ch := range chunks {
		cc.releaseLease(env, ch)
		cc.store.Drop(ch)
	}
	return nil
}

// forgetHandle discards a removed file's cache state without flushing:
// the meta server dropped the file's lock table with the file, so there
// is nothing to release and nowhere to flush to.
func (cc *clientCache) forgetHandle(handle uint64) {
	for _, ch := range cc.store.Chunks(handle) {
		delete(cc.byLock, ch.LockID)
		cc.store.Drop(ch)
	}
	delete(cc.files, handle)
}

// Sync flushes this file's dirty cached data to the servers and
// releases its leases. Callers must Sync before synchronizing with
// other processes outside the file system (a barrier): a client
// blocked in a barrier cannot answer revocations, and another rank
// waiting on one of its leases would deadlock the pair. The mpiio
// layer does this automatically at the end of collective operations.
// With the cache disabled Sync is a no-op.
func (f *File) Sync(env transport.Env) error {
	if f.c.cc == nil {
		return nil
	}
	return f.c.cc.syncFile(env, f)
}

// Flush is Sync for every cached file of the client, in stable handle
// order. Call it before Close: Close itself cannot flush (it takes no
// Env to do I/O with) and drops unflushed cached writes.
func (c *Client) Flush(env transport.Env) error {
	if c.cc == nil {
		return nil
	}
	handles := make([]uint64, 0, len(c.cc.files))
	for h := range c.cc.files {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	for _, h := range handles {
		if err := c.cc.syncFile(env, c.cc.files[h]); err != nil {
			return err
		}
	}
	return nil
}
