package pvfs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sort"

	"dtio/internal/cache"
	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/flightrec"
	"dtio/internal/iostats"
	"dtio/internal/metrics"
	"dtio/internal/replica"
	"dtio/internal/shard"
	"dtio/internal/striping"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// RetryPolicy configures the client's I/O-server retry behavior
// (DESIGN.md §11). A retry resends the identical request frame — same
// tag — after dropping and redialing the connection, so the server's
// replay cache can suppress duplicate write side effects. The zero
// value disables retries: one attempt, blocking receives, the pre-fault
// behavior.
type RetryPolicy struct {
	// Attempts bounds total attempts per request (<=1 means no retry).
	Attempts int
	// Timeout is the per-attempt receive deadline; 0 blocks forever (a
	// crashed server is then only detected by connection reset).
	Timeout time.Duration
	// Backoff is slept before the first retry and doubles per retry up
	// to MaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the policy the benchmarks run under fault
// injection: enough attempts to ride out a crash-restart, timeouts well
// above the simulated cluster's service times.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:   10,
		Timeout:    2 * time.Second,
		Backoff:    5 * time.Millisecond,
		MaxBackoff: 320 * time.Millisecond,
	}
}

// clientIDs allocates process-unique nonzero client ids for request
// tags (tag Client 0 means untagged, so the counter starts past the
// incarnation base). Ids must not collide across *processes* either: a
// long-lived server deduplicates mutating requests by (Client, Seq),
// and a recycled id makes a fresh client's early writes look like
// replays of a previous process's — the server acks them from the
// replay cache without writing a byte. The high 32 bits therefore
// carry a per-process random incarnation; the low bits count clients
// within the process. Id values never influence behavior beyond map
// identity, so the randomness cannot perturb the deterministic
// simulation.
var clientIDs atomic.Uint64

func init() {
	var b [4]byte
	if _, err := crand.Read(b[:]); err == nil {
		clientIDs.Store(uint64(binary.LittleEndian.Uint32(b[:])) << 32)
	}
}

// Client is one process's connection to the file system. A Client (and
// the Files opened through it) must be used from one logical thread at a
// time — the usual PVFS library discipline. (Internally an operation
// fans out one sibling thread per involved server; those threads touch
// disjoint connection-table slots.)
type Client struct {
	net         transport.Network
	shards      *shard.Map
	serverAddrs []string
	cost        CostModel

	// Stats accumulates this client's I/O characteristics; may be nil.
	Stats *iostats.Stats

	// StreamChunkBytes is the flow-control segment size for streamed
	// writes (0 = DefaultStreamChunkBytes); servers choose their own for
	// streamed reads.
	StreamChunkBytes int
	// StreamWindow is the maximum number of unacknowledged segments in
	// flight per streamed write (0 = DefaultStreamWindow).
	StreamWindow int
	// Retry governs I/O-server request retries. The metadata channel is
	// not retried: it is stateful (locks, leases) and the fault injector
	// leaves it reliable.
	Retry RetryPolicy

	// Replicas is the cluster's replica group size k (DESIGN.md §16):
	// serverAddrs is then k consecutive physical members per logical
	// stripe server, every write fans out to all members of its group,
	// and reads are served by any live member. 0 or 1 means
	// unreplicated: every logical server is a group of one, served by
	// the same exchange path. Set before the first operation,
	// identically on every client of the cluster.
	Replicas int
	// ReplicaPicker chooses which member serves a replicated read (nil
	// = replica.Rendezvous{}); failover rotates from its choice.
	ReplicaPicker replica.Picker

	// CacheBytes enables the coherent client-side extent cache
	// (DESIGN.md §13) with this data budget; 0 disables caching
	// entirely. Contiguous reads and writes no larger than a chunk are
	// served from cached, lease-covered chunks and written back in
	// aggregated runs. Set before the first operation.
	CacheBytes int64
	// CacheChunkBytes overrides the cache's chunk (and lease)
	// granularity (0 = cache.DefaultChunkBytes).
	CacheChunkBytes int64

	// Tracer records operation/attempt spans; nil disables tracing (the
	// nil checks are the whole disabled-mode cost).
	Tracer *trace.Tracer
	// TraceTrack is this client's span track label ("" = "client").
	TraceTrack string
	// OpLat observes whole-operation latency, one sample per logical
	// read/write op; nil disables.
	OpLat *metrics.Histogram

	id     uint64           // request-tag client id
	seq    atomic.Uint64    // request-tag sequence counter
	metas  []transport.Conn // one lazy connection per metadata shard
	conns  []transport.Conn
	opSpan *trace.Span // current operation's span (single logical thread)

	// suspect[phys] is a virtual-time deadline until which physical
	// server phys is presumed dead (it failed a connection-class
	// attempt): replicated reads skip it and replicated writes probe it
	// with a single cheap attempt instead of the full retry ladder.
	// Zero means healthy. Atomics because sibling threads of one
	// operation touch different servers concurrently.
	suspect []atomic.Int64

	cc *clientCache // extent cache state; nil until first cached op
	// Messages that arrived on the meta connection out of turn. A grant
	// can only belong to the single outstanding acquire (stashed when a
	// revoke's nested release exchange pulls it off the wire first);
	// revokes arriving mid-exchange are deferred to the next safe point
	// (lockCall's wait loop or a cached op boundary).
	pendGrants  []*wire.LockGrant
	pendRevokes []*wire.LeaseRevoke
}

// NewClient prepares a client for a cluster with a single metadata
// server (the 1-shard special case). Connections are established lazily.
func NewClient(net transport.Network, metaAddr string, serverAddrs []string, cost CostModel) *Client {
	return NewShardedClient(net, []string{metaAddr}, serverAddrs, cost)
}

// NewShardedClient prepares a client for a cluster whose control plane
// is partitioned over metaAddrs (index = shard id). The address list is
// the mount-time shard directory: the client routes every name, handle,
// lock, and lease to its owning shard locally, with no directory server
// in the path. All clients of a cluster must mount the same list in the
// same order.
func NewShardedClient(net transport.Network, metaAddrs []string, serverAddrs []string, cost CostModel) *Client {
	m := shard.NewMap(metaAddrs)
	return &Client{
		net:         net,
		shards:      m,
		serverAddrs: serverAddrs,
		cost:        cost,
		id:          clientIDs.Add(1),
		metas:       make([]transport.Conn, m.N()),
		conns:       make([]transport.Conn, len(serverAddrs)),
		suspect:     make([]atomic.Int64, len(serverAddrs)),
	}
}

// k reports the replica group size (always >= 1).
func (c *Client) k() int { return max(c.Replicas, 1) }

func (c *Client) picker() replica.Picker {
	if c.ReplicaPicker != nil {
		return c.ReplicaPicker
	}
	return replica.Rendezvous{}
}

// suspectTTL is how long a failed member is skipped before being
// re-probed. Short: a probe against a still-dead member costs one
// instant dial failure, while a long memo would hide a restarted
// member from reads unnecessarily.
const suspectTTL = 100 * time.Millisecond

func (c *Client) isSuspect(env transport.Env, phys int) bool {
	d := c.suspect[phys].Load()
	return d != 0 && int64(env.Now()) < d
}

func (c *Client) markSuspect(env transport.Env, phys int) {
	c.suspect[phys].Store(int64(env.Now() + suspectTTL))
}

func (c *Client) clearSuspect(phys int) {
	c.suspect[phys].Store(0)
}

// MetaShards reports the number of metadata shards in the mount.
func (c *Client) MetaShards() int { return c.shards.N() }

// tag allocates the request tag for one logical operation. Every request
// the operation sends (one per involved server) shares it; a new batch
// of requests gets a new tag. The current op span rides along so server
// spans parent back to it.
func (c *Client) tag() wire.ReqTag {
	return wire.ReqTag{Client: c.id, Seq: c.seq.Add(1), Span: uint64(c.opSpan.SID())}
}

func (c *Client) track() string {
	if c.TraceTrack != "" {
		return c.TraceTrack
	}
	return "client"
}

// opObs is one operation's observation state, carried by value so the
// disabled path (nil Tracer and nil OpLat) allocates nothing.
type opObs struct {
	sp     *trace.Span
	start  time.Duration
	active bool
}

// beginOp opens the operation span and latency clock. The span becomes
// the parent for request tags and attempt spans until File.do restores
// the one it replaced.
func (c *Client) beginOp(env transport.Env, name string) opObs {
	if c.Tracer == nil && c.OpLat == nil {
		return opObs{}
	}
	o := opObs{start: env.Now(), active: true}
	o.sp = c.Tracer.Begin(env, c.track(), name, 0)
	c.opSpan = o.sp
	return o
}

// endOp closes a successful operation: ends the span and records the
// latency sample. Failed operations skip endOp — their spans export
// unfinished and no latency is recorded (error latencies would poison
// the percentiles with timeout ladders).
func (c *Client) endOp(env transport.Env, o opObs, nbytes int64) {
	if !o.active {
		return
	}
	o.sp.SetAttr("bytes", nbytes)
	o.sp.End(env)
	c.OpLat.Observe(env.Now() - o.start)
}

// serverError is a response the server itself produced: the request was
// received, processed, and rejected. Retrying cannot change the answer.
type serverError struct {
	s   int
	msg string
}

func (e *serverError) Error() string { return fmt.Sprintf("pvfs: server %d: %s", e.s, e.msg) }

// retryable reports whether another attempt could succeed: anything but
// a server-level rejection (timeouts, resets, decode failures from
// corrupted exchanges) is worth retrying.
func retryable(err error) bool {
	var se *serverError
	return !errors.As(err, &se)
}

// Close tears down all connections. Close cannot flush the extent
// cache (it takes no Env to perform I/O with): callers using the cache
// must Flush first or accept that unflushed cached writes are dropped
// (the server reclaims the leases by expiry or connection teardown).
func (c *Client) Close() {
	for i, conn := range c.metas {
		if conn != nil {
			conn.Close()
			c.metas[i] = nil
		}
	}
	for i, conn := range c.conns {
		if conn != nil {
			conn.Close()
			c.conns[i] = nil
		}
	}
}

func (c *Client) stats() *iostats.Stats {
	return c.Stats
}

// metaDial returns (dialing on demand) the connection to meta shard s.
func (c *Client) metaDial(env transport.Env, s int) (transport.Conn, error) {
	if c.metas[s] == nil {
		conn, err := c.net.Dial(env, c.shards.Addr(s))
		if err != nil {
			return nil, err
		}
		c.metas[s] = conn
	}
	return c.metas[s], nil
}

func (c *Client) metaCall(env transport.Env, s int, req []byte) (*wire.MetaResp, error) {
	v, err := c.metaExchange(env, s, req, wire.MTMetaResp, 0)
	if err != nil {
		return nil, err
	}
	r := v.(*wire.MetaResp)
	if !r.OK {
		return nil, errors.New("pvfs: " + r.Err)
	}
	return r, nil
}

// metaExchange sends req on shard s's connection and receives until the
// response of type want arrives (each receive bounded by timeout; 0
// blocks), stashing any lease traffic that crosses it on the wire.
// Revokes are deferred rather than handled here: servicing one means
// flushing and releasing, and the nested release exchange would steal
// this exchange's response.
func (c *Client) metaExchange(env transport.Env, s int, req []byte, want wire.MsgType, timeout time.Duration) (any, error) {
	conn, err := c.metaDial(env, s)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(env, req); err != nil {
		return nil, err
	}
	for {
		raw, err := transport.RecvTimeout(env, conn, timeout)
		if err != nil {
			return nil, fmt.Errorf("pvfs: meta shard %d: %w", s, err)
		}
		t, v, err := wire.DecodeMsg(raw)
		if err != nil {
			return nil, err
		}
		if t == want {
			return v, nil
		}
		if !c.stashLease(t, v) {
			return nil, fmt.Errorf("pvfs: meta shard %d: unexpected response %s, want %s", s, t, want)
		}
	}
}

// stashLease parks lease traffic that arrived on a metadata connection
// during another exchange, for the lock wait loop or the next safe
// point, and reports whether the message was lease traffic.
func (c *Client) stashLease(t wire.MsgType, v any) bool {
	switch t {
	case wire.MTLockGrant:
		c.pendGrants = append(c.pendGrants, v.(*wire.LockGrant))
	case wire.MTLeaseRevoke:
		c.pendRevokes = append(c.pendRevokes, v.(*wire.LeaseRevoke))
	default:
		return false
	}
	return true
}

// lockCall sends one lock-service request on shard s's connection and
// waits for the grant. An acquire that queues gets no immediate reply;
// the blocking Recv here is exactly the client-side wait. While blocked,
// the client services lease revocations inline — a caching client
// waiting on a lock must still answer the server's request to give up
// conflicting leases, or two caching clients deadlock hold-and-wait.
// (This also resolves self-conflicts: our own non-revocable lock queued
// behind our own cache lease revokes it right here.)
//
// A revoke can also overtake the grant it is about: the lock service
// queues LeaseRevoke{X} for delivery as soon as a conflicting request
// arrives, which may be before our own LockGrant{X} goes out. A revoke
// for a lease the cache does not know yet is therefore parked while the
// acquire is outstanding; the one the grant's ID names is re-queued for
// the next safe point, once the cache has installed the lease. Parked
// revokes for other IDs were crossed by our own releases and drop.
//
// The blocked client only listens on shard s, so before blocking it
// surrenders any cache leases held on *other* shards: a revoke arriving
// on a connection nobody reads is the cross-shard variant of the
// hold-and-wait deadlock above. Single-file (and single-shard)
// workloads never pay this — it only fires when one client caches
// files owned by different shards.
func (c *Client) lockCall(env transport.Env, s int, req []byte) (*wire.LockGrant, error) {
	if c.cc != nil && c.shards.N() > 1 {
		if err := c.cc.releaseShardsExcept(env, s); err != nil {
			return nil, err
		}
	}
	conn, err := c.metaDial(env, s)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(env, req); err != nil {
		return nil, err
	}
	var parked []*wire.LeaseRevoke
	for {
		if len(c.pendGrants) > 0 {
			g := c.pendGrants[0]
			c.pendGrants = c.pendGrants[1:]
			if !g.OK {
				return nil, errors.New("pvfs: " + g.Err)
			}
			for _, r := range parked {
				if r.LockID == g.LockID {
					c.pendRevokes = append(c.pendRevokes, r)
				}
			}
			return g, nil
		}
		if len(c.pendRevokes) > 0 && c.cc != nil {
			r := c.pendRevokes[0]
			c.pendRevokes = c.pendRevokes[1:]
			if c.cc.byLock[r.LockID] == nil {
				parked = append(parked, r)
				continue
			}
			if err := c.cc.handleRevoke(env, r); err != nil {
				return nil, err
			}
			continue
		}
		raw, err := conn.Recv(env)
		if err != nil {
			return nil, err
		}
		t, v, err := wire.DecodeMsg(raw)
		if err != nil {
			return nil, err
		}
		if !c.stashLease(t, v) {
			return nil, errors.New("pvfs: unexpected response " + t.String() + " while waiting for a lock grant")
		}
	}
}

// conn returns (dialing on demand) the connection to server i.
func (c *Client) conn(env transport.Env, i int) (transport.Conn, error) {
	if c.conns[i] == nil {
		conn, err := c.net.Dial(env, c.serverAddrs[i])
		if err != nil {
			return nil, err
		}
		c.conns[i] = conn
	}
	return c.conns[i], nil
}

// File is an open file.
type File struct {
	c      *Client
	name   string
	handle uint64
	layout striping.Layout

	// NoCache opts this file's operations out of the client's extent
	// cache (the O_DIRECT of this API). The mpiio layer sets it for
	// read-modify-write paths that already hold their own non-revocable
	// locks, which a cached access would queue behind forever.
	NoCache bool
}

// Create creates and opens a file striped over nServers servers (0 = all)
// with the given strip size.
func (c *Client) Create(env transport.Env, name string, stripSize int64, nServers int) (*File, error) {
	r, err := c.metaCall(env, c.shards.OfName(name), wire.EncodeCreate(&wire.CreateReq{
		Name: name, StripSize: stripSize, NServers: int32(nServers),
	}))
	if err != nil {
		return nil, err
	}
	return c.fileOf(name, r)
}

// Open opens an existing file.
func (c *Client) Open(env transport.Env, name string) (*File, error) {
	r, err := c.metaCall(env, c.shards.OfName(name), wire.EncodeOpen(&wire.OpenReq{Name: name}))
	if err != nil {
		return nil, err
	}
	return c.fileOf(name, r)
}

func (c *Client) fileOf(name string, r *wire.MetaResp) (*File, error) {
	lay := striping.Layout{StripSize: r.StripSize, NServers: int(r.NServers), Base: int(r.Base)}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if lay.NServers*c.k() > len(c.serverAddrs) {
		return nil, fmt.Errorf("pvfs: file needs %d servers x%d replicas, cluster has %d",
			lay.NServers, c.k(), len(c.serverAddrs))
	}
	return &File{c: c, name: name, handle: r.Handle, layout: lay}, nil
}

// Remove deletes a file: metadata first, then each server's object.
func (c *Client) Remove(env transport.Env, name string) error {
	f, err := c.Open(env, name)
	if err != nil {
		return err
	}
	if c.cc != nil {
		// The meta server drops the file's lock table with the file;
		// cached state is discarded, not flushed or released.
		c.cc.forgetHandle(f.handle)
	}
	if _, err := c.metaCall(env, c.shards.OfName(name), wire.EncodeRemove(&wire.RemoveReq{Name: name})); err != nil {
		return err
	}
	// Removal mutates every replica member, so it rides the write
	// fan-out path (with no payload to carry).
	return c.writeGroups(env, f.allGroups(), make([][]byte, f.layout.NServers), c.tag(),
		func(tag wire.ReqTag, g, m int, _ []byte) []byte {
			return wire.EncodeRemoveObj(&wire.RemoveObjReq{Tag: tag, Layout: f.wireLayout(g, m)})
		})
}

// ListNames returns the namespace contents: each shard's partition,
// merged and sorted (per-shard listings are already sorted, but the
// union across shards is not).
func (c *Client) ListNames(env transport.Env) ([]string, error) {
	var names []string
	for s := 0; s < c.shards.N(); s++ {
		v, err := c.metaExchange(env, s, wire.EncodeListNames(), wire.MTListResp, 0)
		if err != nil {
			return nil, err
		}
		r := v.(*wire.ListResp)
		if !r.OK {
			return nil, errors.New("pvfs: " + r.Err)
		}
		names = append(names, r.Names...)
	}
	sort.Strings(names)
	return names, nil
}

// FileLock is a held byte-range lock, returned by Lock and surrendered
// to Unlock.
type FileLock struct {
	f      *File
	id     uint64
	Off, N int64
	Shared bool
}

// Lock acquires a byte-range lock on [off, off+n) from the metadata
// server, blocking until granted. Shared locks admit other shared
// holders; exclusive locks admit nobody. Grants are FIFO-fair, and the
// server reclaims the lock if its lease expires before Unlock. To stay
// deadlock-free, callers hold at most one lock per file at a time (the
// discipline mpiio's sieving writes and atomic mode follow).
func (f *File) Lock(env transport.Env, off, n int64, shared bool) (*FileLock, error) {
	sp := f.c.Tracer.Begin(env, f.c.track(), "lock", f.c.opSpan.SID())
	sp.SetAttr("off", off)
	sp.SetAttr("n", n)
	g, err := f.c.lockCall(env, f.c.shards.OfHandle(f.handle), wire.EncodeLockAcquire(&wire.LockAcquireReq{
		Handle: f.handle, Off: off, N: n, Shared: shared, Span: uint64(sp.SID()),
	}))
	sp.End(env)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("waited_ns", g.WaitedNs)
	if st := f.c.stats(); st != nil {
		st.AddLock()
		st.AddLockWait(g.WaitedNs)
	}
	return &FileLock{f: f, id: g.LockID, Off: off, N: n, Shared: shared}, nil
}

// Unlock releases a lock returned by Lock.
func (f *File) Unlock(env transport.Env, lk *FileLock) error {
	if lk == nil || lk.f != f {
		return errors.New("pvfs: unlock of a lock this file does not hold")
	}
	_, err := f.c.metaCall(env, f.c.shards.OfHandle(f.handle), wire.EncodeLockRelease(&wire.LockReleaseReq{
		Handle: f.handle, LockID: lk.id,
	}))
	return err
}

// Name reports the file name.
func (f *File) Name() string { return f.name }

// ClientStats returns the owning client's stats collector (may be nil).
func (f *File) ClientStats() *iostats.Stats { return f.c.Stats }

// Cost returns the owning client's cost model.
func (f *File) Cost() CostModel { return f.c.cost }

// Layout reports the striping layout.
func (f *File) Layout() striping.Layout { return f.layout }

// wireLayout names one replica member's object: the file's layout plus
// which logical stripe server (group) this request is for and which
// group member it is addressed to. The object a member stores is
// identical across its group (same ServerIdx, same striping math), which
// is what makes any member able to serve a group's reads; an
// unreplicated file's server is member 0 of a group of one.
func (f *File) wireLayout(serverIdx, member int) wire.FileLayout {
	return wire.FileLayout{
		Handle:    f.handle,
		StripSize: f.layout.StripSize,
		NServers:  int32(f.layout.NServers),
		Base:      int32(f.layout.Base),
		ServerIdx: int32(serverIdx),
		Replicas:  int32(f.c.k()),
		Member:    int32(member),
	}
}

// phys maps (logical stripe server, group member) to the physical
// cluster server index: groups are k consecutive addresses.
func (c *Client) phys(serverIdx, member int) int {
	return serverIdx*c.k() + member
}

// attempt is one try of an exchange against physical server phys,
// member m of its replica group, under the attempt span sp. It reports
// the payload bytes a retry would resend.
type attempt func(env transport.Env, sp *trace.Span, m, phys int) (replay int64, err error)

// exchange is the client's one retry ladder: it runs one request with
// replica group g under c.Retry (DESIGN.md §11, §16). Attempt a goes to
// member start+(a-1) mod n, wrapping within the group: a read passes
// n = k and fails over member by member, a write passes n = 1 and
// retries its own member. An unreplicated file is a group of one, so
// both reduce to resending to its one server. On a retryable failure
// (timeout, reset, a corrupted exchange) the connection is dropped, the
// member marked suspect, and the client backs off before the next
// attempt; success clears the suspicion. A server-level rejection ends
// the exchange after n consecutive ones: the servers are answering, and
// every answer is no. A fault of the caller's own access (accessError)
// ends it at once. attempts overrides the policy's budget when
// nonzero (never below n). first is the member the caller preferred;
// success at another member counts a degraded read.
func (c *Client) exchange(env transport.Env, span string, g, first, start, n, attempts int, try attempt) error {
	if attempts < 1 {
		attempts = c.Retry.Attempts
	}
	if attempts < n {
		attempts = n
	}
	k := c.k()
	lo, _ := c.picker().(interface{ Observe(phys int, delta int64) })
	backoff := c.Retry.Backoff
	var firstFail time.Duration
	sawFail := false
	rejected := 0 // consecutive server-level rejections
	for a := 1; ; a++ {
		m := (start + (a-1)%n) % k
		phys := c.phys(g, m)
		sp := c.Tracer.Begin(env, c.track(), span, c.opSpan.SID())
		sp.SetAttr("server", int64(phys))
		sp.SetAttr("try", int64(a))
		if lo != nil {
			lo.Observe(phys, 1)
		}
		replay, err := try(env, sp, m, phys)
		if lo != nil {
			lo.Observe(phys, -1)
		}
		sp.End(env)
		if err == nil {
			c.clearSuspect(phys)
			if st := c.stats(); st != nil {
				if m != first {
					st.AddDegradedRead()
				}
				if sawFail {
					st.AddFailover(int64(env.Now() - firstFail))
				}
			}
			return nil
		}
		if errors.As(err, new(*accessError)) {
			c.dropConn(phys) // the reply was abandoned mid-way
			return err
		}
		if !retryable(err) {
			rejected++
			if rejected >= n {
				return err
			}
			continue // the next member answers; no backoff, the server is up
		}
		rejected = 0
		c.dropConn(phys) // mid-frame state, stale stream, or reset
		c.markSuspect(env, phys)
		if a >= attempts {
			return fmt.Errorf("pvfs: server %d: gave up after %d attempts: %w", phys, a, err)
		}
		if !sawFail {
			sawFail = true
			firstFail = env.Now()
		}
		if st := c.stats(); st != nil {
			st.AddRetry()
			if errors.Is(err, transport.ErrTimeout) {
				st.AddTimeout()
			}
			st.AddReplayed(replay)
		}
		backoff = c.sleepBackoff(env, backoff)
	}
}

// sleepBackoff sleeps the current backoff and returns the next one
// (doubled, capped at MaxBackoff). The sleep covers modeled and wall
// time: redial of a crashed daemon must actually wait, and a dial
// failure is otherwise instant, which would burn every attempt before
// the server could restart.
func (c *Client) sleepBackoff(env transport.Env, backoff time.Duration) time.Duration {
	if backoff > 0 {
		sleepBoth(env, backoff)
	}
	next := backoff * 2
	if c.Retry.MaxBackoff > 0 && next > c.Retry.MaxBackoff {
		next = c.Retry.MaxBackoff
	}
	return next
}

// tryExchange is one attempt of exchange: dial if needed, send, await
// the matching response, whose data goes to sink k (nil: the reply
// carries none).
func (c *Client) tryExchange(env transport.Env, s int, req []byte, descLen int64, seq uint64, k *sink) error {
	conn, err := c.conn(env, s)
	if err != nil {
		return err
	}
	if err := conn.Send(env, req); err != nil {
		return fmt.Errorf("pvfs: send to server %d: %w", s, err)
	}
	if st := c.stats(); st != nil {
		st.AddWire(descLen)
	}
	return c.recvResp(env, conn, s, seq, c.Retry.Timeout, k)
}

// recvResp receives frames from conn until the response matching seq
// arrives, and hands a read's data to sink k as it comes off the wire.
// Debris from earlier attempts on the same connection — duplicated
// responses with a stale Seq, leftover stream acks — is discarded; a
// response stream with a stale Seq cannot be skipped coherently, so it
// fails the attempt and the caller redials. A response whose data is
// not exactly what the server holds of the access (k.total; 0 for a
// nil sink: writes and size queries read nothing) is refused before any
// byte lands: the length comes from outside the process. An inline
// reply is received into a pooled frame buffer that is released when
// recvResp returns, so its data never outlives the receive.
func (c *Client) recvResp(env transport.Env, conn transport.Conn, s int, seq uint64, timeout time.Duration, k *sink) error {
	want := k.holds()
	seg, _ := streamParams(c.StreamChunkBytes, c.StreamWindow)
	fb := getBuf(respFrameBytes(min(want, seg)))
	defer putBuf(fb)
	for {
		raw, err := transport.RecvInto(env, conn, *fb, timeout)
		if err != nil {
			return fmt.Errorf("pvfs: recv from server %d: %w", s, err)
		}
		t, v, err := wire.DecodeMsg(raw)
		if err != nil {
			return err
		}
		switch t {
		case wire.MTIOResp:
			r := v.(*wire.IOResp)
			if r.Seq != seq {
				continue // stale or duplicated response
			}
			if !r.OK {
				return &serverError{s: s, msg: r.Err}
			}
			if int64(len(r.Data)) != want {
				return fmt.Errorf("pvfs: server %d replied %d bytes to an access holding %d there", s, len(r.Data), want)
			}
			if k == nil {
				return nil
			}
			k.size = r.Size
			if err := k.put(r.Data); err != nil {
				return err
			}
			return k.finish(s)
		case wire.MTReadStreamHdr:
			h := v.(*wire.ReadStreamHdr)
			if h.Seq != seq {
				return fmt.Errorf("pvfs: server %d: stale stream (seq %d, want %d)", s, h.Seq, seq)
			}
			if err := c.recvStream(env, conn, h, timeout, k, fb); err != nil {
				return fmt.Errorf("pvfs: server %d: %w", s, err)
			}
			return k.finish(s)
		case wire.MTStreamChunk, wire.MTStreamAck:
			continue // debris from an abandoned streamed attempt
		default:
			return errors.New("pvfs: unexpected I/O response")
		}
	}
}

// recvStream feeds a streamed read response to sink k segment by
// segment, granting credit as segments are consumed. Duplicated
// already-consumed chunks are dropped before the sink sees them; a gap
// or a short/timed-out receive fails the attempt, and the caller drops
// the connection (the stream cannot resynchronize). A header announcing
// anything but the k.total bytes the server holds of the access fails
// before any byte lands. Chunk frames are received into fb, grown to the
// segment's frame if it is smaller: each segment is scattered before the
// next receive reuses it.
func (c *Client) recvStream(env transport.Env, conn transport.Conn, h *wire.ReadStreamHdr, timeout time.Duration, k *sink, fb *[]byte) error {
	if h.Total != k.holds() || h.Total <= 0 || h.SegBytes <= 0 || h.Window <= 0 {
		return fmt.Errorf("bad stream header total=%d (server holds %d of the access) seg=%d window=%d", h.Total, k.holds(), h.SegBytes, h.Window)
	}
	total, seg, window := h.Total, int64(h.SegBytes), int64(h.Window)
	nseg := (total + seg - 1) / seg
	if n := chunkFrameBytes(min(seg, total)); cap(*fb) < n {
		*fb = make([]byte, n)
	}
	ab := getBuf(16)
	defer putBuf(ab)
	var chunk wire.StreamChunk
	for i := int64(0); i < nseg; i++ {
		for {
			raw, err := transport.RecvInto(env, conn, *fb, timeout)
			if err != nil {
				return err
			}
			if err := wire.DecodeStreamChunk(raw, &chunk); err != nil {
				return err
			}
			if chunk.Err == "" && int64(chunk.Seq) < i {
				continue // injected duplicate of a consumed segment
			}
			break
		}
		if chunk.Err != "" {
			return errors.New(chunk.Err)
		}
		ni := segLen(total, seg, i)
		if int64(chunk.Seq) != i || int64(len(chunk.Data)) != ni {
			return fmt.Errorf("stream chunk seq=%d len=%d, want seq=%d len=%d",
				chunk.Seq, len(chunk.Data), i, ni)
		}
		if err := k.put(chunk.Data); err != nil {
			return err
		}
		if i+window < nseg {
			*ab = wire.AppendStreamAck(*ab, uint32(i))
			if err := conn.Send(env, *ab); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropConn closes and forgets the cached connection to server s (after
// a mid-stream failure leaves it out of protocol sync; the next request
// redials).
func (c *Client) dropConn(s int) {
	if c.conns[s] != nil {
		c.conns[s].Close()
		c.conns[s] = nil
	}
}

// readGroups issues one read-class request per involved replica group,
// each group's reply consumed by its sink, sinks[g]; each group's
// exchange runs in its own sibling thread, so a streamed response
// draining from one server does not stall the others. Every attempt
// restarts its group's sink, since a retried or failed-over read
// restarts its reply at byte 0. The picker names each group's
// preferred member (off keys it, so repeated reads of one region keep
// hitting the member whose page cache has it); suspected-dead members
// are skipped up front, and each failed attempt rotates to the next
// member, so failover from a freshly-dead server costs one failed
// attempt, not a retry ladder. enc builds the frame addressed to one
// member, carrying tag, whose sequence matches responses to this
// request generation. readGroups returns only after every group's
// exchange has ended, so no sink writes memory after it.
func (f *File) readGroups(env transport.Env, off int64, groups []int, tag wire.ReqTag, enc encoder, sinks []sink) error {
	c := f.c
	k := c.k()
	fns := make([]func(transport.Env) error, len(groups))
	for i, g := range groups {
		first := c.picker().Pick(f.handle, off, g, k)
		start := first
		for j := 0; j < k; j++ {
			if m := (first + j) % k; !c.isSuspect(env, c.phys(g, m)) {
				start = m
				break
			}
		}
		// Pre-dial best-effort: a server that is down right now is left
		// for the retry ladder, which redials with backoff.
		_, _ = c.conn(env, c.phys(g, start))
		g, sk := g, &sinks[g]
		fns[i] = func(env transport.Env) error {
			return c.exchange(env, "attempt", g, first, start, k, 0, func(env transport.Env, _ *trace.Span, m, phys int) (int64, error) {
				sk.reset()
				req := enc(tag, g, m, nil)
				return 0, c.tryExchange(env, phys, req, int64(len(req)), tag.Seq, sk)
			})
		}
	}
	return env.Parallel("pvfs-read", fns...)
}

// writeGroups issues one write per involved replica group and waits for
// the acks: one sibling thread per (group, member), every member
// receiving its group's full payload. payloads is indexed by group;
// enc builds the (inline or inner) request for one member, carrying
// tag, so retries of either form hit the server's replay cache (the
// per-client replay rings make the k copies independently
// at-most-once).
//
// Every reachable member must ack. A member that exhausts its retries
// with connection-class failures is abandoned — marked suspect, its
// copy left for the wipe+repair path to rebuild — as long as at least
// one copy of the group's data landed; if a whole group is unreachable,
// or any member rejects the request outright, the operation fails. An
// unreplicated group's one member is the only copy, so its failure is
// the operation's.
//
// Consistency note: abandoning a member is only safe because a member
// that missed acks while unreachable can only rejoin service through
// the kill path (wipe, then re-replicate from a surviving peer). A
// plain crash-restart shorter than the retry ladder is ridden out by
// the retries themselves.
func (c *Client) writeGroups(env transport.Env, groups []int, payloads [][]byte, tag wire.ReqTag, enc encoder) error {
	k := c.k()
	// Pre-dial best-effort so the transfers proceed concurrently; a dead
	// or suspected member is left for its retry ladder.
	for _, g := range groups {
		for j := 0; j < k; j++ {
			if phys := c.phys(g, j); !c.isSuspect(env, phys) {
				_, _ = c.conn(env, phys)
			}
		}
	}
	errs := make([]error, len(groups)*k)
	fns := make([]func(transport.Env) error, len(errs))
	for gi, g := range groups {
		for j := 0; j < k; j++ {
			i, g, j := gi*k+j, g, j
			fns[i] = func(env transport.Env) error {
				errs[i] = c.writeMember(env, g, j, payloads[g], tag, enc)
				return nil
			}
		}
	}
	if err := env.Parallel("pvfs-write", fns...); err != nil {
		return err
	}
	st := c.stats()
	for gi := range groups {
		acked := 0
		var connErr error
		for _, e := range errs[gi*k : gi*k+k] {
			switch {
			case e == nil:
				acked++
			case !retryable(e):
				return e
			default:
				connErr = e
			}
		}
		if acked == 0 {
			return connErr
		}
		if st != nil {
			for x := 1; x < acked; x++ {
				st.AddFanoutWrite()
			}
		}
	}
	return nil
}

// writeMember performs one member's write: inline when the payload fits
// a single segment, streamed otherwise, so the servers' disks overlap
// the network transfer. A suspected member of a replicated group is
// probed with a single attempt, so a dead server taxes each write one
// instant dial failure instead of a retry ladder; a group of one has no
// other copy to fall back on and always gets the full ladder.
//
// A streamed write resumes a failed attempt from the last acknowledged
// segment: ack a proves every segment before a reached the disk (the
// server flushes segment k's runs before receiving k+1 and acks k on
// receipt), so the retry re-sends the header with StartSeg=a and only
// segments a.. follow. Segment a itself may or may not have been
// applied; re-writing the same bytes is idempotent, and the server's
// replay cache catches the case where the whole write finished and only
// the response was lost. Replicated streams restart from segment 0
// instead: a member wiped by a kill mid-stream lost its acknowledged
// prefix (still idempotent, and a fully-applied duplicate is suppressed
// by the replay ring).
func (c *Client) writeMember(env transport.Env, g, m int, payload []byte, tag wire.ReqTag, enc encoder) error {
	k := c.k()
	attempts := 0 // the retry policy's
	if k > 1 && c.isSuspect(env, c.phys(g, m)) {
		attempts = 1
	}
	seg, window := streamParams(c.StreamChunkBytes, c.StreamWindow)
	total := int64(len(payload))
	if total <= seg {
		req := enc(tag, g, m, payload)
		return c.exchange(env, "attempt", g, m, m, 1, attempts, func(env transport.Env, _ *trace.Span, _, phys int) (int64, error) {
			return total, c.tryExchange(env, phys, req, int64(len(req))-total, tag.Seq, nil)
		})
	}
	inner := enc(tag, g, m, nil)
	resume := int64(0)
	return c.exchange(env, "write-stream-attempt", g, m, m, 1, attempts, func(env transport.Env, sp *trace.Span, _, phys int) (int64, error) {
		sp.SetAttr("resume_seg", resume)
		next, err := c.tryWriteStream(env, phys, payload, inner, seg, window, tag.Seq, resume)
		if next > resume && k == 1 {
			resume = next
		}
		return total - resume*seg, err
	})
}

// tryWriteStream is one attempt of a streamed write, sending segments
// start.. and returning the resume segment for the next attempt (the
// highest acknowledgment seen, which only grows).
func (c *Client) tryWriteStream(env transport.Env, s int, payload, inner []byte, seg, window int64, seq uint64, start int64) (resume int64, err error) {
	resume = start
	conn, err := c.conn(env, s)
	if err != nil {
		return resume, err
	}
	total := int64(len(payload))
	nseg := (total + seg - 1) / seg
	hdr := wire.EncodeWriteStreamHdr(&wire.WriteStreamHdr{
		Total: total, SegBytes: int32(seg), Window: int32(window),
		StartSeg: start, Inner: inner,
	})
	if err := conn.Send(env, hdr); err != nil {
		return resume, fmt.Errorf("pvfs: send to server %d: %w", s, err)
	}
	if st := c.stats(); st != nil {
		st.AddWire(int64(len(hdr))) // the description; segments are payload
	}
	fp := getBuf(chunkFrameBytes(seg))
	ackedThrough := start - 1
	for k := start; k < nseg; k++ {
		if k >= start+window && ackedThrough < k-window {
			got, aerr := recvAckAtLeast(env, conn, uint32(k-window), c.Retry.Timeout)
			if aerr != nil {
				err = aerr
				break
			}
			if int64(got) > ackedThrough {
				ackedThrough = int64(got)
				resume = ackedThrough
			}
		}
		nk := segLen(total, seg, k)
		*fp = wire.AppendStreamChunk((*fp), uint32(k), "", payload[k*seg:k*seg+nk])
		if err = conn.Send(env, *fp); err != nil {
			break
		}
	}
	putBuf(fp)
	if err != nil {
		return resume, fmt.Errorf("pvfs: server %d: %w", s, err)
	}
	return resume, c.recvResp(env, conn, s, seq, c.Retry.Timeout, nil)
}

// involvedServers reports which servers hold any byte of [off, off+n),
// in ascending server order.
func (f *File) involvedServers(off, n int64) []int {
	present := make([]bool, f.layout.NServers)
	f.layout.Split(off, n, func(p striping.Piece) bool {
		present[p.Server] = true
		return true
	})
	var out []int
	for s, p := range present {
		if p {
			out = append(out, s)
		}
	}
	return out
}

// allGroups lists every server (replica group) of the file, for the
// operations that involve each of them.
func (f *File) allGroups() []int {
	out := make([]int, f.layout.NServers)
	for i := range out {
		out[i] = i
	}
	return out
}

// encoder is a per-member wire encoder: the request carrying tag for
// member m of replica group g, with the group's payload data on a
// write (nil on a read, and for a streamed write's inner request).
type encoder func(tag wire.ReqTag, g, m int, data []byte) []byte

// jobCPU is how a plan charges the client's job building, priced at
// CostModel.PerRegionClient per piece.
type jobCPU uint8

const (
	noJob      jobCPU = iota // contiguous I/O builds no job
	serialJob                // list I/O: built before a write is sent, after a read is scattered
	overlapJob               // datatype I/O: built while the transfer runs
)

// plan is one client data operation lowered for File.do (DESIGN.md
// §15). Contiguous, list and datatype I/O differ only in these fields,
// as the server lowers the three requests to one regionsFn.
type plan struct {
	name   string // op span name
	attr   string // op span attribute set to attrN ("" = none)
	attrN  int64
	write  bool
	nbytes int64 // bytes the operation moves
	pick   int64 // the replica picker's key for a read
	groups []int // replica groups (logical servers) addressed
	enc    encoder
	w      walker
	cpu    jobCPU
}

// do runs one lowered data operation. It alone opens and ends the op
// span, takes the request tag, fans the requests out to the plan's
// groups, charges the job-build CPU and records the client's operation
// accounting. The op span in force before the call is restored after
// it, so a request the cache issues inside an entry point parents to
// its own op and nothing later parents to a finished one.
func (f *File) do(env transport.Env, p plan) error {
	c := f.c
	defer func(prev *trace.Span) { c.opSpan = prev }(c.opSpan)
	o := c.beginOp(env, p.name)
	if p.attr != "" {
		o.sp.SetAttr(p.attr, p.attrN)
	}
	tag := c.tag()
	per := c.cost.PerRegionClient // job-build CPU per piece
	var pieces int64
	var err error
	switch {
	case p.write:
		var bufs [][]byte
		if bufs, pieces, err = p.w.pack(); err != nil {
			return err
		}
		if p.cpu == overlapJob {
			// Real PVFS clients stream accesses as they generate them.
			d, groups, enc := per*time.Duration(pieces), p.groups, p.enc
			err = env.Overlap(func() time.Duration { return d }, func() error {
				return c.writeGroups(env, groups, bufs, tag, enc)
			})
			break
		}
		if p.cpu == serialJob {
			env.Compute(per * time.Duration(pieces))
		}
		err = c.writeGroups(env, p.groups, bufs, tag, p.enc)
	case p.cpu == overlapJob:
		// Real clients scatter each flow buffer as it arrives. Pricing
		// that needs the piece count before the replies exist, so only
		// an environment that models CPU time counts the pieces ahead.
		// The closures capture copies, so p and pieces stay on the stack
		// on the other paths.
		q := p
		var got int64
		err = env.Overlap(func() time.Duration { return per * time.Duration(q.w.count()) }, func() (err error) {
			got, err = f.recv(env, &q, tag)
			return err
		})
		pieces = got
	default:
		if pieces, err = f.recv(env, &p, tag); err == nil && p.cpu == serialJob {
			env.Compute(per * time.Duration(pieces))
		}
	}
	if err != nil {
		return err
	}
	if st := c.stats(); st != nil {
		st.AddOps(1)
		st.AddAccessed(p.nbytes)
		if p.cpu != noJob {
			st.AddRegions(pieces)
		}
	}
	c.endOp(env, o, p.nbytes)
	return nil
}

// recv sends a read plan's requests and scatters each server's reply
// into memory as it arrives, through a sink per server over one walk of
// the access, reporting the piece count.
func (f *File) recv(env transport.Env, p *plan, tag wire.ReqTag) (int64, error) {
	ss := getSinks(&p.w)
	defer putSinks(ss)
	if err := f.readGroups(env, p.pick, p.groups, tag, p.enc, ss.by); err != nil {
		return 0, err
	}
	var pieces int64
	for _, g := range p.groups {
		pieces += ss.by[g].pieces
	}
	return pieces, nil
}

// span is one piece of a read in walker.move's terms: n bytes at at.
type span struct{ at, n int64 }

// sink consumes one server's reply to a read: a cursor over the
// server's pieces in stream order, moving each chunk of the reply into
// the caller's memory as it comes off the wire. A piece cut by a
// chunk's end is moved in two parts.
type sink struct {
	w      *walker
	spans  []span // the server's pieces, in stream order
	total  int64  // bytes the server holds of the access
	size   int64  // a LocalSize answer
	i      int    // next piece
	done   int64  // bytes of spans[i] already moved
	pieces int64  // pieces moved, counted as walker.count does
}

// holds is the reply length the sink takes: 0 for none (nil).
func (k *sink) holds() int64 {
	if k == nil {
		return 0
	}
	return k.total
}

// reset rewinds the cursor for a new attempt.
func (k *sink) reset() { k.i, k.done, k.pieces = 0, 0, 0 }

// put moves the reply's next len(data) bytes into memory. The caller
// guarantees they are within total, and data is not read after put
// returns.
func (k *sink) put(data []byte) error {
	for len(data) > 0 {
		sp := k.spans[k.i]
		m := min(sp.n-k.done, int64(len(data)))
		got, err := k.w.move(data[:m], sp.at+k.done, m, false)
		if err != nil {
			return &accessError{err}
		}
		data = data[m:]
		if k.done+m < sp.n {
			k.done += m
			return nil
		}
		if k.done > 0 { // a cut piece counts once, as the whole of it
			got, _ = k.w.move(nil, sp.at, sp.n, false)
		}
		k.pieces += got
		k.i, k.done = k.i+1, 0
	}
	return nil
}

// finish checks that server s's reply covered every piece.
func (k *sink) finish(s int) error {
	if k.i != len(k.spans) {
		return fmt.Errorf("pvfs: server %d returned short data", s)
	}
	return nil
}

// accessError is a fault of the caller's own access, found while a
// reply is scattered: a memory run outside its buffer. No retry or
// other replica can mend it.
type accessError struct{ err error }

func (e *accessError) Error() string { return e.err.Error() }
func (e *accessError) Unwrap() error { return e.err }

// sinkSet is one read's sinks, indexed by server, pooled with their
// piece lists.
type sinkSet struct{ by []sink }

var sinkPool = sync.Pool{New: func() any { return new(sinkSet) }}

// putSinks returns ss to the pool without pinning the access's memory.
func putSinks(ss *sinkSet) {
	for i := range ss.by {
		ss.by[i].w = nil
	}
	sinkPool.Put(ss)
}

// getSinks walks w once into a pooled set of per-server sinks.
func getSinks(w *walker) *sinkSet {
	ss := sinkPool.Get().(*sinkSet)
	n := w.f.layout.NServers
	if cap(ss.by) < n {
		ss.by = make([]sink, n)
	}
	ss.by = ss.by[:n]
	for i := range ss.by {
		ss.by[i] = sink{w: w, spans: ss.by[i].spans[:0]}
	}
	_ = w.walk(func(server int, at, n int64) error {
		k := &ss.by[server]
		k.spans = append(k.spans, span{at, n})
		k.total += n
		return nil
	})
	return ss
}

// walker is one access method's piece walker. It visits the access in
// stream order as pieces, each one server's share of a run, and moves a
// piece between the caller's memory and a payload. A piece's at is its
// memory offset, except for a compiled datatype access, where it is a
// window of the memory stream that mprog gathers and scatters, cut
// only at strip boundaries. Exactly one access form is set.
type walker struct {
	f   *File
	mem []byte
	n   int64 // bytes in the access
	// contig: file range [off, off+n) maps to mem[0:n)
	off int64
	// list: paired file and memory regions
	fileRegs, memRegs []flatten.Region
	// dtype: compiled (fprog, mprog) or, with nil programs, walked by Dual
	a            *DtypeAccess
	fprog, mprog *flatten.Program
	tiles        int64
}

// walk calls fn for each piece in stream order, stopping at its first
// error.
func (w *walker) walk(fn func(server int, at, n int64) error) error {
	switch {
	case w.fprog != nil:
		return w.f.stripWindows(w.a, w.fprog, w.tiles, w.n, fn)
	case w.a != nil:
		file, mem := w.a.dual(w.tiles, w.n)
		return w.f.walkMapped(file, mem, fn)
	case w.fileRegs != nil:
		return w.f.walkMapped(flatten.NewSliceSource(w.fileRegs), flatten.NewSliceSource(w.memRegs), fn)
	}
	var err error
	w.f.layout.Split(w.off, w.n, func(p striping.Piece) bool {
		err = fn(p.Server, p.Logical-w.off, p.Len)
		return err == nil
	})
	return err
}

// serverBytes reports how many of the access's bytes each server
// holds. List I/O's file regions say that without the pairing with
// memory runs its walk does; the contig and compiled walks follow the
// file side alone.
func (w *walker) serverBytes() []int64 {
	sizes := make([]int64, w.f.layout.NServers)
	if w.fileRegs == nil {
		_ = w.walk(func(server int, _, n int64) error {
			sizes[server] += n
			return nil
		})
		return sizes
	}
	for _, r := range w.fileRegs {
		w.f.layout.Split(r.Off, r.Len, func(p striping.Piece) bool {
			sizes[p.Server] += p.Len
			return true
		})
	}
	return sizes
}

// move copies piece [at, at+n) between memory and flat: into flat when
// gather, out of it otherwise, and a nil flat only checks and counts.
// It reports the pieces the client's job building is charged for:
// the memory runs of a compiled window, otherwise one.
func (w *walker) move(flat []byte, at, n int64, gather bool) (int64, error) {
	if w.mprog != nil {
		if gather {
			return w.mprog.Gather(flat, w.mem, w.a.MemCount, 0, at, n)
		}
		return w.mprog.Scatter(w.mem, flat, w.a.MemCount, 0, at, n)
	}
	if at < 0 || at+n > int64(len(w.mem)) {
		return 0, fmt.Errorf("pvfs: memory region [%d,%d) outside buffer", at, at+n)
	}
	if gather {
		copy(flat, w.mem[at:at+n])
	} else {
		copy(w.mem[at:at+n], flat)
	}
	return 1, nil
}

// count is the read sinks' piece count without the replies, which
// prices a read's job building before they exist.
func (w *walker) count() int64 {
	var pieces int64
	// A bad memory run fails the read's sink too, which reports it.
	_ = w.walk(func(_ int, at, n int64) error {
		got, err := w.move(nil, at, n, false)
		pieces += got
		return err
	})
	return pieces
}

// pack builds a write's per-server payloads in stream order — a size
// pass, one backing allocation, a fill pass — and reports the piece
// count.
func (w *walker) pack() ([][]byte, int64, error) {
	sizes := w.serverBytes()
	var total int64
	for _, n := range sizes {
		total += n
	}
	bufs := make([][]byte, w.f.layout.NServers)
	payload := make([]byte, total)
	for s, n := range sizes {
		if n > 0 {
			bufs[s], payload = payload[:0:n], payload[n:]
		}
	}
	var pieces int64
	err := w.walk(func(server int, at, n int64) error {
		b := bufs[server]
		k := int64(len(b))
		got, err := w.move(b[k:k+n], at, n, true)
		bufs[server] = b[:k+n]
		pieces += got
		return err
	})
	return bufs, pieces, err
}

// contig runs a contiguous access of buf at logical offset off: one
// logical I/O operation, one request per involved server. An access no
// larger than a cache chunk is served by the cache; a larger one
// bypasses it, after flushing overlapping dirty data (reads must see the
// client's own writes, writes must land in issue order) and, for a
// write, invalidating the overlap so later cached reads cannot serve
// pre-write bytes.
func (f *File) contig(env transport.Env, off int64, buf []byte, write bool) error {
	n := int64(len(buf))
	if n == 0 {
		return nil
	}
	if cc := f.cacheFor(); cc != nil {
		if n <= cc.store.ChunkBytes() {
			if write {
				return cc.writeContig(env, f, off, buf)
			}
			return cc.readContig(env, f, off, buf)
		}
		if err := cc.prepRanges(env, f, write, []cache.Region{{Off: off, N: n}}); err != nil {
			return err
		}
	}
	return f.do(env, f.contigPlan(off, buf, write))
}

// contigPlan lowers a contiguous access of buf at off.
func (f *File) contigPlan(off int64, buf []byte, write bool) plan {
	n := int64(len(buf))
	p := plan{
		name: "read-contig", write: write, nbytes: n, pick: off,
		groups: f.involvedServers(off, n),
		enc: func(tag wire.ReqTag, g, m int, data []byte) []byte {
			return wire.EncodeContig(&wire.ContigReq{Tag: tag, Layout: f.wireLayout(g, m), Off: off, N: n, Data: data}, write)
		},
		w: walker{f: f, mem: buf, n: n, off: off},
	}
	if write {
		p.name = "write-contig"
	}
	return p
}

// ReadContig reads len(buf) bytes at logical offset off: one logical
// I/O operation, one request per involved server.
func (f *File) ReadContig(env transport.Env, off int64, buf []byte) error {
	return f.contig(env, off, buf, false)
}

// WriteContig writes data at logical offset off.
func (f *File) WriteContig(env transport.Env, off int64, data []byte) error {
	return f.contig(env, off, data, true)
}

// listTotal validates a list I/O call and returns the byte count.
func listTotal(fileRegions, memRegions []flatten.Region, mem []byte) (int64, error) {
	var fn, mn int64
	for _, r := range fileRegions {
		if r.Off < 0 || r.Len < 0 {
			return 0, fmt.Errorf("pvfs: bad file region %+v", r)
		}
		fn += r.Len
	}
	for _, r := range memRegions {
		if r.Off < 0 || r.Len < 0 || r.Off+r.Len > int64(len(mem)) {
			return 0, fmt.Errorf("pvfs: bad memory region %+v", r)
		}
		mn += r.Len
	}
	if fn != mn {
		return 0, fmt.Errorf("pvfs: file list covers %d bytes, memory list %d", fn, mn)
	}
	return fn, nil
}

// splitRegions partitions logical file regions by server, clipping at
// strip boundaries, preserving stream order within each server. This is
// the client-side list building the paper identifies as list I/O's
// overhead; it keeps each request carrying only that server's regions.
func (f *File) splitRegions(fileRegions []flatten.Region) [][]flatten.Region {
	out := make([][]flatten.Region, f.layout.NServers)
	for _, reg := range fileRegions {
		f.layout.Split(reg.Off, reg.Len, func(p striping.Piece) bool {
			// Merge adjacent logical pieces on the same server.
			out[p.Server] = datatype.AppendRegion(out[p.Server], p.Logical, p.Len)
			return true
		})
	}
	return out
}

// walkMapped walks file-stream pieces split by server, pairing them with
// memory offsets, via the dual cursor. fn is called in stream order.
func (f *File) walkMapped(file, mem flatten.Source, fn func(server int, memOff, n int64) error) error {
	d := flatten.NewDual(file, mem)
	for {
		fo, mo, n, ok := d.Next()
		if !ok {
			return nil
		}
		var err error
		f.layout.Split(fo, n, func(p striping.Piece) bool {
			err = fn(p.Server, mo+p.Logical-fo, p.Len)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
}

// splitListBatches cuts a list I/O call into batches of at most
// wire.MaxListRegions file and memory regions each, preserving stream
// order. The dual cursor pairs file bytes with memory bytes, so each
// batch's two lists cover exactly the same byte count, and issuing the
// batches in order is equivalent to the original call (list I/O
// semantics are defined in stream order). Adjacent pieces re-merge
// within a batch, so region counts do not inflate beyond the pairing
// splits.
func splitListBatches(fileRegions, memRegions []flatten.Region) (fb, mb [][]flatten.Region) {
	d := flatten.NewDual(flatten.NewSliceSource(fileRegions), flatten.NewSliceSource(memRegions))
	var curF, curM []flatten.Region
	flush := func() {
		if len(curF) > 0 {
			fb = append(fb, curF)
			mb = append(mb, curM)
			curF, curM = nil, nil
		}
	}
	for {
		fo, mo, n, ok := d.Next()
		if !ok {
			break
		}
		if len(curF) >= wire.MaxListRegions || len(curM) >= wire.MaxListRegions {
			flush()
		}
		curF = datatype.AppendRegion(curF, fo, n)
		curM = datatype.AppendRegion(curM, mo, n)
	}
	flush()
	return fb, mb
}

// ReadList performs a list I/O read: file regions (logical byte ranges)
// into memory regions of mem. Calls beyond wire.MaxListRegions regions
// are split into multiple requests transparently (the interface bound
// the paper discusses is the per-request protocol limit, not a caller
// burden).
func (f *File) ReadList(env transport.Env, fileRegions, memRegions []flatten.Region, mem []byte) error {
	return f.listIO(env, fileRegions, memRegions, mem, false)
}

// WriteList performs a list I/O write. Like ReadList, oversized calls
// are split into protocol-sized batches, each written in stream order.
func (f *File) WriteList(env transport.Env, fileRegions, memRegions []flatten.Region, mem []byte) error {
	return f.listIO(env, fileRegions, memRegions, mem, true)
}

// listIO validates a list I/O call and keeps it coherent with the
// client's cache before running it.
func (f *File) listIO(env transport.Env, fileRegions, memRegions []flatten.Region, mem []byte, write bool) error {
	total, err := listTotal(fileRegions, memRegions, mem)
	if err != nil {
		return err
	}
	if total == 0 {
		return nil
	}
	if cc := f.cacheFor(); cc != nil {
		regions := make([]cache.Region, len(fileRegions))
		for i, r := range fileRegions {
			regions[i] = cache.Region{Off: r.Off, N: r.Len}
		}
		if err := cc.prepRanges(env, f, write, regions); err != nil {
			return err
		}
	}
	return f.list(env, fileRegions, memRegions, mem, write)
}

// list runs valid list I/O uncached, one operation per protocol-sized
// batch.
func (f *File) list(env transport.Env, fileRegions, memRegions []flatten.Region, mem []byte, write bool) error {
	if len(fileRegions) <= wire.MaxListRegions && len(memRegions) <= wire.MaxListRegions {
		return f.do(env, f.listPlan(fileRegions, memRegions, mem, write))
	}
	fb, mb := splitListBatches(fileRegions, memRegions)
	for i := range fb {
		if err := f.do(env, f.listPlan(fb[i], mb[i], mem, write)); err != nil {
			return err
		}
	}
	return nil
}

// listPlan lowers one batch of list I/O: each server's request carries
// only its own regions.
func (f *File) listPlan(fileRegions, memRegions []flatten.Region, mem []byte, write bool) plan {
	var total int64
	for _, r := range fileRegions {
		total += r.Len
	}
	perServer := f.splitRegions(fileRegions)
	var groups []int
	for s, regs := range perServer {
		if regs != nil {
			groups = append(groups, s)
		}
	}
	p := plan{
		name: "read-list", attr: "regions", attrN: int64(len(fileRegions)),
		write: write, nbytes: total, pick: fileRegions[0].Off, groups: groups,
		enc: func(tag wire.ReqTag, g, m int, data []byte) []byte {
			return wire.EncodeListIO(&wire.ListIOReq{Tag: tag, Layout: f.wireLayout(g, m), Regions: perServer[g], Data: data}, write)
		},
		w:   walker{f: f, mem: mem, n: total, fileRegs: fileRegions, memRegs: memRegions},
		cpu: serialJob,
	}
	if write {
		p.name = "write-list"
	}
	return p
}

// DtypeAccess describes a datatype I/O operation: memory described by a
// dataloop over the caller's buffer, file described by a dataloop view
// (tiled at Disp), starting at stream position Pos.
type DtypeAccess struct {
	Mem      []byte
	MemLoop  *dataloop.Loop
	MemCount int64
	FileLoop *dataloop.Loop
	// FileProg and MemProg may carry flatten.Compile of FileLoop and
	// MemLoop, so a caller that repeats an access compiles each loop
	// once; a nil program is compiled for the operation.
	FileProg, MemProg *flatten.Program
	Disp              int64 // byte displacement of file tile 0
	Pos               int64 // starting stream offset within the tiled file view
	// NoCoalesce disables adjacent-region coalescing on both client and
	// server (ablation A2).
	NoCoalesce bool
}

func (a *DtypeAccess) validate() (nbytes, tiles int64, err error) {
	if a.MemLoop == nil || a.FileLoop == nil {
		return 0, 0, errors.New("pvfs: nil dataloop")
	}
	nbytes = a.MemCount * a.MemLoop.Size
	if nbytes == 0 {
		return 0, 0, nil
	}
	if a.FileLoop.Size <= 0 {
		return 0, 0, errors.New("pvfs: file dataloop has zero size")
	}
	if a.Pos < 0 || a.Disp < 0 {
		return 0, 0, errors.New("pvfs: negative position or displacement")
	}
	tiles = (a.Pos + nbytes + a.FileLoop.Size - 1) / a.FileLoop.Size
	return nbytes, tiles, nil
}

// programs returns the compiled file and memory programs the client
// packs and unpacks with, or nils where the server also keeps the
// interpreted walk: under NoCoalesce (ablation A2), or when
// flatten.Compile declines either loop.
func (a *DtypeAccess) programs() (file, mem *flatten.Program) {
	if a.NoCoalesce {
		return nil, nil
	}
	file, mem = a.FileProg, a.MemProg
	if file == nil {
		file = flatten.Compile(a.FileLoop)
	}
	if mem == nil {
		mem = flatten.Compile(a.MemLoop)
	}
	if file == nil || mem == nil {
		return nil, nil
	}
	return file, mem
}

// dual returns the interpreted file-window and memory walks of a.
func (a *DtypeAccess) dual(tiles, nbytes int64) (file, mem flatten.Source) {
	return flatten.NewIterAt(a.FileLoop, tiles, a.Disp, a.Pos, nbytes, !a.NoCoalesce),
		flatten.NewIter(a.MemLoop, a.MemCount, 0, !a.NoCoalesce)
}

// stripWindows replays the compiled file window of a and cuts each
// coalesced run at strip boundaries, calling fn in stream order with the
// piece's server and its window [pos, pos+n) of the memory stream.
func (f *File) stripWindows(a *DtypeAccess, fprog *flatten.Program, tiles, nbytes int64, fn func(server int, pos, n int64) error) error {
	var pos int64
	return fprog.Replay(tiles, a.Disp, a.Pos, nbytes, func(off, n int64) error {
		var err error
		f.layout.Split(off, n, func(p striping.Piece) bool {
			err = fn(p.Server, pos+p.Logical-off, p.Len)
			return err == nil
		})
		pos += n
		return err
	})
}

// ReadDtype performs a datatype read: one logical operation; the file
// dataloop ships to every server of the file, each of which expands it
// locally.
func (f *File) ReadDtype(env transport.Env, a *DtypeAccess) error {
	return f.dtypeOp(env, a, false)
}

// WriteDtype performs a datatype write.
func (f *File) WriteDtype(env transport.Env, a *DtypeAccess) error {
	return f.dtypeOp(env, a, true)
}

func (f *File) dtypeOp(env transport.Env, a *DtypeAccess, write bool) error {
	nbytes, tiles, err := a.validate()
	if err != nil {
		return err
	}
	if nbytes == 0 {
		return nil
	}
	if cc := f.cacheFor(); cc != nil {
		// Datatype footprints are not worth enumerating client-side (the
		// servers expand the loop): conservatively flush the whole file's
		// dirty data, and invalidate it for writes.
		if err := cc.prepFile(env, f, write); err != nil {
			return err
		}
	}
	return f.do(env, f.dtypePlan(a, nbytes, tiles, write))
}

// dtypePlan lowers a datatype access: every server of the file gets the
// file dataloop and expands it locally.
func (f *File) dtypePlan(a *DtypeAccess, nbytes, tiles int64, write bool) plan {
	loopBytes := a.FileLoop.Encode(nil)
	fprog, mprog := a.programs()
	p := plan{
		name: "read-dtype", attr: "tiles", attrN: tiles,
		write: write, nbytes: nbytes, pick: a.Disp + a.Pos, groups: f.allGroups(),
		enc: func(tag wire.ReqTag, g, m int, data []byte) []byte {
			return wire.EncodeDtype(&wire.DtypeReq{
				Tag:        tag,
				Layout:     f.wireLayout(g, m),
				Loop:       loopBytes,
				Count:      tiles,
				Disp:       a.Disp,
				Pos:        a.Pos,
				NBytes:     nbytes,
				NoCoalesce: a.NoCoalesce,
				Data:       data,
			}, write)
		},
		w:   walker{f: f, mem: a.Mem, n: nbytes, a: a, fprog: fprog, mprog: mprog, tiles: tiles},
		cpu: overlapJob,
	}
	if write {
		p.name = "write-dtype"
	}
	return p
}

// Size reports the logical file size (max over servers' local EOFs).
func (f *File) Size(env transport.Env) (int64, error) {
	if cc := f.cacheFor(); cc != nil {
		// Buffered writes do not extend server EOFs until flushed.
		if err := cc.prepFile(env, f, false); err != nil {
			return 0, err
		}
	}
	sinks := make([]sink, f.layout.NServers)
	err := f.readGroups(env, 0, f.allGroups(), f.c.tag(), func(tag wire.ReqTag, g, m int, _ []byte) []byte {
		return wire.EncodeLocalSize(&wire.LocalSizeReq{Tag: tag, Layout: f.wireLayout(g, m)})
	}, sinks)
	if err != nil {
		return 0, err
	}
	var size int64
	for s := range sinks {
		if eof := f.layout.LocalEOF(s, sinks[s].size); eof > size {
			size = eof
		}
	}
	return size, nil
}

// Truncate sets the logical file size.
func (f *File) Truncate(env transport.Env, size int64) error {
	if cc := f.cacheFor(); cc != nil {
		// Flush and drop everything cached for the file: chunks past the
		// new EOF would resurrect truncated bytes.
		if err := cc.syncFile(env, f); err != nil {
			return err
		}
	}
	// Truncation mutates every replica member, so it rides the write
	// fan-out path (with no payload to carry).
	return f.c.writeGroups(env, f.allGroups(), make([][]byte, f.layout.NServers), f.c.tag(),
		func(tag wire.ReqTag, g, m int, _ []byte) []byte {
			return wire.EncodeTruncate(&wire.TruncateReq{Tag: tag, Layout: f.wireLayout(g, m), Size: size})
		})
}

// Admin sends a fault-administration request to I/O server s: stall,
// crash-restart, or disk-degrade (pvfsctl's stall/crash/degrade verbs,
// and the bench fault driver's wire path). The response is read
// directly — admin requests are untagged and never retried; a crash ack
// is followed by the server closing the connection, so the cached conn
// is dropped.
func (c *Client) Admin(env transport.Env, s int, op wire.AdminOp, dur time.Duration, factor int64) error {
	_, err := c.adminCall(env, s, op, dur, factor)
	return err
}

// adminCall performs one untagged admin exchange with server s and
// returns the raw response (whose Data carries the AdminStats payload).
func (c *Client) adminCall(env transport.Env, s int, op wire.AdminOp, dur time.Duration, factor int64) (*wire.IOResp, error) {
	if s < 0 || s >= len(c.serverAddrs) {
		return nil, fmt.Errorf("pvfs: no server %d", s)
	}
	conn, err := c.conn(env, s)
	if err != nil {
		return nil, err
	}
	req := wire.EncodeAdmin(&wire.AdminReq{Op: op, Dur: int64(dur), Factor: factor})
	if err := conn.Send(env, req); err != nil {
		c.dropConn(s)
		return nil, fmt.Errorf("pvfs: admin send to server %d: %w", s, err)
	}
	raw, err := transport.RecvTimeout(env, conn, c.Retry.Timeout)
	if err != nil {
		c.dropConn(s)
		return nil, fmt.Errorf("pvfs: admin recv from server %d: %w", s, err)
	}
	_, v, err := wire.DecodeMsg(raw)
	if err != nil {
		c.dropConn(s)
		return nil, err
	}
	r, ok := v.(*wire.IOResp)
	if !ok {
		c.dropConn(s)
		return nil, errors.New("pvfs: unexpected admin response")
	}
	if op == wire.AdminCrash {
		c.dropConn(s) // the server closes this conn as it goes down
	}
	if !r.OK {
		return nil, &serverError{s: s, msg: r.Err}
	}
	return r, nil
}

// FetchStats retrieves I/O server s's live introspection snapshot
// (pvfsctl's stats verb) over the admin path.
func (c *Client) FetchStats(env transport.Env, s int) (*ServerSnapshot, error) {
	r, err := c.adminCall(env, s, wire.AdminStats, 0, 0)
	if err != nil {
		return nil, err
	}
	var snap ServerSnapshot
	if err := json.Unmarshal(r.Data, &snap); err != nil {
		return nil, fmt.Errorf("pvfs: server %d stats payload: %w", s, err)
	}
	return &snap, nil
}

// FetchFlight retrieves I/O server s's flight-recorder dump (the
// last-N per-request completion events, DESIGN.md §17) over the admin
// path. A server without a recorder answers with an empty dump.
func (c *Client) FetchFlight(env transport.Env, s int) (*flightrec.Dump, error) {
	r, err := c.adminCall(env, s, wire.AdminFlightRec, 0, 0)
	if err != nil {
		return nil, err
	}
	var d flightrec.Dump
	if err := json.Unmarshal(r.Data, &d); err != nil {
		return nil, fmt.Errorf("pvfs: server %d flight payload: %w", s, err)
	}
	return &d, nil
}

// FetchMetaStats retrieves metadata shard s's introspection snapshot
// (pvfsctl's stats verb). Lease traffic crossing the response on the
// shard's connection is stashed, like any other metadata exchange.
func (c *Client) FetchMetaStats(env transport.Env, s int) (*MetaSnapshot, error) {
	if s < 0 || s >= c.shards.N() {
		return nil, fmt.Errorf("pvfs: no meta shard %d", s)
	}
	v, err := c.metaExchange(env, s, wire.EncodeMetaStats(), wire.MTIOResp, c.Retry.Timeout)
	if err != nil {
		return nil, err
	}
	r := v.(*wire.IOResp)
	if !r.OK {
		return nil, fmt.Errorf("pvfs: meta shard %d: %s", s, r.Err)
	}
	var snap MetaSnapshot
	if err := json.Unmarshal(r.Data, &snap); err != nil {
		return nil, fmt.Errorf("pvfs: meta shard %d stats payload: %w", s, err)
	}
	return &snap, nil
}

// Regions re-exports the flatten region type for list I/O callers.
type Region = datatype.Region

// MaxListRegions re-exports the per-request list I/O region bound.
const MaxListRegions = wire.MaxListRegions
