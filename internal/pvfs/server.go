package pvfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dtio/internal/cache"
	"dtio/internal/dataloop"
	"dtio/internal/flatten"
	"dtio/internal/flightrec"
	"dtio/internal/iostats"
	"dtio/internal/metrics"
	"dtio/internal/storage"
	"dtio/internal/striping"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// ServerMetrics collects one I/O server's live introspection state:
// request latency histograms (split by request class) and the
// replay-suppression counter. All recording is atomic and
// allocation-free; a nil *ServerMetrics disables everything.
type ServerMetrics struct {
	// ReadLat observes read-class request service time (contig, list,
	// and dtype reads plus size probes), decode to response.
	ReadLat metrics.Histogram
	// WriteLat observes mutating request service time (writes including
	// stream drain, truncate, remove).
	WriteLat metrics.Histogram
	// Replays counts mutating requests answered from the replay cache
	// instead of re-executing.
	Replays metrics.Counter
}

func (m *ServerMetrics) observe(t wire.MsgType, d time.Duration) {
	if m == nil {
		return
	}
	switch t {
	case wire.MTReadContigReq, wire.MTReadListReq, wire.MTReadDtypeReq, wire.MTLocalSizeReq:
		m.ReadLat.Observe(d)
	default:
		m.WriteLat.Observe(d)
	}
}

func (m *ServerMetrics) addReplay() {
	if m == nil {
		return
	}
	m.Replays.Add(1)
}

// Lat merges the read and write histograms (the per-server latency
// snapshot the bench results and pvfsctl stats report).
func (m *ServerMetrics) Lat() metrics.HistSnapshot {
	if m == nil {
		return metrics.HistSnapshot{}
	}
	return m.ReadLat.Snapshot().Add(m.WriteLat.Snapshot())
}

// AdaptiveThreshold derives the tail-sampling slow-op cutoff from a
// server's live latency histograms: a rolling p99 over the window of
// requests since the previous recompute, floored so an idle or
// uniformly-fast server doesn't trace everything. Threshold is cheap
// enough for trace.TailConfig — an atomic load on most calls, with the
// p99 recomputed once every thresholdRecompute decisions (DESIGN.md
// §17).
type AdaptiveThreshold struct {
	m      *ServerMetrics
	floor  time.Duration
	calls  atomic.Int64
	cached atomic.Int64 // ns; 0 until first recompute succeeds

	mu   sync.Mutex
	prev metrics.HistSnapshot // merged snapshot at last recompute
}

// thresholdRecompute is how many Threshold calls share one cached p99,
// and the minimum window size (in samples) worth recomputing over.
const thresholdRecompute = 256

// NewAdaptiveThreshold returns a threshold tracking m's merged
// read+write histogram, never reporting below floor.
func NewAdaptiveThreshold(m *ServerMetrics, floor time.Duration) *AdaptiveThreshold {
	if floor <= 0 {
		floor = time.Millisecond
	}
	return &AdaptiveThreshold{m: m, floor: floor}
}

// Threshold reports the current slow-op cutoff (for trace.TailConfig).
func (a *AdaptiveThreshold) Threshold() time.Duration {
	if a == nil {
		return 0
	}
	if n := a.calls.Add(1); n == 1 || n%thresholdRecompute == 0 {
		a.recompute()
	}
	if v := a.cached.Load(); v > 0 {
		return time.Duration(v)
	}
	return a.floor
}

func (a *AdaptiveThreshold) recompute() {
	cur := a.m.Lat()
	a.mu.Lock()
	defer a.mu.Unlock()
	win := cur.Sub(a.prev)
	if win.Count < thresholdRecompute/4 {
		return // too few samples since last time: keep the old cutoff
	}
	a.prev = cur
	p99 := win.Quantile(0.99)
	if p99 < a.floor {
		p99 = a.floor
	}
	a.cached.Store(int64(p99))
}

// Server is one I/O server: a map of handle -> local object plus the
// request processing that turns contiguous, list, and datatype requests
// into local reads and writes.
type Server struct {
	net   transport.Network
	addr  string
	index int // this server's position in the cluster's server list
	cost  CostModel
	// NewStore creates backing storage for a new object (default:
	// storage.NewMem).
	NewStore func(handle uint64) storage.Store

	mu      sync.Mutex
	objects map[uint64]storage.Store
	lis     transport.Listener
	closed  bool

	// Fault administration and recovery state (DESIGN.md §11): open
	// handler connections (severed on Crash), the pending crash-restart
	// downtime Serve consumes, the stall deadline every dequeued request
	// waits out, a disk-time multiplier the scheduler picks up, and the
	// per-client replay history that makes mutating requests at-most-once
	// across retries.
	conns      map[transport.Conn]uint64 // value: accept order, so Crash severs deterministically
	connSeq    uint64
	restartIn  *time.Duration
	stallUntil time.Duration
	diskScale  atomic.Int64
	dedup      map[uint64]*clientHistory

	// Replica repair state (DESIGN.md §16). ReplicaPeers lists the
	// addresses of this server's group siblings; after a Kill (crash
	// with data loss) the restart comes back empty and re-replicates
	// every object from the first reachable peer. While repairing, the
	// member refuses replicated reads (clients fail over to surviving
	// peers) but accepts writes, recording their physical ranges in
	// written so the background copy never clobbers post-restart data.
	ReplicaPeers []string
	wipe         bool                      // set by Kill: next restart loses all objects
	repairing    bool                      // rebuilding from peers; guarded by mu
	repairLive   atomic.Bool               // lock-free mirror of repairing for hot paths
	incarnation  uint64                    // bumped on every wiped restart
	written      map[uint64]cache.RangeSet // physical ranges written since the wipe
	// pendingWrites counts write-class requests currently being
	// serviced. Reported to rebuilding group peers in ReplicaListResp:
	// a repair pass is only final once the source reports none in
	// flight, so a write racing the copy forces another pass.
	pendingWrites atomic.Int64

	// loopCache memoizes decoded dataloops AND their compiled run
	// programs by wire bytes: the datatype-caching extension the paper's
	// §5 proposes ("datatype caching ... could boost the performance of
	// PVFS datatype I/O by further reducing I/O request overhead").
	// Repeated accesses with the same view skip both the decode and the
	// flatten.Compile cost; replay is then pure arithmetic. Overflow is
	// handled by a second-chance sweep, not a reset, so a hot view
	// population survives a scan of cold ones. Disable with
	// DisableLoopCache; every request then decodes and compiles afresh.
	DisableLoopCache bool
	cacheMu          sync.Mutex
	loopCache        map[string]*loopEntry
	cacheHits        int64
	cacheMisses      int64
	cacheEvictions   int64
	compiledReplays  atomic.Int64

	// StreamChunkBytes is the flow-control segment size: transfers
	// larger than this are streamed so disk and network overlap
	// (0 = DefaultStreamChunkBytes).
	StreamChunkBytes int
	// StreamWindow is the maximum number of unacknowledged segments in
	// flight per streamed transfer (0 = DefaultStreamWindow).
	StreamWindow int

	// SieveGapBytes is the disk scheduler's read gap-merge threshold:
	// runs separated by at most this many bytes are served by a single
	// over-reading disk operation (0 = merge strictly adjacent runs
	// only; see DefaultSieveGapBytes).
	SieveGapBytes int64
	// AdjacentWritesOnly turns server-side write sieving off: write runs
	// then coalesce only when strictly adjacent, and no write touches a
	// byte its payload does not cover. The simulated paper grid sets it,
	// because PVFS 1 never wrote a gap byte; everything else leaves
	// sieving on (DESIGN.md §10).
	AdjacentWritesOnly bool
	// latches serialize the store mutations of an object — write
	// batches, truncates, removal and repair copies — so a sieved write's
	// read-modify-write of a hole never interleaves with another writer
	// of those bytes. Indexed by handle; see latch.
	latches [64]sync.Mutex
	// Stats (optional) collects the disk-scheduler counters: runs
	// presented, operations dispatched, head travel.
	Stats *iostats.Stats

	// Tracer (optional) records request/disk/stream spans, parented to
	// the originating client op via wire.ReqTag.Span.
	Tracer *trace.Tracer
	// Metrics (optional) collects request latency histograms and the
	// replay counter.
	Metrics *ServerMetrics
	// Flight (optional) is the always-on flight recorder: a fixed ring
	// of compact per-request completion events (DESIGN.md §17). Dumped
	// on demand by wire.AdminFlightRec, on SIGQUIT by the daemon, and
	// automatically on the crash/kill paths (PostMortem/OnCrashDump).
	// Lapped events are counted in Stats as EventsDropped.
	Flight *flightrec.Ring
	// OnCrashDump (optional) receives the flight-recorder dump captured
	// at the instant of a Crash or Kill, before connections sever — the
	// daemon writes it to stderr, the bench keeps it for the report.
	OnCrashDump func(flightrec.Dump)
	// inflight counts requests currently inside handle: the queue depth
	// at arrival stamped into each flight record, and the InFlight
	// gauge in StatsSnapshot.
	inflight atomic.Int64
	// postmortem is the dump captured by the last Crash/Kill (nil until
	// one happens); guarded by mu.
	postmortem *flightrec.Dump

	spanTrack string // span track label, fixed at construction
}

// NewServer creates I/O server number index listening at addr.
func NewServer(net transport.Network, addr string, index int, cost CostModel) *Server {
	return &Server{
		net:       net,
		addr:      addr,
		index:     index,
		cost:      cost,
		NewStore:  func(uint64) storage.Store { return storage.NewMem() },
		objects:   make(map[uint64]storage.Store),
		spanTrack: fmt.Sprintf("io-server-%d", index),
	}
}

// Index reports this server's position in the cluster's server list.
func (s *Server) Index() int { return s.index }

// Serve listens and handles connections until Close. A Crash (fail-stop
// injected locally or by an admin request) makes the current incarnation
// return; Serve then waits out the downtime and listens again, which is
// exactly a daemon restart — local objects persist across it, standing
// in for the server's disk. A Kill restart instead comes back empty (a
// blank spare replacing a dead machine) and, when the server has
// replica peers, starts background re-replication from its group.
func (s *Server) Serve(env transport.Env) error {
	for {
		if err := s.serveOnce(env); err != nil {
			return err
		}
		down, ok := s.takeRestart()
		if !ok {
			return nil
		}
		sleepBoth(env, down)
		s.mu.Lock()
		closed := s.closed
		wiped := s.wipe && !closed
		if wiped {
			s.wipe = false
			s.objects = make(map[uint64]storage.Store)
			s.dedup = nil // the at-most-once history died with the data
			s.written = nil
			s.incarnation++
			if len(s.ReplicaPeers) > 0 {
				s.repairing = true
				s.repairLive.Store(true)
			}
		}
		inc := s.incarnation
		s.mu.Unlock()
		if closed {
			return nil
		}
		if wiped && len(s.ReplicaPeers) > 0 {
			env.Go("replica-repair", func(env transport.Env) { s.runRepair(env, inc) })
		}
	}
}

// serveOnce runs one server incarnation: listen, accept, handle, until
// the listener closes (Close or Crash).
func (s *Server) serveOnce(env transport.Env) error {
	lis, err := s.net.Listen(s.addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.lis = lis
	closed := s.closed
	s.mu.Unlock()
	if closed {
		lis.Close()
		return nil
	}
	for {
		conn, err := lis.Accept(env)
		if err != nil {
			return nil
		}
		c := conn
		s.track(c, true)
		env.Go("io-handler", func(env transport.Env) {
			defer func() {
				s.track(c, false)
				c.Close()
			}()
			for {
				msg, err := c.Recv(env)
				if err != nil {
					return
				}
				resp, err := s.handle(env, c, msg)
				if err != nil {
					// The connection is out of protocol sync (e.g. a
					// failed stream); close it.
					return
				}
				if resp == nil {
					continue // fully answered by a stream
				}
				if err := c.Send(env, resp); err != nil {
					return
				}
			}
		})
	}
}

func (s *Server) track(c transport.Conn, add bool) {
	s.mu.Lock()
	if add {
		if s.conns == nil {
			s.conns = make(map[transport.Conn]uint64)
		}
		s.connSeq++
		s.conns[c] = s.connSeq
	} else {
		delete(s.conns, c)
	}
	s.mu.Unlock()
}

// Close stops the listener.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
}

// Crash simulates a fail-stop: the listener and every open connection
// drop immediately, with no goodbye to anyone mid-request. Serve
// restarts the server after down. In-flight requests die; clients
// recover via retries and stream resume.
func (s *Server) Crash(down time.Duration) {
	// Capture the flight recorder first: the dump is the post-mortem of
	// what this incarnation was doing when it died, so it must precede
	// the connection cull (and any OnCrashDump side effects see a ring
	// no longer advanced by requests on the severed connections... or
	// nearly so; late in-flight completions may still append, which is
	// fine — the dump is a snapshot, the ring stays live).
	if s.Flight != nil {
		d := flightrec.NewDump(s.index, s.Flight)
		s.mu.Lock()
		s.postmortem = &d
		s.mu.Unlock()
		if f := s.OnCrashDump; f != nil {
			f(d)
		}
	}
	s.mu.Lock()
	if s.restartIn == nil {
		d := down
		s.restartIn = &d
	}
	lis := s.lis
	s.lis = nil
	// Sever connections in accept order, not map order: under the
	// simulation the close wake-ups interleave with client goroutines,
	// and a run-to-run random order would make crash cells drift.
	type tracked struct {
		c   transport.Conn
		seq uint64
	}
	conns := make([]tracked, 0, len(s.conns))
	for c, seq := range s.conns {
		conns = append(conns, tracked{c, seq})
	}
	s.conns = nil
	s.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].seq < conns[j].seq })
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
}

// Kill simulates permanent server death followed by a blank spare at
// the same address: a Crash whose restart loses every local object
// (fault.Kill, wire.AdminKill). Unreplicated data is simply gone —
// reads return holes; with replica peers configured the restart
// re-builds the member from its surviving group (DESIGN.md §16).
func (s *Server) Kill(down time.Duration) {
	s.mu.Lock()
	s.wipe = true
	s.mu.Unlock()
	s.Crash(down)
}

// PostMortem returns the flight-recorder dump captured at the moment
// of the last Crash or Kill, and whether one exists (requires Flight
// to have been set when the crash happened).
func (s *Server) PostMortem() (flightrec.Dump, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.postmortem == nil {
		return flightrec.Dump{}, false
	}
	return *s.postmortem, true
}

// takeRestart consumes a pending crash-restart downtime.
func (s *Server) takeRestart() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.restartIn == nil {
		return 0, false
	}
	d := *s.restartIn
	s.restartIn = nil
	return d, true
}

// StallFor makes the server freeze for the next d — alive and
// accepting, but unresponsive, which clients can only distinguish from
// loss by timeout. The gate sits between requests and between stream
// segments, so in-flight transfers seize too, as they would under a
// wedged daemon.
func (s *Server) StallFor(env transport.Env, d time.Duration) {
	s.mu.Lock()
	if t := env.Now() + d; t > s.stallUntil {
		s.stallUntil = t
	}
	s.mu.Unlock()
}

// stallGate blocks while the server is inside a StallFor window.
func (s *Server) stallGate(env transport.Env) {
	s.mu.Lock()
	stall := s.stallUntil
	s.mu.Unlock()
	if now := env.Now(); now < stall {
		sleepBoth(env, stall-now)
	}
}

// SetDiskScale sets the modeled disk-time multiplier in percent (100 or
// 0 restores normal speed): a degraded, slow disk rather than a dead one.
func (s *Server) SetDiskScale(percent int64) {
	s.diskScale.Store(percent)
}

// sleepBoth waits d under both clocks: env.Sleep advances virtual time
// in simulation and is a no-op on real environments, where the
// wall-clock remainder is waited out for real.
func sleepBoth(env transport.Env, d time.Duration) {
	target := env.Now() + d
	env.Sleep(d)
	if rest := target - env.Now(); rest > 0 {
		time.Sleep(rest)
	}
}

// latch returns the mutex that serializes store mutations of handle's
// object. It is the innermost lock: resolve the store (object, which
// takes mu) before taking it, and never take mu while holding it.
func (s *Server) latch(handle uint64) *sync.Mutex {
	return &s.latches[handle%uint64(len(s.latches))]
}

// object returns (creating on demand) the local store for a handle.
func (s *Server) object(handle uint64) storage.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objects[handle]
	if !ok {
		st = s.NewStore(handle)
		s.objects[handle] = st
	}
	return st
}

func ioErr(format string, args ...any) []byte {
	return wire.EncodeIOResp(&wire.IOResp{Err: fmt.Sprintf(format, args...)})
}

func ioErrSeq(seq uint64, format string, args ...any) []byte {
	return wire.EncodeIOResp(&wire.IOResp{Seq: seq, Err: fmt.Sprintf(format, args...)})
}

// dedupPerClient bounds the replay history per client. A client has at
// most one outstanding tagged request per server connection, so a small
// ring comfortably covers every replay a retry can produce.
const dedupPerClient = 8

// clientHistory is one client's recent mutating requests and their
// responses, for at-most-once replay suppression.
type clientHistory struct {
	seqs  [dedupPerClient]uint64
	resps [dedupPerClient][]byte
	pos   int
}

// replay returns the recorded response if this tag's request was
// already executed: the retry's request must not mutate again (a replayed
// write could otherwise resurrect old bytes over a later writer's data).
func (s *Server) replay(tag wire.ReqTag) ([]byte, bool) {
	if tag.Client == 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.dedup[tag.Client]
	if h == nil {
		return nil, false
	}
	for i, q := range h.seqs {
		if q == tag.Seq && q != 0 {
			return h.resps[i], true
		}
	}
	return nil, false
}

// remember records a completed mutating request's response for replay.
func (s *Server) remember(tag wire.ReqTag, resp []byte) {
	if tag.Client == 0 || resp == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dedup == nil {
		s.dedup = make(map[uint64]*clientHistory)
	}
	h := s.dedup[tag.Client]
	if h == nil {
		h = &clientHistory{}
		s.dedup[tag.Client] = h
	}
	h.seqs[h.pos] = tag.Seq
	h.resps[h.pos] = resp
	h.pos = (h.pos + 1) % dedupPerClient
}

// layoutOf validates and converts the wire layout. Requests address
// (group, member) pairs, with group g's member j living at physical
// server g*k + j, so the striping math below stays in group space. An
// unreplicated file (Replicas 0 or 1) is groups of one: its member 0 of
// group g is cluster server g.
func (s *Server) layoutOf(l wire.FileLayout) (striping.Layout, error) {
	lay := striping.Layout{StripSize: l.StripSize, NServers: int(l.NServers), Base: int(l.Base)}
	if err := lay.Validate(); err != nil {
		return lay, err
	}
	k := max(int(l.Replicas), 1)
	if l.Member < 0 || int(l.Member) >= k || l.ServerIdx < 0 || l.ServerIdx >= l.NServers ||
		int(l.ServerIdx)*k+int(l.Member) != s.index {
		return lay, fmt.Errorf("request for group %d/%d member %d/%d arrived at cluster server %d",
			l.ServerIdx, l.NServers, l.Member, k, s.index)
	}
	return lay, nil
}

// repairGate refuses a replicated read while this member is rebuilding
// — its bytes are incomplete, and the client's failover path fetches
// them from a surviving peer. Unreplicated requests pass: their data
// has no other copy, so holes are the honest answer. Returns nil when
// the request may proceed.
func (s *Server) repairGate(l wire.FileLayout, seq uint64) []byte {
	if l.Replicas <= 1 || !s.repairLive.Load() {
		return nil
	}
	return ioErrSeq(seq, "server %d repairing", s.index)
}

// noteWrite records a physical range written while repairing, so the
// background copy never overwrites post-restart client data.
func (s *Server) noteWrite(handle uint64, off, n int64) {
	s.mu.Lock()
	if s.repairing {
		if s.written == nil {
			s.written = make(map[uint64]cache.RangeSet)
		}
		s.written[handle] = s.written[handle].Add(off, n)
	}
	s.mu.Unlock()
}

// tagOf extracts the request tag carried by a decoded I/O request (zero
// for untagged message kinds).
func tagOf(v any) wire.ReqTag {
	switch r := v.(type) {
	case *wire.ContigReq:
		return r.Tag
	case *wire.ListIOReq:
		return r.Tag
	case *wire.DtypeReq:
		return r.Tag
	case *wire.LocalSizeReq:
		return r.Tag
	case *wire.TruncateReq:
		return r.Tag
	case *wire.RemoveObjReq:
		return r.Tag
	}
	return wire.ReqTag{}
}

// handle services one request. A nil response with nil error means the
// request was answered entirely by a stream; a non-nil error means the
// connection is no longer usable and must close. With Tracer, Metrics,
// and Flight all nil the observation block is three nil checks — the
// dtype read hot path stays within PR1's allocation bound; with them
// enabled everything recorded is atomics and preallocated slots, so
// the bound holds there too (asserted by the observe tests).
func (s *Server) handle(env transport.Env, conn transport.Conn, msg []byte) ([]byte, error) {
	if s.Tracer == nil && s.Metrics == nil && s.Flight == nil {
		s.stallGate(env)
		t, v, err := wire.DecodeMsg(msg)
		if err != nil {
			return ioErr("bad request: %v", err), nil
		}
		env.Compute(s.cost.RequestOverhead)
		resp, _, err := s.dispatch(env, conn, t, v, nil)
		return resp, err
	}
	// Observed path: the queue-depth gauge counts from arrival and the
	// service clock starts before the stall gate, so a stalled server
	// shows the health aggregator rising depth and (once it unfreezes)
	// a p99 spike instead of silence (DESIGN.md §17).
	depth := s.inflight.Add(1) - 1 // queue depth at arrival: requests already in service
	start := env.Now()
	s.stallGate(env)
	t, v, err := wire.DecodeMsg(msg)
	if err != nil {
		s.inflight.Add(-1)
		return ioErr("bad request: %v", err), nil
	}
	env.Compute(s.cost.RequestOverhead)
	// t.String() indexes a static name table: no allocation when only
	// Metrics is enabled.
	sp := s.Tracer.Begin(env, s.spanTrack, t.String(), trace.SpanID(tagOf(v).Span))
	resp, flags, err := s.dispatch(env, conn, t, v, sp)
	svc := env.Now() - start
	sp.End(env)
	s.Metrics.observe(t, svc)
	s.inflight.Add(-1)
	if s.Flight != nil {
		s.recordFlight(t, v, svc, depth, flags, resp)
	}
	return resp, err
}

// recordFlight appends one completion event to the flight recorder.
// Only called with s.Flight set; alloc-free (a type switch, a few
// atomic loads, the ring's claim+store).
func (s *Server) recordFlight(t wire.MsgType, v any, svc time.Duration, depth int64, flags uint8, resp []byte) {
	if sc := s.diskScale.Load(); sc != 0 && sc != 100 {
		flags |= flightrec.FlagDegraded
	}
	if s.repairLive.Load() {
		flags |= flightrec.FlagRepairing
	}
	if wire.RespIsErr(resp) {
		flags |= flightrec.FlagError
	}
	if depth > 65535 {
		depth = 65535
	}
	handle, bytes := flightInfo(v)
	if s.Flight.Record(flightrec.Event{
		Span: tagOf(v).Span, Handle: handle, Bytes: bytes,
		ServiceNs: int64(svc), Op: uint8(t), Flags: flags, Depth: uint16(depth),
	}) && s.Stats != nil {
		s.Stats.AddEventDropped()
	}
}

// flightInfo extracts the handle and payload byte count a flight
// record carries, per request kind (zero when the kind has neither).
func flightInfo(v any) (handle uint64, bytes int64) {
	switch r := v.(type) {
	case *wire.ContigReq:
		return r.Layout.Handle, r.N
	case *wire.ListIOReq:
		var n int64
		for _, reg := range r.Regions {
			n += reg.Len
		}
		return r.Layout.Handle, n
	case *wire.DtypeReq:
		return r.Layout.Handle, r.NBytes
	case *wire.LocalSizeReq:
		return r.Layout.Handle, 0
	case *wire.TruncateReq:
		return r.Layout.Handle, r.Size
	case *wire.RemoveObjReq:
		return r.Layout.Handle, 0
	case *wire.WriteStreamHdr:
		return 0, r.Total // the handle lives on the inner request
	case *wire.ReplicaFetchReq:
		return r.Handle, r.N
	case *wire.ReplicaSumReq:
		return r.Handle, 0
	}
	return 0, 0
}

// dispatch routes one decoded request. sp is the request span (nil when
// tracing is off) threaded down so disk batches and stream segments
// parent to it. The middle return value carries the flight-recorder
// flags only dispatch can know (FlagReplay today); the caller merges
// in the server-state flags.
func (s *Server) dispatch(env transport.Env, conn transport.Conn, t wire.MsgType, v any, sp *trace.Span) ([]byte, uint8, error) {
	switch t {
	case wire.MTWriteContigReq, wire.MTWriteListReq, wire.MTWriteDtypeReq,
		wire.MTWriteStreamHdr, wire.MTTruncateReq:
		s.pendingWrites.Add(1)
		defer s.pendingWrites.Add(-1)
	}
	switch t {
	case wire.MTReadContigReq:
		r := v.(*wire.ContigReq)
		if resp := s.repairGate(r.Layout, r.Tag.Seq); resp != nil {
			return resp, 0, nil
		}
		resp, err := s.contig(env, conn, r, nil, sp)
		return resp, 0, err
	case wire.MTWriteContigReq:
		r := v.(*wire.ContigReq)
		if cached, ok := s.replay(r.Tag); ok {
			s.Metrics.addReplay()
			sp.SetAttr("replay", 1)
			return cached, flightrec.FlagReplay, nil
		}
		src := inlineSrc(r.Data)
		resp, err := s.contig(env, conn, r, src, sp)
		putSrc(src)
		s.remember(r.Tag, resp)
		return resp, 0, err
	case wire.MTReadListReq:
		r := v.(*wire.ListIOReq)
		if resp := s.repairGate(r.Layout, r.Tag.Seq); resp != nil {
			return resp, 0, nil
		}
		resp, err := s.list(env, conn, r, nil, sp)
		return resp, 0, err
	case wire.MTWriteListReq:
		r := v.(*wire.ListIOReq)
		if cached, ok := s.replay(r.Tag); ok {
			s.Metrics.addReplay()
			sp.SetAttr("replay", 1)
			return cached, flightrec.FlagReplay, nil
		}
		src := inlineSrc(r.Data)
		resp, err := s.list(env, conn, r, src, sp)
		putSrc(src)
		s.remember(r.Tag, resp)
		return resp, 0, err
	case wire.MTReadDtypeReq:
		r := v.(*wire.DtypeReq)
		if resp := s.repairGate(r.Layout, r.Tag.Seq); resp != nil {
			return resp, 0, nil
		}
		resp, err := s.dtype(env, conn, r, nil, sp)
		return resp, 0, err
	case wire.MTWriteDtypeReq:
		r := v.(*wire.DtypeReq)
		if cached, ok := s.replay(r.Tag); ok {
			s.Metrics.addReplay()
			sp.SetAttr("replay", 1)
			return cached, flightrec.FlagReplay, nil
		}
		src := inlineSrc(r.Data)
		resp, err := s.dtype(env, conn, r, src, sp)
		putSrc(src)
		s.remember(r.Tag, resp)
		return resp, 0, err
	case wire.MTWriteStreamHdr:
		return s.streamedWrite(env, conn, v.(*wire.WriteStreamHdr), sp)
	case wire.MTLocalSizeReq:
		r := v.(*wire.LocalSizeReq)
		if resp := s.repairGate(r.Layout, r.Tag.Seq); resp != nil {
			return resp, 0, nil // size is a read: a rebuilding object undercounts
		}
		if _, err := s.layoutOf(r.Layout); err != nil {
			return ioErrSeq(r.Tag.Seq, "%v", err), 0, nil
		}
		return wire.EncodeIOResp(&wire.IOResp{Seq: r.Tag.Seq, OK: true, Size: s.object(r.Layout.Handle).Size()}), 0, nil
	case wire.MTTruncateReq:
		r := v.(*wire.TruncateReq)
		if cached, ok := s.replay(r.Tag); ok {
			s.Metrics.addReplay()
			sp.SetAttr("replay", 1)
			return cached, flightrec.FlagReplay, nil
		}
		resp := s.truncate(r)
		s.remember(r.Tag, resp)
		return resp, 0, nil
	case wire.MTRemoveObjReq:
		r := v.(*wire.RemoveObjReq)
		l := s.latch(r.Layout.Handle)
		s.mu.Lock()
		l.Lock()
		delete(s.objects, r.Layout.Handle)
		l.Unlock()
		s.mu.Unlock()
		return wire.EncodeIOResp(&wire.IOResp{Seq: r.Tag.Seq, OK: true}), 0, nil
	case wire.MTAdminReq:
		resp, err := s.admin(env, conn, v.(*wire.AdminReq))
		return resp, 0, err
	case wire.MTReplicaListReq:
		return s.replicaList(), 0, nil
	case wire.MTReplicaFetchReq:
		return s.replicaFetch(v.(*wire.ReplicaFetchReq)), 0, nil
	case wire.MTReplicaSumReq:
		return s.replicaSums(v.(*wire.ReplicaSumReq)), 0, nil
	default:
		return ioErr("unexpected message %s", t), 0, nil
	}
}

func (s *Server) truncate(r *wire.TruncateReq) []byte {
	lay, err := s.layoutOf(r.Layout)
	if err != nil {
		return ioErrSeq(r.Tag.Seq, "%v", err)
	}
	if r.Size < 0 {
		return ioErrSeq(r.Tag.Seq, "negative size %d", r.Size)
	}
	local := lay.LocalLen(int(r.Layout.ServerIdx), r.Size)
	st := s.object(r.Layout.Handle)
	l := s.latch(r.Layout.Handle)
	l.Lock()
	err = st.Truncate(local)
	l.Unlock()
	if err != nil {
		return ioErrSeq(r.Tag.Seq, "truncate: %v", err)
	}
	return wire.EncodeIOResp(&wire.IOResp{Seq: r.Tag.Seq, OK: true})
}

// ServerSnapshot is the JSON introspection payload an AdminStats
// request returns: the server's identity, its I/O counters, request
// latency distribution (read and write classes merged, with headline
// quantiles precomputed), and the replay/loop-cache state.
type ServerSnapshot struct {
	Server          int                  `json:"server"`
	IOStats         iostats.Snapshot     `json:"iostats"`
	Lat             metrics.HistSnapshot `json:"latency"`
	P50Us           int64                `json:"p50_us"`
	P95Us           int64                `json:"p95_us"`
	P99Us           int64                `json:"p99_us"`
	Replays         int64                `json:"replays"`
	CacheHits       int64                `json:"loop_cache_hits"`
	CacheMisses     int64                `json:"loop_cache_misses"`
	CacheEvictions  int64                `json:"loop_cache_evictions"`
	CompiledReplays int64                `json:"compiled_replays"`
	Repairing       bool                 `json:"repairing,omitempty"`
	// InFlight is the number of requests in service at the snapshot
	// instant — the live queue-depth signal the cluster health score
	// weighs (DESIGN.md §17).
	InFlight int64 `json:"inflight"`
	// Degraded reports a disk running under an admin degrade factor.
	Degraded bool `json:"degraded,omitempty"`
	// FlightTotal/FlightDropped are the flight recorder's lifetime
	// event count and lapped-before-dump count (0/0 without a recorder).
	FlightTotal   int64 `json:"flight_total,omitempty"`
	FlightDropped int64 `json:"flight_dropped,omitempty"`
}

// StatsSnapshot assembles the live introspection state an AdminStats
// request (and the daemon's debug listener) reports.
func (s *Server) StatsSnapshot() ServerSnapshot {
	snap := ServerSnapshot{Server: s.index}
	if s.Stats != nil {
		snap.IOStats = s.Stats.Snapshot()
	}
	snap.Lat = s.Metrics.Lat()
	p50, p95, p99 := snap.Lat.Quantiles()
	snap.P50Us = p50.Microseconds()
	snap.P95Us = p95.Microseconds()
	snap.P99Us = p99.Microseconds()
	if s.Metrics != nil {
		snap.Replays = s.Metrics.Replays.Value()
	}
	cs := s.LoopCacheStats()
	snap.CacheHits, snap.CacheMisses, snap.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	snap.CompiledReplays = s.CompiledReplays()
	snap.Repairing = s.repairLive.Load()
	snap.InFlight = s.inflight.Load()
	if sc := s.diskScale.Load(); sc != 0 && sc != 100 {
		snap.Degraded = true
	}
	snap.FlightTotal = s.Flight.Total()
	snap.FlightDropped = s.Flight.Dropped()
	return snap
}

// admin serves a fault-administration or introspection request
// (wire.AdminReq).
func (s *Server) admin(env transport.Env, conn transport.Conn, r *wire.AdminReq) ([]byte, error) {
	switch r.Op {
	case wire.AdminStall:
		s.StallFor(env, time.Duration(r.Dur))
		return wire.EncodeIOResp(&wire.IOResp{OK: true}), nil
	case wire.AdminDegrade:
		s.SetDiskScale(r.Factor)
		return wire.EncodeIOResp(&wire.IOResp{OK: true}), nil
	case wire.AdminStats:
		data, err := json.Marshal(s.StatsSnapshot())
		if err != nil {
			return ioErr("stats: %v", err), nil
		}
		return wire.EncodeIOResp(&wire.IOResp{OK: true, Size: int64(len(data)), Data: data}), nil
	case wire.AdminFlightRec:
		// NewDump is nil-safe: a server without a recorder answers with
		// an empty dump rather than an error, so sweeps over mixed
		// clusters need no special-casing.
		data, err := flightrec.NewDump(s.index, s.Flight).JSON()
		if err != nil {
			return ioErr("flightrec: %v", err), nil
		}
		return wire.EncodeIOResp(&wire.IOResp{OK: true, Size: int64(len(data)), Data: data}), nil
	case wire.AdminCrash:
		// Acknowledge before crashing — the crash severs this connection
		// along with every other one.
		conn.Send(env, wire.EncodeIOResp(&wire.IOResp{OK: true}))
		s.Crash(time.Duration(r.Dur))
		return nil, errors.New("pvfs: crashed by admin request")
	case wire.AdminKill:
		conn.Send(env, wire.EncodeIOResp(&wire.IOResp{OK: true}))
		s.Kill(time.Duration(r.Dur))
		return nil, errors.New("pvfs: killed by admin request")
	default:
		return ioErr("unknown admin op %d", r.Op), nil
	}
}

// repairChunkBytes bounds one repair fetch, so rebuilding a large
// member pulls bounded frames instead of whole objects.
const repairChunkBytes = 256 * 1024

// repairRecvTimeout bounds each wait for a peer's repair response.
const repairRecvTimeout = 2 * time.Second

// replicaList answers a peer's MTReplicaListReq with this member's
// local objects. A member that is itself mid-repair refuses, so a
// rebuild never copies from an incomplete source.
func (s *Server) replicaList() []byte {
	s.mu.Lock()
	if s.repairing {
		s.mu.Unlock()
		return wire.EncodeReplicaListResp(&wire.ReplicaListResp{Err: fmt.Sprintf("server %d repairing", s.index)})
	}
	handles := make([]uint64, 0, len(s.objects))
	for h := range s.objects {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	resp := &wire.ReplicaListResp{OK: true, Pending: s.pendingWrites.Load(),
		Handles: handles, Sizes: make([]int64, len(handles))}
	for i, h := range handles {
		resp.Sizes[i] = s.object(h).Size()
	}
	return wire.EncodeReplicaListResp(resp)
}

// replicaSums answers a peer's MTReplicaSumReq with per-chunk FNV-1a
// checksums of one local object's physical bytes. A rebuilding peer
// diffs consecutive sweeps: only chunks whose checksum changed (or
// were never copied) are re-fetched, so stabilization passes cost
// traffic proportional to churn, not object size.
func (s *Server) replicaSums(r *wire.ReplicaSumReq) []byte {
	s.mu.Lock()
	if s.repairing {
		s.mu.Unlock()
		return wire.EncodeReplicaSumResp(&wire.ReplicaSumResp{Err: fmt.Sprintf("server %d repairing", s.index)})
	}
	st := s.objects[r.Handle]
	s.mu.Unlock()
	resp := &wire.ReplicaSumResp{OK: true}
	if st == nil {
		return wire.EncodeReplicaSumResp(resp)
	}
	size := st.Size()
	buf := make([]byte, repairChunkBytes)
	for off := int64(0); off < size; off += repairChunkBytes {
		n := size - off
		if n > repairChunkBytes {
			n = repairChunkBytes
		}
		if err := st.ReadAt(buf[:n], off); err != nil {
			return wire.EncodeReplicaSumResp(&wire.ReplicaSumResp{Err: fmt.Sprintf("sum read: %v", err)})
		}
		h := fnv.New64a()
		h.Write(buf[:n])
		resp.Sums = append(resp.Sums, h.Sum64())
	}
	return wire.EncodeReplicaSumResp(resp)
}

// replicaFetch serves one bounded piece of a local object's physical
// byte space to a rebuilding peer.
func (s *Server) replicaFetch(r *wire.ReplicaFetchReq) []byte {
	if r.Off < 0 || r.N < 0 || r.N > repairChunkBytes {
		return ioErr("bad repair fetch off=%d n=%d", r.Off, r.N)
	}
	st := s.object(r.Handle)
	n := r.N
	if sz := st.Size(); r.Off+n > sz {
		n = sz - r.Off
		if n < 0 {
			n = 0
		}
	}
	buf := make([]byte, n)
	if err := st.ReadAt(buf, r.Off); err != nil {
		return ioErr("repair read: %v", err)
	}
	return wire.EncodeIOResp(&wire.IOResp{OK: true, Size: n, Data: buf})
}

// stale reports whether a repair goroutine belongs to a dead
// incarnation (the server was wiped again, or closed for good).
func (s *Server) stale(inc uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.incarnation != inc
}

// runRepair rebuilds this member from its first reachable group peer,
// then lifts the repair gate. Sweeps retry until a peer serves a full
// copy (peers may be down or themselves repairing); the sweep cap only
// bounds pathological clusters where no peer ever comes back — the
// member then stays degraded, which reads already tolerate.
func (s *Server) runRepair(env transport.Env, inc uint64) {
	for sweep := 0; sweep < 500; sweep++ {
		if s.stale(inc) {
			return
		}
		for _, addr := range s.ReplicaPeers {
			if s.repairFrom(env, addr, inc) {
				s.mu.Lock()
				if s.incarnation == inc {
					s.repairing = false
					s.written = nil
					s.repairLive.Store(false)
				}
				s.mu.Unlock()
				return
			}
		}
		sleepBoth(env, 2*time.Millisecond)
	}
}

// repairMaxPasses bounds the stabilization loop. Under sustained
// client writes a pass may never see a quiet peer; after this many
// sweeps the member lifts the gate anyway — by then every copied range
// is one the fan-out path is also keeping current, so accepting the
// last sweep narrows the exposure to in-flight pre-restart stragglers.
const repairMaxPasses = 64

// repairFrom copies every object a peer holds onto this member,
// skipping ranges clients wrote since the restart (those are already
// newer than anything the peer can serve), then keeps sweeping until a
// pass finds the peer quiet: no write requests in flight and every
// chunk checksum unchanged since the previous sweep. The loop closes
// the divergence race where a write abandoned on this (then-dead)
// member was still in flight to the peer when an earlier sweep read
// past its range — the late write flips a checksum, and the next sweep
// re-fetches exactly that chunk. Reports whether the copy completed
// and stabilized.
func (s *Server) repairFrom(env transport.Env, addr string, inc uint64) bool {
	conn, err := s.net.Dial(env, addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	prev := make(map[uint64][]uint64)
	for pass := 0; pass < repairMaxPasses; pass++ {
		if s.stale(inc) {
			return false
		}
		list, ok := s.repairList(env, conn)
		if !ok {
			return false
		}
		cur := make(map[uint64][]uint64, len(list.Handles))
		for _, h := range list.Handles {
			sums, ok := s.repairSums(env, conn, h)
			if !ok {
				return false
			}
			cur[h] = sums
		}
		if pass > 0 && list.Pending == 0 && sumsStable(prev, cur) {
			return true
		}
		for _, h := range list.Handles {
			for ci, sum := range cur[h] {
				if old := prev[h]; ci < len(old) && old[ci] == sum {
					continue // copied last sweep and unchanged since
				}
				if s.stale(inc) {
					return false
				}
				if !s.repairChunk(env, conn, h, int64(ci)*repairChunkBytes, inc) {
					return false
				}
			}
		}
		prev = cur
		sleepBoth(env, 2*time.Millisecond)
	}
	return true
}

// repairList asks the repair peer for its object list and in-flight
// write count.
func (s *Server) repairList(env transport.Env, conn transport.Conn) (*wire.ReplicaListResp, bool) {
	if err := conn.Send(env, wire.EncodeReplicaList()); err != nil {
		return nil, false
	}
	msg, err := transport.RecvTimeout(env, conn, repairRecvTimeout)
	if err != nil {
		return nil, false
	}
	_, v, err := wire.DecodeMsg(msg)
	if err != nil {
		return nil, false
	}
	list, ok := v.(*wire.ReplicaListResp)
	if !ok || !list.OK || len(list.Handles) != len(list.Sizes) {
		return nil, false
	}
	return list, true
}

// repairSums asks the repair peer for one object's chunk checksums.
func (s *Server) repairSums(env transport.Env, conn transport.Conn, h uint64) ([]uint64, bool) {
	if err := conn.Send(env, wire.EncodeReplicaSum(&wire.ReplicaSumReq{Handle: h})); err != nil {
		return nil, false
	}
	msg, err := transport.RecvTimeout(env, conn, repairRecvTimeout)
	if err != nil {
		return nil, false
	}
	_, v, err := wire.DecodeMsg(msg)
	if err != nil {
		return nil, false
	}
	resp, ok := v.(*wire.ReplicaSumResp)
	if !ok || !resp.OK {
		return nil, false
	}
	return resp.Sums, true
}

// sumsStable reports whether two consecutive checksum sweeps saw
// identical peer content (same objects, same chunks, same sums).
func sumsStable(prev, cur map[uint64][]uint64) bool {
	if len(prev) != len(cur) {
		return false
	}
	for h, cs := range cur {
		ps, ok := prev[h]
		if !ok || len(ps) != len(cs) {
			return false
		}
		for i := range cs {
			if ps[i] != cs[i] {
				return false
			}
		}
	}
	return true
}

// repairChunk fetches one repair-chunk-sized piece of a peer object
// and applies it locally, skipping ranges clients wrote since the
// restart. Reports false only on transport or store failure (a short
// or empty fetch — the peer's object shrank — is fine).
func (s *Server) repairChunk(env transport.Env, conn transport.Conn, h uint64, off int64, inc uint64) bool {
	if err := conn.Send(env, wire.EncodeReplicaFetch(&wire.ReplicaFetchReq{Handle: h, Off: off, N: repairChunkBytes})); err != nil {
		return false
	}
	msg, err := transport.RecvTimeout(env, conn, repairRecvTimeout)
	if err != nil {
		return false
	}
	_, v, err := wire.DecodeMsg(msg)
	if err != nil {
		return false
	}
	resp, ok := v.(*wire.IOResp)
	if !ok || !resp.OK {
		return false
	}
	if len(resp.Data) == 0 {
		return true // the peer's object shrank; nothing to copy here
	}
	// Apply only the parts no client re-wrote since the restart, under
	// mu so a concurrent write cannot slip between the written-set check
	// and the store write and then be clobbered by stale peer bytes
	// (noteWrite precedes the client's store write, so whichever side
	// takes mu second wins correctly). The object's latch, taken inside
	// mu, orders the copy against write batches and truncates.
	s.mu.Lock()
	if s.closed || s.incarnation != inc {
		s.mu.Unlock()
		return false
	}
	todo := cache.RangeSet{}.Add(off, int64(len(resp.Data)))
	for _, w := range s.written[h] {
		todo = todo.Sub(w.Off, w.N)
	}
	st := s.objects[h]
	if st == nil {
		st = s.NewStore(h)
		s.objects[h] = st
	}
	var copied int64
	var werr error
	l := s.latch(h)
	l.Lock()
	for _, reg := range todo {
		if werr = st.WriteAt(resp.Data[reg.Off-off:reg.End()-off], reg.Off); werr != nil {
			break
		}
		copied += reg.N
	}
	l.Unlock()
	s.mu.Unlock()
	if s.Stats != nil && copied > 0 {
		s.Stats.AddRepair(copied)
	}
	return werr == nil
}

// streamedWrite unwraps a streamed write request and dispatches it with
// a stream-backed payload source. The uint8 is the flight-recorder
// flag set (FlagReplay when the inner request was answered from the
// dedup cache).
func (s *Server) streamedWrite(env transport.Env, conn transport.Conn, h *wire.WriteStreamHdr, sp *trace.Span) ([]byte, uint8, error) {
	seg := int64(h.SegBytes)
	nseg := int64(0)
	if seg > 0 {
		nseg = (h.Total + seg - 1) / seg
	}
	if h.Total <= 0 || seg <= 0 || h.Window <= 0 || h.Total <= seg ||
		h.StartSeg < 0 || h.StartSeg >= nseg {
		// The framing itself is broken; there is no way to know how many
		// chunks follow, so the connection cannot be salvaged.
		return nil, 0, fmt.Errorf("pvfs: bad stream header total=%d seg=%d window=%d start=%d",
			h.Total, h.SegBytes, h.Window, h.StartSeg)
	}
	// A resumed retry (StartSeg > 0) skips the payload prefix the client
	// knows is already durable; the region walk advances past those bytes
	// without touching the disk.
	src := &writeSrc{
		skip: h.StartSeg * seg,
		stream: &srvStream{
			conn:  conn,
			total: h.Total, seg: seg, window: int64(h.Window),
			nseg: nseg, next: h.StartSeg,
			gate: s.stallGate,
		},
	}
	// Every path below has dispatched or dropped the payload runs by the
	// time it returns.
	defer src.stream.release()
	t, v, err := wire.DecodeMsg(h.Inner)
	if err != nil {
		resp, err := s.reqFail(env, src, 0, "bad request: %v", err)
		return resp, 0, err
	}
	var tag wire.ReqTag
	switch r := v.(type) {
	case *wire.ContigReq:
		tag = r.Tag
	case *wire.ListIOReq:
		tag = r.Tag
	case *wire.DtypeReq:
		tag = r.Tag
	}
	// The stream header itself is untagged; the client op's span ID
	// arrives on the inner request, so re-parent now that it is known.
	sp.SetParent(trace.SpanID(tag.Span))
	if cached, ok := s.replay(tag); ok {
		// Already executed: consume the replayed stream (keeping the
		// connection in protocol sync) and answer from the record.
		s.Metrics.addReplay()
		sp.SetAttr("replay", 1)
		if err := src.drain(env); err != nil {
			return nil, 0, err
		}
		return cached, flightrec.FlagReplay, nil
	}
	var resp []byte
	switch t {
	case wire.MTWriteContigReq:
		resp, err = s.contig(env, conn, v.(*wire.ContigReq), src, sp)
	case wire.MTWriteListReq:
		resp, err = s.list(env, conn, v.(*wire.ListIOReq), src, sp)
	case wire.MTWriteDtypeReq:
		resp, err = s.dtype(env, conn, v.(*wire.DtypeReq), src, sp)
	default:
		resp, err := s.reqFail(env, src, 0, "unexpected streamed message %s", t)
		return resp, 0, err
	}
	s.remember(tag, resp)
	return resp, 0, err
}

// reqFail answers a failed request with an error IOResp, first draining
// a streamed payload so the connection stays in protocol sync.
func (s *Server) reqFail(env transport.Env, src *writeSrc, seq uint64, format string, args ...any) ([]byte, error) {
	if src != nil {
		if err := src.drain(env); err != nil {
			return nil, err
		}
	}
	return ioErrSeq(seq, format, args...), nil
}

// regionsFn enumerates one request's logical regions, in request order.
type regionsFn func(emit func(off, n int64) error) error

// applyWrite is the common write path: it walks the request's regions,
// batching payload runs (inline or streamed) into the disk scheduler,
// which dispatches them in sorted, coalesced order and charges the
// seek-aware disk cost. An inline payload dispatches as one batch; a
// streamed one dispatches a batch at every flow-control segment
// boundary, before the segment buffer is reused. A request that starts
// while the server is repairing does not sieve, so every byte it writes
// is a payload byte the repair mask records.
func (s *Server) applyWrite(env transport.Env, lay striping.Layout, idx int, handle uint64, st storage.Store, regions regionsFn, src *writeSrc, seq uint64, sp *trace.Span) ([]byte, error) {
	sd := s.newSched(true)
	defer putSched(sd)
	sd.latch = s.latch(handle)
	if src.stream != nil {
		src.flush = func(env transport.Env) error { return s.flushTraced(env, sd, st, sp) }
	}
	repairing := s.repairLive.Load()
	if repairing {
		sd.sieve = false
	}
	var nPieces int64
	err := regions(func(off, n int64) error {
		var inner error
		lay.ServerPieces(idx, off, n, func(phys, _, ln int64) bool {
			if repairing {
				s.noteWrite(handle, phys, ln)
			}
			for rem := ln; rem > 0; {
				b, skipped, e := src.next(env, rem)
				if e != nil {
					inner = e
					return false
				}
				if skipped > 0 {
					// Resumed-stream prefix: already on disk, advance past.
					phys += skipped
					rem -= skipped
					continue
				}
				sd.add(phys, int64(len(b)), 0, b)
				phys += int64(len(b))
				rem -= int64(len(b))
			}
			nPieces++
			return true
		})
		return inner
	})
	if err != nil {
		// Keep the bytes the request's regions did cover: dispatch what
		// is buffered before draining and answering.
		s.flushTraced(env, sd, st, sp)
		return s.reqFail(env, src, seq, "%v", err)
	}
	env.Compute(s.cost.PerRegionServer * time.Duration(nPieces))
	if err := s.flushTraced(env, sd, st, sp); err != nil {
		return s.reqFail(env, src, seq, "%v", err)
	}
	if n := src.leftover(); n != 0 {
		return s.reqFail(env, src, seq, "excess write payload (%d bytes)", n)
	}
	return wire.EncodeIOResp(&wire.IOResp{Seq: seq, OK: true}), nil
}

// flushTraced dispatches the buffered write runs, under a disk:flush
// span when tracing is on and the batch is non-empty (empty flushes add
// no trace noise).
func (s *Server) flushTraced(env transport.Env, sd *diskSched, st storage.Store, sp *trace.Span) error {
	if sp == nil || len(sd.spans) == 0 {
		return sd.flushWrites(env, st)
	}
	fsp := s.Tracer.Begin(env, s.spanTrack, "disk:flush", sp.SID())
	fsp.SetAttr("runs", int64(len(sd.spans)))
	err := sd.flushWrites(env, st)
	fsp.End(env)
	return err
}

// readReply is the common read path: one walk collects this server's
// physical runs and the byte total, then the response is either built
// inline in a single pre-sized frame or streamed in flow-controlled
// segments that overlap disk and network.
func (s *Server) readReply(env transport.Env, conn transport.Conn, lay striping.Layout, idx int, st storage.Store, regions regionsFn, seq uint64, sp *trace.Span) ([]byte, error) {
	sd := s.newSched(false)
	defer putSched(sd)
	var total, nPieces int64
	err := regions(func(off, n int64) error {
		lay.ServerPieces(idx, off, n, func(phys, _, ln int64) bool {
			sd.add(phys, ln, total, nil)
			total += ln
			nPieces++
			return true
		})
		return nil
	})
	if err != nil {
		return ioErrSeq(seq, "%v", err), nil
	}
	env.Compute(s.cost.PerRegionServer * time.Duration(nPieces))
	seg, window := streamParams(s.StreamChunkBytes, s.StreamWindow)
	if total <= seg {
		// Build the OK response in place: one allocation sized from the
		// known total, with storage reads landing directly in the frame.
		// A zero-byte request dispatches no operation and charges no
		// disk time.
		out := wire.AppendIORespOK(nil, seq, int(total))
		h := len(out)
		out = append(out, make([]byte, total)...)
		if sp == nil {
			if err := sd.runReads(env, st, out[h:]); err != nil {
				return ioErrSeq(seq, "%v", err), nil
			}
			return out, nil
		}
		dsp := s.Tracer.Begin(env, s.spanTrack, "disk:read", sp.SID())
		dsp.SetAttr("bytes", total)
		err = sd.runReads(env, st, out[h:])
		dsp.End(env)
		if err != nil {
			return ioErrSeq(seq, "%v", err), nil
		}
		return out, nil
	}
	return nil, s.streamRead(env, conn, st, sd, total, seg, window, seq, sp)
}

// rangeOK reports whether [off, off+n) is a valid byte range: both
// ends non-negative and off+n representable. Request numbers are the
// peer's, so a range that wraps must be refused here, not by storage.
func rangeOK(off, n int64) bool {
	return off >= 0 && n >= 0 && off <= math.MaxInt64-n
}

// contig serves a contiguous read (src nil) or write.
func (s *Server) contig(env transport.Env, conn transport.Conn, r *wire.ContigReq, src *writeSrc, sp *trace.Span) ([]byte, error) {
	seq := r.Tag.Seq
	lay, err := s.layoutOf(r.Layout)
	if err != nil {
		return s.reqFail(env, src, seq, "%v", err)
	}
	if !rangeOK(r.Off, r.N) {
		return s.reqFail(env, src, seq, "bad range off=%d n=%d", r.Off, r.N)
	}
	idx := int(r.Layout.ServerIdx)
	st := s.object(r.Layout.Handle)
	regions := func(emit func(off, n int64) error) error {
		return emit(r.Off, r.N)
	}
	if src != nil {
		return s.applyWrite(env, lay, idx, r.Layout.Handle, st, regions, src, seq, sp)
	}
	return s.readReply(env, conn, lay, idx, st, regions, seq, sp)
}

// list serves a list I/O read (src nil) or write.
func (s *Server) list(env transport.Env, conn transport.Conn, r *wire.ListIOReq, src *writeSrc, sp *trace.Span) ([]byte, error) {
	seq := r.Tag.Seq
	lay, err := s.layoutOf(r.Layout)
	if err != nil {
		return s.reqFail(env, src, seq, "%v", err)
	}
	idx := int(r.Layout.ServerIdx)
	st := s.object(r.Layout.Handle)
	regions := func(emit func(off, n int64) error) error {
		for _, reg := range r.Regions {
			if !rangeOK(reg.Off, reg.Len) {
				return fmt.Errorf("bad region %+v", reg)
			}
			if err := emit(reg.Off, reg.Len); err != nil {
				return err
			}
		}
		return nil
	}
	if src != nil {
		return s.applyWrite(env, lay, idx, r.Layout.Handle, st, regions, src, seq, sp)
	}
	return s.readReply(env, conn, lay, idx, st, regions, seq, sp)
}

// loopEntry is one memoized view: the decoded loop, its compiled run
// program (nil when flatten.Compile declined), and the second-chance
// reference bit.
type loopEntry struct {
	loop *dataloop.Loop
	prog *flatten.Program
	ref  bool
}

// loopCacheCap bounds the number of memoized views per server.
const loopCacheCap = 1024

// cachedLoop decodes a dataloop and compiles its run program (nil when
// flatten.Compile declines), memoizing both by wire bytes unless the
// cache is disabled, and reports whether it was served from the cache.
func (s *Server) cachedLoop(enc []byte) (*dataloop.Loop, *flatten.Program, bool, error) {
	if !s.DisableLoopCache {
		s.cacheMu.Lock()
		// The compiler elides the []byte->string conversion for a direct
		// map lookup, so the hit path allocates nothing.
		if e, ok := s.loopCache[string(enc)]; ok {
			s.cacheHits++
			e.ref = true
			s.cacheMu.Unlock()
			return e.loop, e.prog, true, nil
		}
		s.cacheMu.Unlock()
	}
	l, _, err := dataloop.Decode(enc)
	if err != nil {
		return nil, nil, false, err
	}
	e := &loopEntry{loop: l, prog: flatten.Compile(l)}
	if s.DisableLoopCache {
		return l, e.prog, false, nil
	}
	key := string(enc)
	s.cacheMu.Lock()
	if s.loopCache == nil {
		s.loopCache = make(map[string]*loopEntry)
	}
	if len(s.loopCache) >= loopCacheCap {
		s.evictLocked()
	}
	s.loopCache[key] = e
	s.cacheMisses++
	s.cacheMu.Unlock()
	return l, e.prog, false, nil
}

// evictLocked frees one slot with a second-chance sweep: entries hit
// since the last sweep get their reference bit cleared and survive; the
// first unreferenced entry found is evicted. Go's randomized map
// iteration stands in for the clock hand. If every entry had its bit
// set, the sweep clears them all and the first visited is evicted.
func (s *Server) evictLocked() {
	victim := ""
	for k, e := range s.loopCache {
		if !e.ref {
			victim = k
			break
		}
		e.ref = false
		if victim == "" {
			victim = k // fallback if everyone had a second chance
		}
	}
	if victim != "" {
		delete(s.loopCache, victim)
		s.cacheEvictions++
	}
}

// LoopCacheStats are the counters of the dataloop/compiled-program
// cache.
type LoopCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// LoopCacheStats reports the cache counters.
func (s *Server) LoopCacheStats() LoopCacheStats {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return LoopCacheStats{Hits: s.cacheHits, Misses: s.cacheMisses, Evictions: s.cacheEvictions}
}

// CompiledReplays reports how many dtype expansions ran on a compiled
// program instead of the interpreted walk.
func (s *Server) CompiledReplays() int64 { return s.compiledReplays.Load() }

// dtype serves a datatype read (src nil) or write: the server itself
// expands the dataloop into regions and extracts its local pieces.
func (s *Server) dtype(env transport.Env, conn transport.Conn, r *wire.DtypeReq, src *writeSrc, sp *trace.Span) ([]byte, error) {
	seq := r.Tag.Seq
	lay, err := s.layoutOf(r.Layout)
	if err != nil {
		return s.reqFail(env, src, seq, "%v", err)
	}
	loop, prog, hit, err := s.cachedLoop(r.Loop)
	if err != nil {
		return s.reqFail(env, src, seq, "bad dataloop: %v", err)
	}
	if !rangeOK(r.Pos, r.NBytes) || r.Count < 0 ||
		(loop.Size > 0 && r.Count > math.MaxInt64/loop.Size) || r.Pos+r.NBytes > r.Count*loop.Size {
		return s.reqFail(env, src, seq, "bad dtype range count=%d pos=%d n=%d", r.Count, r.Pos, r.NBytes)
	}
	if !hit {
		env.Compute(s.cost.DataloopDecode)
	} else {
		sp.SetAttr("loop_cache_hit", 1)
	}
	// Compiled replay matches the coalescing walk byte-for-byte; the
	// uncoalesced ablation, and loops the compiler declined, expand on
	// the interpreted walk.
	if r.NoCoalesce {
		prog = nil
	}
	idx := int(r.Layout.ServerIdx)
	st := s.object(r.Layout.Handle)
	regions := func(emit func(off, n int64) error) error {
		if prog != nil {
			s.compiledReplays.Add(1)
			return prog.Replay(r.Count, r.Disp, r.Pos, r.NBytes, func(off, n int64) error {
				if off < 0 {
					return fmt.Errorf("dataloop region at negative offset %d", off)
				}
				return emit(off, n)
			})
		}
		it := flatten.NewIterAt(loop, r.Count, r.Disp, r.Pos, r.NBytes, !r.NoCoalesce)
		for {
			reg, ok := it.Next()
			if !ok {
				return nil
			}
			if reg.Off < 0 {
				return fmt.Errorf("dataloop region at negative offset %d", reg.Off)
			}
			if err := emit(reg.Off, reg.Len); err != nil {
				return err
			}
		}
	}
	if src != nil {
		return s.applyWrite(env, lay, idx, r.Layout.Handle, st, regions, src, seq, sp)
	}
	return s.readReply(env, conn, lay, idx, st, regions, seq, sp)
}
