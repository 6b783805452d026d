// Package bench reproduces the paper's evaluation: it builds a simulated
// Chiba City cluster (16 I/O servers, 100 Mbit/s fast ethernet, one disk
// per server) and runs the three benchmarks — tile reader, ROMIO 3-D
// block, FLASH I/O — under each access method, reporting bandwidth
// figures and the per-client I/O characteristics tables.
package bench

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dtio/internal/fault"
	"dtio/internal/iostats"
	"dtio/internal/locks"
	"dtio/internal/metrics"
	"dtio/internal/mpi"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/replica"
	"dtio/internal/storage"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/vtime"
)

// Config describes one simulated cluster.
type Config struct {
	Servers      int // I/O servers (16 in the paper)
	Clients      int // compute processes
	ProcsPerNode int // client processes per node (paper: 1 tile, 2 others)
	// MetaShards is the number of metadata servers the control plane is
	// partitioned over (DESIGN.md §14). 0 or 1 runs the classic single
	// metadata server; shard i is placed on I/O server node i mod
	// Servers, as the paper's testbed doubles the meta server up on a
	// storage node.
	MetaShards int
	// Replicas organizes the I/O servers into replica groups of this
	// size k (DESIGN.md §16): Servers must be a multiple of k, the
	// striping width becomes Servers/k groups, every write fans out to
	// all k members of its group, and reads are served by any live
	// member. 0 or 1 runs unreplicated — byte-identical to a
	// pre-replication cluster.
	Replicas int
	// LeastLoadedReads switches each rank's replica read picker from
	// rendezvous hashing to least-outstanding-requests (ties resolve to
	// the rendezvous choice). Only meaningful with Replicas > 1.
	LeastLoadedReads bool
	StripSize        int64
	SimCfg           transport.SimConfig
	Cost             pvfs.CostModel
	Hints            mpiio.Hints
	// Discard makes servers track sizes without storing bytes: used for
	// full-scale performance runs where contents don't matter.
	Discard bool
	// Verify enables data verification inside workloads (requires
	// Discard to be false).
	Verify bool
	// LoopCache enables server-side dataloop caching (the paper's §5
	// future-work extension). Off by default so headline numbers match
	// the paper's prototype, which decodes per request.
	LoopCache bool
	// SieveGapBytes is the disk scheduler's read gap-merge threshold.
	// Zero means adjacency-only merging; DefaultConfig sets
	// pvfs.DefaultSieveGapBytes.
	SieveGapBytes int64
	// LeaseTimeout is the byte-range lock lease on the metadata server.
	// Simulated clients do not crash, so benchmarks default to 0 (no
	// expiry): a nonzero lease would wake the sweep watchdog and inflate
	// total simulated time without changing the measured phase.
	LeaseTimeout time.Duration
	// Fault, when live, injects message faults into every client ↔
	// I/O-server connection (the metadata channel stays reliable) and
	// schedules the plan's server events — stall, crash-restart, disk
	// degrade — at their virtual times. Nil or a zero plan injects
	// nothing and leaves runs byte-identical to a fault-free build.
	Fault *fault.Plan
	// Retry is the clients' retry policy. The zero value picks a
	// default: pvfs.DefaultRetryPolicy when Fault is live, otherwise no
	// retries (single attempt, blocking receives), matching fault-free
	// behavior exactly.
	Retry pvfs.RetryPolicy
	// Trace, when non-nil, records every rank's operation spans and
	// every server's request/disk/stream spans (plus meta lock waits)
	// into one tracer, linked across the wire, for Chrome export.
	Trace *trace.Tracer
	// CacheBytes enables each rank's client-side extent cache with this
	// data budget (DESIGN.md §13); 0 runs uncached, the pre-PR6
	// behavior. Ranks Flush before their final barrier, so results
	// include write-back costs.
	CacheBytes int64
	// CacheChunkBytes overrides the cache chunk/lease granularity
	// (0 = cache.DefaultChunkBytes).
	CacheChunkBytes int64
	// HealthInterval, when positive, runs the in-sim cluster health
	// aggregator (DESIGN.md §17): every interval it scores each server
	// over the window since the last tick — windowed p99 (via
	// HistSnapshot.Sub) against the cluster median, live queue depth,
	// degrade/repair state — records when a server first crosses the
	// straggler cutoff, and writes the scores into every rank's
	// least-loaded read picker so reads shift away from a straggler
	// within one interval. 0 disables it.
	HealthInterval time.Duration
}

// DefaultConfig is the paper's testbed: 16 I/O servers, 64 KiB strips,
// Chiba City hardware model, discard storage (performance runs).
func DefaultConfig(clients, procsPerNode int) Config {
	return Config{
		Servers:       16,
		Clients:       clients,
		ProcsPerNode:  procsPerNode,
		StripSize:     64 * 1024,
		SimCfg:        transport.DefaultSimConfig(),
		Cost:          pvfs.DefaultCostModel(),
		Hints:         mpiio.DefaultHints(),
		Discard:       true,
		SieveGapBytes: pvfs.DefaultSieveGapBytes,
	}
}

// Rank is the per-process context handed to workload functions.
type Rank struct {
	ID    int
	Env   transport.Env
	FS    *pvfs.Client
	Comm  *mpi.Comm
	Stats *iostats.Stats

	c *Cluster
}

// TimePhase runs work between two barriers and records the window (rank
// 0's measurement defines it, as is conventional). Each rank's op
// latency histogram resets at the first barrier, so reported quantiles
// cover the timed phase only (the rank has issued nothing yet between
// the barriers, so resetting its own histogram cannot race).
func (r *Rank) TimePhase(work func() error) error {
	// A rank blocked in a barrier cannot answer cache-lease revocations,
	// so flush before both barriers (no-ops when caching is off). The
	// closing flush also charges write-back inside the timed window —
	// cached numbers include the cost of getting data to the servers.
	if err := r.FS.Flush(r.Env); err != nil {
		return err
	}
	r.Comm.Barrier(r.Env)
	r.c.opLats[r.ID].Reset()
	start := r.Env.Now()
	err := work()
	if err == nil {
		err = r.FS.Flush(r.Env)
	}
	r.Comm.Barrier(r.Env)
	if r.ID == 0 {
		r.c.winStart = start
		r.c.winEnd = r.Env.Now()
	}
	return err
}

// Utilization summarizes how busy the modeled hardware was over the
// whole run (fractions of elapsed virtual time, averaged per node) — it
// identifies each method's bottleneck.
type Utilization struct {
	ServerDisk float64
	ServerNIC  float64 // max of TX/RX direction averages
	ServerCPU  float64
	ClientNIC  float64
	ClientCPU  float64
}

// Result is one experiment cell.
type Result struct {
	Name      string
	Method    mpiio.Method
	Clients   int
	Elapsed   time.Duration // measured (virtual) time of the timed phase
	Bytes     int64         // application bytes moved in the timed phase
	PerClient iostats.Snapshot
	Disk      iostats.Snapshot // disk-scheduler counters summed over servers
	Util      Utilization
	Locks     locks.Stats // lock-service counters summed over meta shards
	// ShardLocks is each metadata shard's lock-service counters in shard
	// order (len 1 unsharded); MetaOps counts the workload's logical
	// control-plane operations (0 for data-plane workloads).
	ShardLocks []locks.Stats
	MetaOps    int64
	Fault      fault.Stats // what the injector actually did (zero when off)
	// Total is the undivided sum of every rank's lifetime counters —
	// the whole run including untimed setup, which workloads Reset out
	// of the tables. The recovery counters (Retries, Timeouts,
	// ReplayedBytes, FailoverNs) are meaningful here: averaging them
	// per client and per frame rounds small counts to zero, and a
	// fault can land in setup as easily as in the timed phase.
	Total iostats.Snapshot
	// Lat is the client operation latency distribution over the timed
	// phase, merged across ranks; SrvLat is the servers' per-request
	// service-time distribution over the whole run, merged across
	// servers. Quantiles() on either yields p50/p95/p99.
	Lat    metrics.HistSnapshot
	SrvLat metrics.HistSnapshot
	Err    error
}

// BandwidthMBs reports aggregate bandwidth in MB/s (10^6 bytes, as the
// paper plots).
func (r Result) BandwidthMBs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// Cluster is a simulated cluster ready to run one workload.
type Cluster struct {
	cfg       Config
	sched     *vtime.Scheduler
	net       *transport.SimNet
	fabric    *transport.SimFabric
	metaAddrs []string
	addrs     []string

	metas   []*pvfs.MetaServer
	servers []*pvfs.Server

	serverNodes []*transport.SimNode
	rankNodes   []*transport.SimNode

	winStart, winEnd time.Duration
	stats            []*iostats.Stats
	diskStats        *iostats.Stats        // shared by all servers' disk schedulers
	opLats           []*metrics.Histogram  // per-rank client op latency
	srvMetrics       []*pvfs.ServerMetrics // per-server request metrics
	totals           iostats.Snapshot
	errs             []error

	inj *fault.Injector // nil when cfg.Fault is not live

	// Health aggregator state (cfg.HealthInterval > 0; DESIGN.md §17).
	healthStop  atomic.Bool
	healthMu    sync.Mutex
	pickers     []*replica.LeastLoaded // every rank's picker, for load feeding
	healthTicks int
	flaggedAt   []time.Duration // virtual time first flagged straggler; -1 never
	stragRuns   []int           // consecutive straggler ticks, for debounce
}

// NewCluster builds the simulated cluster: server nodes first (their
// listeners register deterministically before any client process runs),
// then client nodes with ProcsPerNode ranks each. The metadata server
// doubles up on I/O server node 0, as in the paper.
func NewCluster(cfg Config) *Cluster {
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 1
	}
	if cfg.StripSize <= 0 {
		cfg.StripSize = 64 * 1024
	}
	c := &Cluster{
		cfg:       cfg,
		sched:     vtime.New(),
		stats:     make([]*iostats.Stats, cfg.Clients),
		diskStats: &iostats.Stats{},
		opLats:    make([]*metrics.Histogram, cfg.Clients),
		errs:      make([]error, cfg.Clients),
	}
	for i := range c.opLats {
		c.opLats[i] = &metrics.Histogram{}
	}
	c.net = transport.NewSimNet(c.sched, cfg.SimCfg)

	serverNodes := make([]*transport.SimNode, cfg.Servers)
	for i := range serverNodes {
		serverNodes[i] = c.net.NewNode()
	}
	c.serverNodes = serverNodes
	k := max(cfg.Replicas, 1)
	if cfg.Servers%k != 0 {
		panic(fmt.Sprintf("bench: %d servers not divisible into replica groups of %d", cfg.Servers, k))
	}
	// Files stripe over replica GROUPS, not physical servers: the
	// metadata servers hand out layouts at most groups wide.
	placement := replica.NewMap(cfg.Servers/k, k)
	groups := placement.Groups()
	ms := cfg.MetaShards
	if ms < 1 {
		ms = 1
	}
	for i := 0; i < ms; i++ {
		node := serverNodes[i%cfg.Servers]
		addr := transport.Addr(node, fmt.Sprintf("meta%d", i))
		m := pvfs.NewMetaServer(c.net, addr, groups)
		m.ConfigureShard(i, ms)
		m.LeaseTimeout = cfg.LeaseTimeout
		m.Tracer = cfg.Trace
		c.metaAddrs = append(c.metaAddrs, addr)
		c.metas = append(c.metas, m)
		c.net.Spawn(fmt.Sprintf("meta%d", i), node, func(env transport.Env) {
			m.Serve(env)
		})
	}
	for i := range serverNodes {
		c.addrs = append(c.addrs, transport.Addr(serverNodes[i], "io"))
	}
	for i := range serverNodes {
		srv := pvfs.NewServer(c.net, c.addrs[i], i, cfg.Cost)
		// Group siblings, for re-replication after a kill: a wiped
		// member restarts, rebuilds its objects from the first reachable
		// peer, then rejoins service. A group of one has none.
		for _, p := range placement.Peers(i) {
			srv.ReplicaPeers = append(srv.ReplicaPeers, c.addrs[p])
		}
		srv.DisableLoopCache = !cfg.LoopCache
		// Streamed transfers segment at the modeled NIC's flow-control
		// chunk size, as real PVFS flow buffers do.
		srv.StreamChunkBytes = cfg.SimCfg.ChunkBytes
		srv.SieveGapBytes = cfg.SieveGapBytes
		// PVFS 1 never wrote a byte outside a write's payload, so the
		// modeled servers keep write runs adjacency-only.
		srv.AdjacentWritesOnly = true
		srv.Stats = c.diskStats
		srv.Tracer = cfg.Trace
		srv.Metrics = &pvfs.ServerMetrics{}
		c.srvMetrics = append(c.srvMetrics, srv.Metrics)
		if cfg.Discard {
			srv.NewStore = func(uint64) storage.Store { return storage.NewDiscard() }
		}
		c.servers = append(c.servers, srv)
		c.net.Spawn(fmt.Sprintf("ioserver%d", i), serverNodes[i], func(env transport.Env) {
			srv.Serve(env)
		})
	}

	if cfg.Fault.Live() {
		c.inj = fault.NewInjector(*cfg.Fault)
		// One sim proc per scheduled server event: sleep to the event's
		// virtual time, then fire it against the live server.
		for _, ev := range cfg.Fault.Events {
			ev := ev
			srv := c.servers[ev.Server%cfg.Servers]
			node := serverNodes[ev.Server%cfg.Servers]
			c.net.Spawn(fmt.Sprintf("fault-%v-io%d", ev.Kind, ev.Server%cfg.Servers), node, func(env transport.Env) {
				env.Sleep(ev.At)
				switch ev.Kind {
				case fault.Stall:
					srv.StallFor(env, ev.Dur)
				case fault.Crash:
					srv.Crash(ev.Dur)
				case fault.Degrade:
					srv.SetDiskScale(ev.Factor)
				case fault.Kill:
					srv.Kill(ev.Dur)
				}
			})
		}
	}

	if cfg.HealthInterval > 0 {
		c.flaggedAt = make([]time.Duration, cfg.Servers)
		for i := range c.flaggedAt {
			c.flaggedAt[i] = -1
		}
		c.stragRuns = make([]int, cfg.Servers)
		// The aggregator is a sim proc like the fault events: it wakes
		// every interval, scores the window, and exits at the first tick
		// after the controller raises healthStop (run teardown).
		c.net.Spawn("health-agg", serverNodes[0], func(env transport.Env) {
			prev := make([]metrics.HistSnapshot, cfg.Servers)
			for !c.healthStop.Load() {
				env.Sleep(cfg.HealthInterval)
				c.healthTick(env.Now(), prev)
			}
		})
	}

	nClientNodes := (cfg.Clients + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	clientNodes := make([]*transport.SimNode, nClientNodes)
	for i := range clientNodes {
		clientNodes[i] = c.net.NewNode()
	}
	c.rankNodes = make([]*transport.SimNode, cfg.Clients)
	for r := 0; r < cfg.Clients; r++ {
		c.rankNodes[r] = clientNodes[r/cfg.ProcsPerNode]
	}
	c.fabric = transport.NewSimFabric(c.net, c.rankNodes)
	return c
}

// Run executes fn on every rank, runs the simulation to completion, and
// returns the elapsed window recorded by TimePhase plus averaged
// per-client statistics. Server processes are shut down when every rank
// finishes.
func (c *Cluster) Run(fn func(r *Rank) error) (time.Duration, iostats.Snapshot, error) {
	wg := c.sched.NewWaitGroup()
	wg.Add(c.cfg.Clients)
	clientNet := transport.Network(c.net)
	if c.inj != nil {
		meta := make(map[string]bool, len(c.metaAddrs))
		for _, a := range c.metaAddrs {
			meta[a] = true
		}
		clientNet = c.inj.WrapNetwork(c.net, func(addr string) bool { return !meta[addr] })
	}
	retry := c.cfg.Retry
	if retry == (pvfs.RetryPolicy{}) && c.inj != nil {
		retry = pvfs.DefaultRetryPolicy()
	}
	for id := 0; id < c.cfg.Clients; id++ {
		id := id
		st := &iostats.Stats{}
		c.stats[id] = st
		c.net.Spawn(fmt.Sprintf("rank%d", id), c.rankNodes[id], func(env transport.Env) {
			defer wg.Done()
			fs := pvfs.NewShardedClient(clientNet, c.metaAddrs, c.addrs, c.cfg.Cost)
			fs.Stats = st
			fs.Retry = retry
			fs.Replicas = c.cfg.Replicas
			if c.cfg.LeastLoadedReads && c.cfg.Replicas > 1 {
				// Per-rank picker: each client balances on its own
				// outstanding requests, as a real library would. The
				// health aggregator (if on) also writes cluster-observed
				// scores into it, shifting reads off stragglers the rank
				// hasn't personally hit yet.
				lp := replica.NewLeastLoaded(len(c.addrs))
				fs.ReplicaPicker = lp
				c.healthMu.Lock()
				c.pickers = append(c.pickers, lp)
				c.healthMu.Unlock()
			}
			fs.StreamChunkBytes = c.cfg.SimCfg.ChunkBytes
			fs.Tracer = c.cfg.Trace
			fs.TraceTrack = fmt.Sprintf("rank%d", id)
			fs.OpLat = c.opLats[id]
			fs.CacheBytes = c.cfg.CacheBytes
			fs.CacheChunkBytes = c.cfg.CacheChunkBytes
			defer fs.Close()
			r := &Rank{
				ID:    id,
				Env:   env,
				FS:    fs,
				Comm:  mpi.NewComm(c.fabric, id, c.cfg.Clients),
				Stats: st,
				c:     c,
			}
			c.errs[id] = fn(r)
		})
	}
	// Controller: shut the servers down once all ranks are done, so the
	// simulation drains instead of deadlocking on idle Accept loops.
	c.net.Spawn("controller", c.rankNodes[0], func(env transport.Env) {
		wg.Wait(env.(*transport.SimEnv).Proc())
		c.healthStop.Store(true) // aggregator exits at its next tick
		c.fabric.Close()
		for _, m := range c.metas {
			m.Close()
		}
		for _, s := range c.servers {
			s.Close()
		}
	})
	if err := c.sched.Run(); err != nil {
		return 0, iostats.Snapshot{}, err
	}
	for id, err := range c.errs {
		if err != nil {
			return 0, iostats.Snapshot{}, fmt.Errorf("rank %d: %w", id, err)
		}
	}
	var agg, life iostats.Snapshot
	for _, st := range c.stats {
		agg = agg.Add(st.Snapshot())
		life = life.Add(st.Lifetime())
	}
	c.totals = life
	return c.winEnd - c.winStart, agg.Div(int64(c.cfg.Clients)), nil
}

// TotalStats is the undivided sum of every rank's lifetime counters
// over the whole run, setup included (call after Run).
func (c *Cluster) TotalStats() iostats.Snapshot { return c.totals }

// LockStats snapshots the lock-service counters summed over every
// metadata shard (call after Run to check for leaked locks or to report
// contention).
func (c *Cluster) LockStats() locks.Stats {
	var s locks.Stats
	for _, m := range c.metas {
		s = s.Add(m.LockStats())
	}
	return s
}

// ShardLockStats snapshots each metadata shard's lock-service counters
// separately, in shard-id order (call after Run; shard balance checks).
func (c *Cluster) ShardLockStats() []locks.Stats {
	out := make([]locks.Stats, len(c.metas))
	for i, m := range c.metas {
		out[i] = m.LockStats()
	}
	return out
}

// DiskStats snapshots the disk-scheduler counters summed over all
// servers (call after Run). Only the disk fields are populated.
func (c *Cluster) DiskStats() iostats.Snapshot { return c.diskStats.Snapshot() }

// ClientLat merges every rank's op-latency histogram (timed phase only;
// see TimePhase). Call after Run.
func (c *Cluster) ClientLat() metrics.HistSnapshot {
	var s metrics.HistSnapshot
	for _, h := range c.opLats {
		s = s.Add(h.Snapshot())
	}
	return s
}

// ServerLat merges every I/O server's request service-time histogram
// (whole run, reads and writes). Call after Run.
func (c *Cluster) ServerLat() metrics.HistSnapshot {
	var s metrics.HistSnapshot
	for _, m := range c.srvMetrics {
		s = s.Add(m.Lat())
	}
	return s
}

// ServerReadCounts reports each I/O server's served read-class request
// count (contig, list, dtype reads plus size probes), in physical
// server order. Call after Run; replica read-balance checks divide
// these within a group.
func (c *Cluster) ServerReadCounts() []int64 {
	out := make([]int64, len(c.srvMetrics))
	for i, m := range c.srvMetrics {
		out[i] = m.ReadLat.Snapshot().Count
	}
	return out
}

// healthTick scores one aggregation interval: each server's service
// histogram is windowed against the previous tick (HistSnapshot.Sub),
// the window's p99 plus live queue depth and degrade/repair state fold
// into a health score against the cluster median, first-flag times are
// recorded, and the scores are written into every rank's least-loaded
// picker as a base load so reads drift off stragglers.
func (c *Cluster) healthTick(now time.Duration, prev []metrics.HistSnapshot) {
	snaps := make([]pvfs.ServerSnapshot, len(c.servers))
	for i, s := range c.servers {
		ss := s.StatsSnapshot()
		win := ss.Lat.Sub(prev[i])
		prev[i] = ss.Lat
		ss.Lat = win
		ss.P99Us = win.Quantile(0.99).Microseconds()
		snaps[i] = ss
	}
	cs := pvfs.BuildClusterSnapshot(snaps, nil)
	if os.Getenv("DTIO_DEBUG_HEALTH") != "" {
		for _, h := range cs.Health {
			if h.Score >= pvfs.StragglerScore {
				fmt.Fprintf(os.Stderr, "tick %v: srv%d score=%.2f p99us=%d med=%d n=%d inflight=%d deg=%v stall=%v\n",
					now, h.Server, h.Score, h.P99Us, cs.MedianP99Us, snaps[h.Server].Lat.Count, h.InFlight, h.Degraded, h.Stalled)
			}
		}
	}
	c.healthMu.Lock()
	c.healthTicks++
	for _, h := range cs.Health {
		// Server-reported states (degraded disk, live repair) are
		// noise-free and flag on their first tick; statistical evidence
		// (tail ratio, queue depth, window silence) must hold for two
		// consecutive ticks so a one-window blip doesn't count as a
		// detection.
		if h.Straggler {
			c.stragRuns[h.Server]++
		} else {
			c.stragRuns[h.Server] = 0
		}
		immediate := h.Degraded || h.Repairing
		if c.flaggedAt[h.Server] < 0 && ((immediate && h.Straggler) || c.stragRuns[h.Server] >= 2) {
			c.flaggedAt[h.Server] = now
		}
	}
	pickers := append([]*replica.LeastLoaded(nil), c.pickers...)
	c.healthMu.Unlock()
	for _, h := range cs.Health {
		// A healthy server scores ~1 → base 16; a straggler ≥2 → ≥32.
		// The gap dwarfs a rank's own ±in-flight jitter, so the picker's
		// comparison is dominated by cluster-observed health.
		bias := int64(h.Score * 16)
		for _, p := range pickers {
			p.SetLoad(h.Server, bias)
		}
	}
}

// HealthTicks reports how many aggregation intervals have run (call
// after Run; 0 when Config.HealthInterval was 0).
func (c *Cluster) HealthTicks() int {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	return c.healthTicks
}

// StragglerFlaggedAt reports the virtual time at which the aggregator
// first flagged server i as a straggler, and whether it ever did.
func (c *Cluster) StragglerFlaggedAt(server int) (time.Duration, bool) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if c.flaggedAt == nil || server < 0 || server >= len(c.flaggedAt) || c.flaggedAt[server] < 0 {
		return 0, false
	}
	return c.flaggedAt[server], true
}

// FaultStats reports what the injector actually did over the run (all
// zeros when no fault plan was configured).
func (c *Cluster) FaultStats() fault.Stats {
	if c.inj == nil {
		return fault.Stats{}
	}
	return c.inj.Stats()
}

// Utilization reports average busy fractions of the modeled hardware
// relative to the total simulated time (call after Run).
func (c *Cluster) Utilization() Utilization {
	total := c.sched.Now()
	if total <= 0 {
		return Utilization{}
	}
	frac := func(nodes []*transport.SimNode, pick func(n *transport.SimNode) time.Duration, slots float64) float64 {
		if len(nodes) == 0 {
			return 0
		}
		var busy time.Duration
		for _, n := range nodes {
			busy += pick(n)
		}
		return busy.Seconds() / (total.Seconds() * float64(len(nodes)) * slots)
	}
	nicMax := func(nodes []*transport.SimNode) float64 {
		tx := frac(nodes, func(n *transport.SimNode) time.Duration { return n.TX.BusyTime() }, 1)
		rx := frac(nodes, func(n *transport.SimNode) time.Duration { return n.RX.BusyTime() }, 1)
		if tx > rx {
			return tx
		}
		return rx
	}
	cpuSlots := float64(c.cfg.SimCfg.CPUSlots)
	uniqueClients := map[*transport.SimNode]bool{}
	var clientNodes []*transport.SimNode
	for _, n := range c.rankNodes {
		if !uniqueClients[n] {
			uniqueClients[n] = true
			clientNodes = append(clientNodes, n)
		}
	}
	return Utilization{
		ServerDisk: frac(c.serverNodes, func(n *transport.SimNode) time.Duration { return n.Disk.BusyTime() }, 1),
		ServerNIC:  nicMax(c.serverNodes),
		ServerCPU:  frac(c.serverNodes, func(n *transport.SimNode) time.Duration { return n.CPU.BusyTime() }, cpuSlots),
		ClientNIC:  nicMax(clientNodes),
		ClientCPU:  frac(clientNodes, func(n *transport.SimNode) time.Duration { return n.CPU.BusyTime() }, cpuSlots),
	}
}
