package metrics

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"dtio/internal/iostats"
)

// DebugMux builds the -http debug listener's handler: /metrics
// (Prometheus text), /healthz, /debug/vars (expvar), and /debug/pprof.
// Handlers are registered on a private mux so multiple daemons in one
// process (tests) never collide on http.DefaultServeMux.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug listener on addr and serves until the
// process exits, returning the bound listener (so callers can report
// the ephemeral port for addr ":0").
func ServeDebug(addr string, reg *Registry) (net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(lis, DebugMux(reg))
	return lis, nil
}

// RegisterIOStats exposes every iostats counter as a prefix_* metric
// sampled from fn at scrape time. Durations export in base seconds as
// _seconds_total counters and the cache hit fraction as a 0..1 ratio
// gauge, per Prometheus naming conventions (enforced by Registry.Lint).
func RegisterIOStats(reg *Registry, prefix string, fn func() iostats.Snapshot) {
	g := func(name, help string, pick func(iostats.Snapshot) int64) {
		reg.Gauge(prefix+"_"+name, help, func() int64 { return pick(fn()) })
	}
	secs := func(name, help string, pick func(iostats.Snapshot) int64) {
		reg.Counter(prefix+"_"+name, help, func() float64 { return float64(pick(fn())) / 1e9 })
	}
	g("desired_bytes", "bytes the application asked for", func(s iostats.Snapshot) int64 { return s.DesiredBytes })
	g("accessed_bytes", "bytes actually moved to/from storage", func(s iostats.Snapshot) int64 { return s.AccessedBytes })
	g("io_ops", "I/O requests issued", func(s iostats.Snapshot) int64 { return s.IOOps })
	g("wire_msgs", "wire messages sent", func(s iostats.Snapshot) int64 { return s.WireMsgs })
	g("req_bytes", "request descriptor bytes on the wire", func(s iostats.Snapshot) int64 { return s.ReqBytes })
	g("resent_bytes", "payload bytes resent by retries", func(s iostats.Snapshot) int64 { return s.ResentBytes })
	g("lock_waits", "lock acquisitions that waited", func(s iostats.Snapshot) int64 { return s.LockWaits })
	secs("lock_wait_seconds_total", "total time spent waiting for locks", func(s iostats.Snapshot) int64 { return s.LockWaitNs })
	g("regions", "noncontiguous regions processed", func(s iostats.Snapshot) int64 { return s.Regions })
	g("disk_ops", "disk operations dispatched", func(s iostats.Snapshot) int64 { return s.DiskOps })
	g("disk_ops_merged", "disk operations merged away by the scheduler", func(s iostats.Snapshot) int64 { return s.DiskOpsMerged })
	g("disk_vec_ops", "coalesced operations dispatched as one vectored call", func(s iostats.Snapshot) int64 { return s.DiskVecOps })
	g("seek_bytes", "disk head travel charged by the seek model", func(s iostats.Snapshot) int64 { return s.SeekBytes })
	g("disk_rmw_ops", "sieved writes that read their extent before writing it back", func(s iostats.Snapshot) int64 { return s.DiskRMWOps })
	g("disk_rmw_gap_bytes", "hole bytes sieved writes read and rewrote unchanged", func(s iostats.Snapshot) int64 { return s.DiskRMWGapBytes })
	g("retries", "request retries", func(s iostats.Snapshot) int64 { return s.Retries })
	g("timeouts", "request timeouts", func(s iostats.Snapshot) int64 { return s.Timeouts })
	g("replayed_bytes", "duplicate write bytes suppressed by replay dedup", func(s iostats.Snapshot) int64 { return s.ReplayedBytes })
	secs("failover_seconds_total", "time spent failing over to retries", func(s iostats.Snapshot) int64 { return s.FailoverNs })
	g("cache_hits", "cached operations served from the extent cache", func(s iostats.Snapshot) int64 { return s.CacheHits })
	g("cache_misses", "cached operations that had to fill from servers", func(s iostats.Snapshot) int64 { return s.CacheMisses })
	reg.GaugeF(prefix+"_cache_hit_ratio", "extent cache hit ratio (0..1)", func() float64 { return fn().HitRatio() })
	g("cache_flush_ops", "aggregated write-back flushes", func(s iostats.Snapshot) int64 { return s.FlushOps })
	g("cache_flush_bytes", "dirty bytes written back by flushes", func(s iostats.Snapshot) int64 { return s.FlushBytes })
	g("cache_invalidations", "cached extents dropped by revocation or expiry", func(s iostats.Snapshot) int64 { return s.Invalidations })
	g("degraded_reads", "reads served by a non-preferred replica member", func(s iostats.Snapshot) int64 { return s.DegradedReads })
	g("fanout_writes", "replica write copies beyond the first member", func(s iostats.Snapshot) int64 { return s.FanoutWrites })
	g("replica_repair_bytes", "bytes re-replicated onto restarted members", func(s iostats.Snapshot) int64 { return s.ReplicaRepairBytes })
}

// PublishExpvar mirrors the registry's gauges into the process-global
// expvar namespace under name (idempotent per name; later calls with a
// duplicate name are ignored, matching expvar semantics).
func PublishExpvar(name string, reg *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		reg.mu.Lock()
		fns := make(map[string]func() int64, len(reg.gauges))
		for n, f := range reg.gauges {
			fns[n] = f
		}
		ffns := make(map[string]func() float64, len(reg.gaugesF)+len(reg.counters))
		for n, f := range reg.gaugesF {
			ffns[n] = f
		}
		for n, f := range reg.counters {
			ffns[n] = f
		}
		reg.mu.Unlock()
		out := make(map[string]any, len(fns)+len(ffns))
		for n, f := range fns {
			out[n] = f()
		}
		for n, f := range ffns {
			out[n] = f()
		}
		return out
	}))
}
