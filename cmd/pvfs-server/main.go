// pvfs-server is an I/O server daemon: it stores one object per file
// (its stripes) and services contiguous, list, and datatype requests.
//
// Usage:
//
//	pvfs-server -addr :7001 -index 0 -data /var/pvfs/0 -http :8001
//
// With -data "", objects live in memory. With -http, a debug listener
// serves /metrics (Prometheus text), /healthz, /debug/vars, and
// /debug/pprof. With -trace, a Chrome trace-event JSON of every request
// span is written on SIGINT/SIGTERM.
//
// The flight recorder (-flightrec, on by default) keeps the last N
// per-request completion events in an alloc-free ring; SIGQUIT dumps
// it to stderr without stopping the daemon, a crash or kill dumps it
// automatically, and `pvfsctl flight` fetches it over the wire
// (DESIGN.md §17).
//
// In a replicated cluster (pvfs-meta -replicas k) each member of a
// replica group names its group siblings with -peers, so a restart
// after `pvfsctl kill` can rebuild its wiped objects from them
// (DESIGN.md §16):
//
//	pvfs-server -addr :7001 -index 0 -peers host:7002
//	pvfs-server -addr :7002 -index 1 -peers host:7001
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dtio/internal/flightrec"
	"dtio/internal/iostats"
	"dtio/internal/metrics"
	"dtio/internal/pvfs"
	"dtio/internal/storage"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7001", "listen address")
	index := flag.Int("index", 0, "this server's index in the cluster server list")
	dataDir := flag.String("data", "", "directory for object files (empty: in-memory)")
	sieveGap := flag.Int64("sievegap", pvfs.DefaultSieveGapBytes,
		"disk scheduler read gap-merge threshold in bytes (0: merge adjacent runs only); reads only: write sieving uses its own fixed 4 KiB hole bound")
	httpAddr := flag.String("http", "", "debug listener address (/metrics, /healthz, /debug/pprof); empty: off")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON here on SIGINT/SIGTERM; empty: off")
	peers := flag.String("peers", "", "comma-separated addresses of this server's replica group siblings; empty: unreplicated")
	flightN := flag.Int("flightrec", 4096,
		"flight recorder depth in events (dumped by `pvfsctl flight`, SIGQUIT, and crash/kill); 0: off")
	tailTrace := flag.Bool("tailtrace", false,
		"tail-sample the -trace tracer: keep only request trees slower than the rolling p99 plus a 1-in-128 uniform sample, so tracing can stay on permanently")
	flag.Parse()
	if *index < 0 {
		log.Fatal("pvfs-server: -index must be non-negative")
	}
	if *sieveGap < 0 {
		log.Fatal("pvfs-server: -sievegap must be non-negative")
	}
	s := pvfs.NewServer(transport.NewTCPNetwork(), *addr, *index, pvfs.CostModel{})
	s.SieveGapBytes = *sieveGap
	s.Stats = &iostats.Stats{}
	s.Metrics = &pvfs.ServerMetrics{}
	if *peers != "" {
		s.ReplicaPeers = strings.Split(*peers, ",")
		log.Printf("pvfs-server %d: replica peers %v", *index, s.ReplicaPeers)
	}
	if *flightN > 0 {
		s.Flight = flightrec.New(*flightN)
		// Crash/kill post-mortems go to stderr as they happen — the dump
		// is the daemon's black box, and stderr is where an operator (or
		// the harness collecting daemon output) will find it.
		idx := *index
		s.OnCrashDump = func(d flightrec.Dump) {
			log.Printf("pvfs-server %d: crash post-mortem follows", idx)
			d.WriteText(os.Stderr, func(op uint8) string { return wire.MsgType(op).String() })
		}
		// SIGQUIT dumps the recorder without stopping the daemon (the
		// classic "what are you doing right now" signal).
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				flightrec.NewDump(idx, s.Flight).WriteText(os.Stderr,
					func(op uint8) string { return wire.MsgType(op).String() })
			}
		}()
	}
	if *httpAddr != "" {
		reg := metrics.NewRegistry()
		pvfs.RegisterServerMetrics(reg, s)
		metrics.PublishExpvar("pvfs_server", reg)
		lis, err := metrics.ServeDebug(*httpAddr, reg)
		if err != nil {
			log.Fatalf("pvfs-server: debug listener: %v", err)
		}
		log.Printf("pvfs-server %d: debug listener on %s", *index, lis.Addr())
	}
	if *traceOut != "" {
		tr := trace.New()
		s.Tracer = tr
		if *tailTrace {
			// Keep only slow request trees (rolling p99, floored at 1ms)
			// plus 1-in-128 uniform samples; slow spans get the flight
			// window of the same moment stamped on them (DESIGN.md §17).
			at := pvfs.NewAdaptiveThreshold(s.Metrics, time.Millisecond)
			tr.EnableTailSampling(trace.TailConfig{
				Threshold: at.Threshold,
				Every:     128,
				OnKeepSlow: func(root *trace.Span) {
					if s.Flight == nil {
						return
					}
					d := flightrec.NewDump(*index, s.Flight)
					root.SetStr("flight", d.TailText(
						func(op uint8) string { return wire.MsgType(op).String() }, 8))
				},
			})
			log.Printf("pvfs-server %d: tail-sampled tracing on (rolling-p99 threshold, 1/128 uniform)", *index)
		}
		out := *traceOut
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			f, err := os.Create(out)
			if err == nil {
				err = tr.WriteChromeSorted(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				log.Printf("pvfs-server: write trace: %v", err)
				os.Exit(1)
			}
			log.Printf("pvfs-server %d: wrote %d spans to %s", *index, tr.Len(), out)
			os.Exit(0)
		}()
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("pvfs-server: %v", err)
		}
		dir := *dataDir
		s.NewStore = func(handle uint64) storage.Store {
			st, err := storage.OpenFile(filepath.Join(dir, fmt.Sprintf("obj-%016x", handle)))
			if err != nil {
				log.Printf("pvfs-server: open object %x: %v (falling back to memory)", handle, err)
				return storage.NewMem()
			}
			return st
		}
		log.Printf("pvfs-server %d: file-backed objects in %s", *index, dir)
	} else {
		log.Printf("pvfs-server %d: in-memory objects", *index)
	}
	log.Printf("pvfs-server %d: listening on %s", *index, *addr)
	if err := s.Serve(transport.NewRealEnv()); err != nil {
		log.Fatalf("pvfs-server: %v", err)
	}
}
