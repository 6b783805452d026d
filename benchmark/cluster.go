package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtio/internal/flightrec"
	"dtio/internal/iostats"
	"dtio/internal/pvfs"
	"dtio/internal/storage"
	"dtio/internal/transport"
)

const (
	nServers  = 2
	stripSize = 64 * 1024
	// flightDepth is the pvfs-server daemon's default flight-recorder depth.
	flightDepth = 4096
	flushPolicy = "no Sync: writes are acknowledged from the page cache"
)

// cluster is the daemon-default system in one process: one metadata
// server and nServers I/O servers on loopback TCP with file-backed
// objects, configured as cmd/pvfs-server configures a daemon started
// with -data (stats, metrics and flight recorder on, no tracer, zero
// cost model).
type cluster struct {
	env      *transport.RealEnv
	net      *transport.TCPNetwork
	meta     *pvfs.MetaServer
	servers  []*pvfs.Server
	metaAddr string
	addrs    []string
	dir      string

	serving sync.WaitGroup
	mu      sync.Mutex
	stores  []*storage.File
	clients []*pvfs.Client
}

// startCluster brings the daemons up with their objects under dir, which
// it creates and stop removes.
func startCluster(dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tc := &cluster{
		env: transport.NewRealEnv(),
		net: transport.NewTCPNetwork(),
		dir: dir,
	}
	var err error
	if tc.metaAddr, err = tc.freeAddr(); err != nil {
		tc.stop()
		return nil, err
	}
	tc.meta = pvfs.NewMetaServer(tc.net, tc.metaAddr, nServers)
	tc.serve(func() error { return tc.meta.Serve(tc.env) })
	for i := 0; i < nServers; i++ {
		addr, err := tc.freeAddr()
		if err != nil {
			tc.stop()
			return nil, err
		}
		s := pvfs.NewServer(tc.net, addr, i, pvfs.CostModel{})
		s.SieveGapBytes = pvfs.DefaultSieveGapBytes
		s.Stats = &iostats.Stats{}
		s.Metrics = &pvfs.ServerMetrics{}
		s.Flight = flightrec.New(flightDepth)
		idx := i
		s.NewStore = func(handle uint64) storage.Store {
			st, err := storage.OpenFile(filepath.Join(dir, fmt.Sprintf("s%d-obj-%016x", idx, handle)))
			if err != nil {
				// The daemon's fallback: the failure then shows as a
				// wrong fs type in no metric, so say it loudly.
				fmt.Fprintf(os.Stderr, "benchmark: open object: %v (falling back to memory)\n", err)
				return storage.NewMem()
			}
			tc.mu.Lock()
			tc.stores = append(tc.stores, st)
			tc.mu.Unlock()
			return st
		}
		tc.servers = append(tc.servers, s)
		tc.addrs = append(tc.addrs, addr)
		tc.serve(func() error { return s.Serve(tc.env) })
	}
	// Wait for every daemon to accept before the workload starts.
	c := tc.client()
	for i := 0; i < 2000; i++ {
		if f, err := c.Create(tc.env, "__probe__", stripSize, 0); err == nil {
			if _, err := f.Size(tc.env); err == nil {
				return tc, c.Remove(tc.env, "__probe__")
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	tc.stop()
	return nil, fmt.Errorf("cluster did not come up")
}

// freeAddr reserves a loopback port by binding and releasing it; the
// daemons take an address, not a listener.
func (tc *cluster) freeAddr() (string, error) {
	l, err := tc.net.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr, ok := transport.BoundAddr(l)
	l.Close()
	if !ok {
		return "", fmt.Errorf("listener has no bound address")
	}
	return addr, nil
}

func (tc *cluster) serve(fn func() error) {
	tc.serving.Add(1)
	go func() {
		defer tc.serving.Done()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: daemon: %v\n", err)
		}
	}()
}

// client returns a new client configured as pvfsctl configures its own
// (default retry policy, no cache, no replication) with counters on.
// stop closes it.
func (tc *cluster) client() *pvfs.Client {
	c := pvfs.NewClient(tc.net, tc.metaAddr, tc.addrs, pvfs.CostModel{})
	c.Retry = pvfs.DefaultRetryPolicy()
	c.Stats = &iostats.Stats{}
	tc.mu.Lock()
	tc.clients = append(tc.clients, c)
	tc.mu.Unlock()
	return c
}

// stop closes clients, then daemons, waits for the accept loops to
// return, closes the object files and removes the directory.
func (tc *cluster) stop() {
	tc.mu.Lock()
	clients, stores := tc.clients, tc.stores
	tc.clients, tc.stores = nil, nil
	tc.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if tc.meta != nil {
		tc.meta.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
	tc.serving.Wait()
	for _, st := range stores {
		st.Close()
	}
	os.RemoveAll(tc.dir)
}

// serverCounters is the sum over servers of the public counters the
// per-layer metrics are deltas of.
type serverCounters struct {
	io              iostats.Snapshot
	lat             histSnap // request service times, reads and writes
	loopHits        int64
	loopMisses      int64
	compiledReplays int64
}

func (tc *cluster) counters() serverCounters {
	var sc serverCounters
	for _, s := range tc.servers {
		sc.io = sc.io.Add(s.Stats.Snapshot())
		sc.lat = sc.lat.Add(s.Metrics.Lat())
		lc := s.LoopCacheStats()
		sc.loopHits += lc.Hits
		sc.loopMisses += lc.Misses
		sc.compiledReplays += s.CompiledReplays()
	}
	return sc
}
