package pvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dtio/internal/iostats"
	"dtio/internal/storage"
	"dtio/internal/transport"
)

// randomWriteBatch draws one list write: up to 24 runs of 1 B to 8 KiB
// (512 B on tiny strips, which split every byte into its own piece),
// separated by holes of 0 to 8 KiB, with some runs overlapping their
// predecessor and some batches shuffled out of offset order.
func randomWriteBatch(rng *rand.Rand, strip int64) ([]Region, []byte) {
	maxRun := int64(8192)
	if strip < 256 {
		maxRun = 512
	}
	var regions []Region
	var total int64
	off := rng.Int63n(8192)
	for k := 1 + rng.Intn(24); k > 0; k-- {
		n := 1 + rng.Int63n(maxRun)
		regions = append(regions, Region{Off: off, Len: n})
		total += n
		switch r := rng.Intn(10); {
		case r < 2: // overlap the run just placed
			off += rng.Int63n(n)
		case r < 4: // strictly adjacent
			off += n
		default:
			off += n + 1 + rng.Int63n(8192)
		}
	}
	if rng.Intn(5) == 0 {
		rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	}
	mem := make([]byte, total)
	rng.Read(mem)
	return regions, mem
}

// applyRef writes a list batch into a flat image in request order, the
// semantics a server owes overlapping runs (last writer wins).
func applyRef(img []byte, regions []Region, mem []byte) []byte {
	for _, r := range regions {
		if end := r.Off + r.Len; end > int64(len(img)) {
			img = append(img, make([]byte, end-int64(len(img)))...)
		}
		copy(img[r.Off:r.Off+r.Len], mem[:r.Len])
		mem = mem[r.Len:]
	}
	return img
}

// TestWriteSieveMatchesReference applies random write batches through
// sieving servers, inline and streamed, and holds the file image
// byte-identical to a flat reference after every batch. A twin cluster
// with AdjacentWritesOnly receives the same batches: sieving only ever
// merges more, so the twin's dispatched-op count bounds the sieving one.
func TestWriteSieveMatchesReference(t *testing.T) {
	for _, chunk := range []int{1 << 20, 4096} { // inline, streamed
		chunk := chunk
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			sieve, adj := &iostats.Stats{}, &iostats.Stats{}
			_, cs := startStreamCluster(t, 3, chunk, 2, func(s *Server) { s.Stats = sieve })
			_, ca := startStreamCluster(t, 3, chunk, 2, func(s *Server) {
				s.Stats = adj
				s.AdjacentWritesOnly = true
			})
			env := transport.NewRealEnv()
			rng := rand.New(rand.NewSource(int64(chunk)))
			var sieved, adjacent int64
			for file := 0; file < 24; file++ {
				strip := []int64{1, 7, 256, 4096, 65536}[rng.Intn(5)]
				nServers := 1 + rng.Intn(3)
				name := fmt.Sprintf("f%d", file)
				fs, err := cs.Create(env, name, strip, nServers)
				if err != nil {
					t.Fatal(err)
				}
				fa, err := ca.Create(env, name, strip, nServers)
				if err != nil {
					t.Fatal(err)
				}
				var ref []byte
				for batch := 0; batch < 4; batch++ {
					regions, mem := randomWriteBatch(rng, strip)
					ref = applyRef(ref, regions, mem)
					memRegions := []Region{{Off: 0, Len: int64(len(mem))}}
					s0, a0 := sieve.Snapshot().DiskOpsMerged, adj.Snapshot().DiskOpsMerged
					if err := fs.WriteList(env, regions, memRegions, mem); err != nil {
						t.Fatal(err)
					}
					if err := fa.WriteList(env, regions, memRegions, mem); err != nil {
						t.Fatal(err)
					}
					ds, da := sieve.Snapshot().DiskOpsMerged-s0, adj.Snapshot().DiskOpsMerged-a0
					if ds > da {
						t.Fatalf("strip %d ×%d batch %d: sieving dispatched %d ops, adjacency only %d",
							strip, nServers, batch, ds, da)
					}
					sieved += ds
					adjacent += da
					for _, f := range []*File{fs, fa} {
						got := make([]byte, len(ref))
						if err := f.ReadContig(env, 0, got); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("strip %d ×%d batch %d (%v): image differs from the reference",
								strip, nServers, batch, regions)
						}
					}
				}
			}
			if rmw := sieve.Snapshot().DiskRMWOps; sieved >= adjacent || rmw == 0 {
				t.Fatalf("nothing sieved: %d ops against %d adjacency-only, %d read-modify-writes", sieved, adjacent, rmw)
			}
			if rmw := adj.Snapshot().DiskRMWOps; rmw != 0 {
				t.Fatalf("AdjacentWritesOnly servers sieved %d writes", rmw)
			}
		})
	}
}

// startTCPFileCluster brings up a metadata server and nServers I/O
// servers on loopback TCP with file-backed objects, and returns two
// independent clients (separate connections, so the servers handle
// their requests on separate goroutines) plus the shared disk counters.
// tune (optional) adjusts each server before it starts serving.
func startTCPFileCluster(t testing.TB, nServers int, tune ...func(*Server)) (*Client, *Client, *iostats.Stats) {
	t.Helper()
	net := transport.NewTCPNetwork()
	env := transport.NewRealEnv()
	freeAddr := func() string {
		l, err := net.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := transport.BoundAddr(l)
		l.Close()
		return addr
	}
	metaAddr := freeAddr()
	meta := NewMetaServer(net, metaAddr, nServers)
	go meta.Serve(env)
	dir := t.TempDir()
	stats := &iostats.Stats{}
	var mu sync.Mutex
	var stores []*storage.File
	var servers []*Server
	var addrs []string
	for i := 0; i < nServers; i++ {
		addr := freeAddr()
		s := NewServer(net, addr, i, CostModel{})
		s.Stats = stats
		idx := i
		s.NewStore = func(handle uint64) storage.Store {
			st, err := storage.OpenFile(filepath.Join(dir, fmt.Sprintf("s%d-%d", idx, handle)))
			if err != nil {
				t.Errorf("open object: %v", err)
				return storage.NewMem()
			}
			mu.Lock()
			stores = append(stores, st)
			mu.Unlock()
			return st
		}
		for _, fn := range tune {
			fn(s)
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
		go s.Serve(env)
	}
	// Return only once every I/O server listens: a client's first data
	// request dials without retrying.
	for _, addr := range addrs {
		for i := 0; ; i++ {
			conn, err := net.Dial(env, addr)
			if err == nil {
				conn.Close()
				break
			}
			if i == 400 {
				t.Fatalf("server %s never came up: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	c1 := NewClient(net, metaAddr, addrs, CostModel{})
	c2 := NewClient(net, metaAddr, addrs, CostModel{})
	t.Cleanup(func() {
		c1.Close()
		c2.Close()
		meta.Close()
		for _, s := range servers {
			s.Close()
		}
		mu.Lock()
		for _, st := range stores {
			st.Close()
		}
		mu.Unlock()
	})
	return c1, c2, stats
}

// createRetry creates a file, retrying while the daemons come up.
func createRetry(t testing.TB, c *Client, name string, strip int64, nServers int) *File {
	t.Helper()
	env := transport.NewRealEnv()
	var err error
	for i := 0; i < 400; i++ {
		var f *File
		if f, err = c.Create(env, name, strip, nServers); err == nil {
			return f
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("create %s: %v", name, err)
	return nil
}

// rowHalves lists the file regions of one half of every 512 B row:
// first (second == false) or second 256 B.
func rowHalves(rows int, second bool) []Region {
	out := make([]Region, rows)
	for r := range out {
		out[r] = Region{Off: int64(r) * 512, Len: 256}
		if second {
			out[r].Off += 256
		}
	}
	return out
}

func fillPattern(n int, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+seed*13) | 1 // never zero, so a lost hole shows
	}
	return b
}

// raceIters is the iteration count of the write-sieving race tests.
const raceIters = 1000

// TestWriteSieveLatchRace runs two clients over TCP against
// file-backed objects, each sieving its half of the same rows, so every
// write's pre-read covers the bytes the other client is writing. The
// per-object latch must keep each read-modify-write whole: without it,
// one client writes back a stale copy of the other's half. The second
// case truncates while a sieved rewrite is in flight: the result must
// be one of the two serial orders, never a write-back that resurrects
// bytes the truncate dropped.
func TestWriteSieveLatchRace(t *testing.T) {
	const rows = 128 // a 64 KiB file: one sieved extent per server batch
	c1, c2, stats := startTCPFileCluster(t, 2)

	t.Run("interleaved-halves", func(t *testing.T) {
		f1 := createRetry(t, c1, "rows.dat", 4096, 2)
		f2, err := c2.Open(transport.NewRealEnv(), "rows.dat")
		if err != nil {
			t.Fatal(err)
		}
		first, second := rowHalves(rows, false), rowHalves(rows, true)
		memRegions := []Region{{Off: 0, Len: rows * 256}}
		rmw0 := stats.Snapshot().DiskRMWOps
		for it := 0; it < raceIters; it++ {
			a, b := fillPattern(rows*256, 2*it), fillPattern(rows*256, 2*it+1)
			var wg sync.WaitGroup
			var e1, e2 error
			wg.Add(2)
			go func() {
				defer wg.Done()
				e1 = f1.WriteList(transport.NewRealEnv(), first, memRegions, a)
			}()
			go func() {
				defer wg.Done()
				e2 = f2.WriteList(transport.NewRealEnv(), second, memRegions, b)
			}()
			wg.Wait()
			if e1 != nil || e2 != nil {
				t.Fatalf("iteration %d: %v / %v", it, e1, e2)
			}
			want := applyRef(applyRef(nil, first, a), second, b)
			got := make([]byte, len(want))
			if err := f1.ReadContig(transport.NewRealEnv(), 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: a concurrent sieved write clobbered the other client's half", it)
			}
		}
		if stats.Snapshot().DiskRMWOps == rmw0 {
			t.Fatal("no write took the read-modify-write path")
		}
	})

	t.Run("truncate-vs-rewrite", func(t *testing.T) {
		const size = rows * 512
		f1 := createRetry(t, c1, "trunc.dat", 1<<20, 1)
		f2, err := c2.Open(transport.NewRealEnv(), "trunc.dat")
		if err != nil {
			t.Fatal(err)
		}
		first := rowHalves(rows, false)
		memRegions := []Region{{Off: 0, Len: rows * 256}}
		env := transport.NewRealEnv()
		for it := 0; it < raceIters; it++ {
			base, p := fillPattern(size, 3*it), fillPattern(rows*256, 3*it+1)
			if err := f1.WriteContig(env, 0, base); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var e1, e2 error
			wg.Add(2)
			go func() {
				defer wg.Done()
				e1 = f1.WriteList(transport.NewRealEnv(), first, memRegions, p)
			}()
			go func() {
				defer wg.Done()
				// Sweep the truncate's arrival across the rewrite's
				// service time, so some land inside its read-modify-write.
				for until := time.Now().Add(time.Duration(it%64) * 4 * time.Microsecond); time.Now().Before(until); {
				}
				e2 = f2.Truncate(transport.NewRealEnv(), size/2)
			}()
			wg.Wait()
			if e1 != nil || e2 != nil {
				t.Fatalf("iteration %d: %v / %v", it, e1, e2)
			}
			// Write then truncate: the rewritten image, cut in half.
			writeFirst := applyRef(append([]byte(nil), base...), first, p)[:size/2]
			// Truncate then write: holes past the cut read as zeros.
			truncFirst := applyRef(append([]byte(nil), base[:size/2]...), first, p)
			n, err := f1.Size(env)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, n)
			if err := f1.ReadContig(env, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, writeFirst) && !bytes.Equal(got, truncFirst) {
				t.Fatalf("iteration %d: %d-byte image matches neither serial order", it, n)
			}
		}
	})
}
