package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dtio/internal/datatype"
	"dtio/internal/iostats"
	"dtio/internal/mpi"
	"dtio/internal/pvfs"
	"dtio/internal/transport"
)

// rig is an in-process cluster plus an MPI world.
type rig struct {
	net   *transport.MemNetwork
	env   transport.Env
	addrs []string
	fab   *transport.MemFabric
	size  int
	meta  *pvfs.MetaServer
}

func newRig(t *testing.T, nServers, nProcs int) *rig {
	t.Helper()
	r := &rig{
		net:  transport.NewMemNetwork(),
		env:  transport.NewRealEnv(),
		fab:  transport.NewMemFabric(nProcs),
		size: nProcs,
	}
	meta := pvfs.NewMetaServer(r.net, "meta", nServers)
	r.meta = meta
	go meta.Serve(r.env)
	var servers []*pvfs.Server
	for i := 0; i < nServers; i++ {
		addr := fmt.Sprintf("io%d", i)
		s := pvfs.NewServer(r.net, addr, i, pvfs.CostModel{})
		servers = append(servers, s)
		r.addrs = append(r.addrs, addr)
		go s.Serve(r.env)
	}
	t.Cleanup(func() {
		meta.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	// Readiness probe must touch every I/O server, not just metadata.
	c := pvfs.NewClient(r.net, "meta", r.addrs, pvfs.CostModel{})
	defer c.Close()
	for i := 0; i < 2000; i++ {
		f, err := c.Create(r.env, "__probe__", 64, 0)
		if err != nil {
			f, err = c.Open(r.env, "__probe__")
		}
		if err == nil {
			if _, err := f.Size(r.env); err == nil {
				c.Remove(r.env, "__probe__")
				return r
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("rig did not come up")
	return nil
}

// client opens a fresh pvfs client.
func (r *rig) client() *pvfs.Client {
	return pvfs.NewClient(r.net, "meta", r.addrs, pvfs.CostModel{})
}

// parallel runs fn on every rank concurrently and waits.
func (r *rig) parallel(fn func(rank int, comm *mpi.Comm)) {
	var wg sync.WaitGroup
	for rank := 0; rank < r.size; rank++ {
		wg.Add(1)
		rank := rank
		go func() {
			defer wg.Done()
			fn(rank, mpi.NewComm(r.fab, rank, r.size))
		}()
	}
	wg.Wait()
}

// blockView builds a per-rank 2-D block view: array rows x cols bytes,
// each rank owning a contiguous band of rows split into row pieces of
// blockCols bytes — a tile-reader-like pattern.
func blockView(rank, nProcs, rows, cols, blockCols int) *datatype.Type {
	rowsPer := rows / nProcs
	return datatype.Subarray(
		[]int{rows, cols},
		[]int{rowsPer, blockCols},
		[]int{rank * rowsPer, (cols - blockCols) / 2},
		datatype.OrderC, datatype.Byte)
}

func TestSetViewValidation(t *testing.T) {
	r := newRig(t, 2, 1)
	c := r.client()
	defer c.Close()
	pf, err := c.Create(r.env, "v.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := Open(pf, nil, Posix, DefaultHints())
	if err := f.SetView(-1, datatype.Byte, datatype.Byte); err == nil {
		t.Fatal("negative disp accepted")
	}
	// filetype not a multiple of etype
	if err := f.SetView(0, datatype.Int32, datatype.Bytes(6)); err == nil {
		t.Fatal("etype mismatch accepted")
	}
	if err := f.SetView(0, datatype.Int32, datatype.Contiguous(3, datatype.Int32)); err != nil {
		t.Fatal(err)
	}
}

// TestSieveWriteRejectedNoLocks pins the paper-faithful ablation: with
// the lock service disabled, sieving writes fail exactly as on the
// lockless PVFS of §4.1, and atomic mode cannot be enabled.
func TestSieveWriteRejectedNoLocks(t *testing.T) {
	r := newRig(t, 2, 1)
	c := r.client()
	defer c.Close()
	pf, _ := c.Create(r.env, "s.dat", 64, 0)
	hints := DefaultHints()
	hints.NoLocks = true
	f := Open(pf, nil, Sieve, hints)
	err := f.WriteAt(r.env, 0, make([]byte, 4), datatype.Int32, 1)
	if err != ErrSieveWrite {
		t.Fatalf("err=%v", err)
	}
	if err := f.SetAtomicity(true); err != ErrAtomicNoLocks {
		t.Fatalf("SetAtomicity under NoLocks: %v", err)
	}
}

func TestAtomicityTwoPhaseRejected(t *testing.T) {
	r := newRig(t, 2, 1)
	c := r.client()
	defer c.Close()
	pf, _ := c.Create(r.env, "a.dat", 64, 0)
	f := Open(pf, nil, TwoPhase, DefaultHints())
	if err := f.SetAtomicity(true); err != ErrAtomicTwoPhase {
		t.Fatalf("err=%v", err)
	}
	if err := f.SetAtomicity(false); err != nil || f.Atomicity() {
		t.Fatalf("disabling atomicity: err=%v atomic=%v", err, f.Atomicity())
	}
}

func TestTwoPhaseIndependentRejected(t *testing.T) {
	r := newRig(t, 2, 1)
	c := r.client()
	defer c.Close()
	pf, _ := c.Create(r.env, "t.dat", 64, 0)
	f := Open(pf, nil, TwoPhase, DefaultHints())
	if err := f.ReadAt(r.env, 0, make([]byte, 4), datatype.Int32, 1); err != ErrCollectiveOnly {
		t.Fatalf("err=%v", err)
	}
}

// writeOracle computes the expected file image of a multi-rank write.
func writeOracle(fileSize int, nProcs, rows, cols, blockCols int, data func(rank int) []byte) []byte {
	img := make([]byte, fileSize)
	for rank := 0; rank < nProcs; rank++ {
		view := blockView(rank, nProcs, rows, cols, blockCols)
		d := data(rank)
		pos := 0
		view.Walk(0, func(off, n int64) bool {
			copy(img[off:off+n], d[pos:pos+int(n)])
			pos += int(n)
			return true
		})
	}
	return img
}

func rankData(rank, n int) []byte {
	out := make([]byte, n)
	r := rand.New(rand.NewSource(int64(rank) + 42))
	r.Read(out)
	return out
}

// bufferHints are the hint sets the equivalence tests run each method
// under: the defaults, and sieve and collective buffers far smaller than
// an access, so one File's scratch buffer serves many sieve windows and
// two-phase rounds.
func bufferHints() []struct {
	name  string
	hints Hints
} {
	small := DefaultHints()
	small.SieveBufSize, small.CBBufSize = 1000, 1500
	return []struct {
		name  string
		hints Hints
	}{{"default", DefaultHints()}, {"small-buffers", small}}
}

func TestAllMethodsWriteEquivalence(t *testing.T) {
	const (
		nServers  = 4
		nProcs    = 4
		rows      = 64
		cols      = 512
		blockCols = 300
	)
	perRank := (rows / nProcs) * blockCols
	want := writeOracle(rows*cols, nProcs, rows, cols, blockCols,
		func(rank int) []byte { return rankData(rank, perRank) })

	for _, m := range []Method{Posix, Sieve, TwoPhase, ListIO, DtypeIO} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			for _, hc := range bufferHints() {
				t.Run(hc.name, func(t *testing.T) {
					r := newRig(t, nServers, nProcs)
					name := "w-" + m.String()
					r.parallel(func(rank int, comm *mpi.Comm) {
						c := r.client()
						defer c.Close()
						var pf *pvfs.File
						var err error
						if rank == 0 {
							pf, err = c.Create(r.env, name, 4096, 0)
						}
						comm.Barrier(r.env)
						if rank != 0 {
							pf, err = c.Open(r.env, name)
						}
						if err != nil {
							t.Error(err)
							return
						}
						f := Open(pf, comm, m, hc.hints)
						if err := f.SetView(0, datatype.Byte, blockView(rank, nProcs, rows, cols, blockCols)); err != nil {
							t.Error(err)
							return
						}
						data := rankData(rank, perRank)
						if err := f.WriteAtAll(r.env, 0, data, datatype.Bytes(int64(perRank)), 1); err != nil {
							t.Errorf("rank %d: %v", rank, err)
							return
						}
						comm.Barrier(r.env)
					})
					if t.Failed() {
						return
					}
					// Verify the file image.
					c := r.client()
					defer c.Close()
					pf, err := c.Open(r.env, name)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]byte, rows*cols)
					if err := pf.ReadContig(r.env, 0, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("method %v: first diff at byte %d", m, i)
							}
						}
					}
				})
			}
		})
	}
}

func TestAllMethodsReadEquivalence(t *testing.T) {
	const (
		nServers  = 3
		nProcs    = 3
		rows      = 60
		cols      = 400
		blockCols = 250
	)
	perRank := (rows / nProcs) * blockCols

	for _, m := range []Method{Posix, Sieve, TwoPhase, ListIO, DtypeIO} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			for _, hc := range bufferHints() {
				t.Run(hc.name, func(t *testing.T) {
					r := newRig(t, nServers, nProcs)
					// Populate the file.
					img := make([]byte, rows*cols)
					rand.New(rand.NewSource(7)).Read(img)
					c := r.client()
					pf, err := c.Create(r.env, "r.dat", 1024, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := pf.WriteContig(r.env, 0, img); err != nil {
						t.Fatal(err)
					}
					c.Close()

					r.parallel(func(rank int, comm *mpi.Comm) {
						cc := r.client()
						defer cc.Close()
						pf, err := cc.Open(r.env, "r.dat")
						if err != nil {
							t.Error(err)
							return
						}
						f := Open(pf, comm, m, hc.hints)
						view := blockView(rank, nProcs, rows, cols, blockCols)
						if err := f.SetView(0, datatype.Byte, view); err != nil {
							t.Error(err)
							return
						}
						got := make([]byte, perRank)
						if err := f.ReadAtAll(r.env, 0, got, datatype.Bytes(int64(perRank)), 1); err != nil {
							t.Errorf("rank %d: %v", rank, err)
							return
						}
						// Oracle: pack the view regions out of the image.
						want := make([]byte, 0, perRank)
						view.Walk(0, func(off, n int64) bool {
							want = append(want, img[off:off+n]...)
							return true
						})
						if !bytes.Equal(got, want) {
							t.Errorf("rank %d: method %v read wrong data", rank, m)
						}
					})
				})
			}
		})
	}
}

// TestNoncontigMemoryAllMethods: memory noncontiguous (FLASH-like:
// 24 bytes of every 32), three ranks, every method, each under default
// and small buffers (two-phase then runs several rounds). Reads use views
// that overlap between ranks; writes use disjoint views that interleave.
// In both, some piece contiguous in file and memory straddles a
// two-phase domain boundary, so it splits between two aggregators.
func TestNoncontigMemoryAllMethods(t *testing.T) {
	const (
		nProcs  = 3
		nbytes  = 6144 // per rank
		imgSize = 20000
	)
	memTy := datatype.Vector(256, 3, 4, datatype.Int64)
	memOff := streamOffsets(memTy, 0, nbytes)
	cases := []noncontigCase{
		// 40 bytes of every 48; rank r starts 24r bytes in, so rank 1
		// overlaps ranks 0 and 2, and rank 2 reads rank 0's blocks.
		{name: "read", fileTy: datatype.Vector(160, 5, 6, datatype.Int64), disp: func(rank int) int64 { return 16 + 24*int64(rank) }},
		// 40 bytes of every 120; the ranks' blocks tile [16, ...).
		{name: "write", write: true, fileTy: datatype.Vector(154, 5, 15, datatype.Int64), disp: func(rank int) int64 { return 16 + 40*int64(rank) }},
	}
	for i := range cases {
		tc := &cases[i]
		tc.fileOff = make([][]int64, nProcs)
		for rank := range tc.fileOff {
			tc.fileOff[rank] = streamOffsets(tc.fileTy, tc.disp(rank), nbytes)
		}
		if !straddlesDomain(tc.fileOff, memOff, nProcs) {
			t.Fatalf("%s: no piece straddles a two-phase domain boundary", tc.name)
		}
	}
	img := make([]byte, imgSize)
	rand.New(rand.NewSource(3)).Read(img)
	for _, m := range []Method{Posix, Sieve, TwoPhase, ListIO, DtypeIO} {
		t.Run(m.String(), func(t *testing.T) {
			for _, tc := range cases {
				for _, hc := range bufferHints() {
					t.Run(tc.name+"/"+hc.name, func(t *testing.T) {
						tc.run(t, m, hc.hints, memTy, memOff, img)
					})
				}
			}
		})
	}
}

// noncontigCase is one read or write case of
// TestNoncontigMemoryAllMethods: rank r's view is fileTy at disp(r).
type noncontigCase struct {
	name    string
	write   bool
	fileTy  *datatype.Type
	disp    func(rank int) int64
	fileOff [][]int64 // per rank: the file offset of each stream byte
}

// run runs the case with method m: every rank accesses its view's
// stream bytes from the memory bytes memOff of one memTy, and the file
// starts as img.
func (tc noncontigCase) run(t *testing.T, m Method, hints Hints, memTy *datatype.Type, memOff []int64, img []byte) {
	const nServers = 3
	write, fileOff := tc.write, tc.fileOff
	r := newRig(t, nServers, len(fileOff))
	c := r.client()
	defer c.Close()
	pf, err := c.Create(r.env, "m.dat", 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.WriteContig(r.env, 0, img); err != nil {
		t.Fatal(err)
	}
	r.parallel(func(rank int, comm *mpi.Comm) {
		cc := r.client()
		defer cc.Close()
		pf, err := cc.Open(r.env, "m.dat")
		if err != nil {
			t.Error(err)
			return
		}
		f := Open(pf, comm, m, hints)
		if err := f.SetView(tc.disp(rank), datatype.Int64, tc.fileTy); err != nil {
			t.Error(err)
			return
		}
		if write {
			if err := f.WriteAtAll(r.env, 0, rankData(rank, int(memTy.TrueExtent())), memTy, 1); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			return
		}
		buf := bytes.Repeat([]byte{0xFF}, int(memTy.TrueExtent()))
		if err := f.ReadAtAll(r.env, 0, buf, memTy, 1); err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		// Memory outside the type's blocks stays untouched.
		want := bytes.Repeat([]byte{0xFF}, len(buf))
		for k, fo := range fileOff[rank] {
			want[memOff[k]] = img[fo]
		}
		if i := firstDiff(buf, want); i >= 0 {
			t.Errorf("rank %d: read differs first at memory byte %d", rank, i)
		}
	})
	if t.Failed() || !write {
		return
	}
	want := bytes.Clone(img)
	for rank, offs := range fileOff {
		data := rankData(rank, int(memTy.TrueExtent()))
		for k, fo := range offs {
			want[fo] = data[memOff[k]]
		}
	}
	got := make([]byte, len(img))
	if err := pf.ReadContig(r.env, 0, got); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("file image differs first at byte %d", i)
	}
}

// streamOffsets lists the offsets of the first n bytes of the byte
// stream of type ty tiled from disp, one per byte.
func streamOffsets(ty *datatype.Type, disp int64, n int) []int64 {
	out := make([]int64, 0, n)
	for tile := int64(0); len(out) < n; tile++ {
		ty.Walk(disp+tile*ty.Extent(), func(off, ln int64) bool {
			for i := int64(0); i < ln && len(out) < n; i++ {
				out = append(out, off+i)
			}
			return len(out) < n
		})
	}
	return out
}

// straddlesDomain reports whether two consecutive stream bytes of some
// rank, adjacent in both file and memory, fall on either side of a
// boundary between two of the nAgg equal two-phase file domains.
func straddlesDomain(fileOff [][]int64, memOff []int64, nAgg int) bool {
	gmin, gmax := fileOff[0][0], int64(0)
	for _, offs := range fileOff {
		gmin = min(gmin, offs[0])
		gmax = max(gmax, offs[len(offs)-1]+1)
	}
	dom := (gmax - gmin + int64(nAgg) - 1) / int64(nAgg)
	for _, offs := range fileOff {
		for k := 1; k < len(offs); k++ {
			if offs[k] == offs[k-1]+1 && memOff[k] == memOff[k-1]+1 && (offs[k]-gmin)%dom == 0 {
				return true
			}
		}
	}
	return false
}

// firstDiff reports the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func TestReadAtOffsetInEtypes(t *testing.T) {
	r := newRig(t, 2, 1)
	c := r.client()
	defer c.Close()
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i)
	}
	pf, _ := c.Create(r.env, "o.dat", 128, 0)
	pf.WriteContig(r.env, 0, img)
	f := Open(pf, nil, DtypeIO, DefaultHints())
	// View = whole file as int32 etype/filetype; offset counts etypes.
	if err := f.SetView(0, datatype.Int32, datatype.Contiguous(16, datatype.Int32)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := f.ReadAt(r.env, 5, got, datatype.Int64, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img[20:28]) {
		t.Fatalf("offset read got %v want %v", got, img[20:28])
	}
}

func TestTwoPhaseSparseWriteReadModifyWrite(t *testing.T) {
	// Two ranks write disjoint, gappy regions; pre-existing data in the
	// gaps must survive (exercises the aggregator pre-read).
	const nProcs = 2
	r := newRig(t, 2, nProcs)
	c := r.client()
	img := bytes.Repeat([]byte{0xEE}, 2048)
	pf, _ := c.Create(r.env, "sp.dat", 128, 0)
	pf.WriteContig(r.env, 0, img)
	c.Close()

	r.parallel(func(rank int, comm *mpi.Comm) {
		cc := r.client()
		defer cc.Close()
		pf, err := cc.Open(r.env, "sp.dat")
		if err != nil {
			t.Error(err)
			return
		}
		f := Open(pf, comm, TwoPhase, DefaultHints())
		// Rank r writes 4-byte pieces at 64*k + 32*r, k=0..15: gaps remain.
		view := datatype.Vector(16, 1, 16, datatype.Int32)
		if err := f.SetView(int64(32*rank), datatype.Int32, view); err != nil {
			t.Error(err)
			return
		}
		data := bytes.Repeat([]byte{byte(0xA0 + rank)}, 64)
		if err := f.WriteAtAll(r.env, 0, data, datatype.Bytes(64), 1); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	})
	if t.Failed() {
		return
	}
	cc := r.client()
	defer cc.Close()
	pf2, _ := cc.Open(r.env, "sp.dat")
	got := make([]byte, 2048)
	pf2.ReadContig(r.env, 0, got)
	for i := 0; i < 1024; i++ {
		want := byte(0xEE)
		switch {
		case i%64 < 4:
			want = 0xA0
		case i%64 >= 32 && i%64 < 36:
			want = 0xA1
		}
		if got[i] != want {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], want)
		}
	}
}

func TestStatsMatchPaperShapesTileLike(t *testing.T) {
	// A miniature tile pattern: check the op-count relationships the
	// paper's Table 1 shows: posix ops == rows, list ops == ceil(rows/64),
	// dtype ops == 1, sieve accessed > desired.
	const rows, rowLen, stride = 256, 48, 96
	r := newRig(t, 4, 1)
	mk := func(m Method) iostatsSnapshot {
		c := r.client()
		defer c.Close()
		st := newStats()
		c.Stats = st
		name := fmt.Sprintf("tile-%v", m)
		pf, err := c.Create(r.env, name, 512, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Populate.
		img := make([]byte, rows*stride)
		pf.WriteContig(r.env, 0, img)
		st.Reset()
		f := Open(pf, nil, m, DefaultHints())
		view := datatype.Vector(rows, rowLen, stride, datatype.Byte)
		if err := f.SetView(0, datatype.Byte, view); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, rows*rowLen)
		if err := f.ReadAt(r.env, 0, buf, datatype.Bytes(rows*rowLen), 1); err != nil {
			t.Fatal(err)
		}
		return st.Snapshot()
	}
	posix := mk(Posix)
	list := mk(ListIO)
	dtype := mk(DtypeIO)
	sieve := mk(Sieve)
	if posix.IOOps != rows {
		t.Errorf("posix ops=%d want %d", posix.IOOps, rows)
	}
	if list.IOOps != rows/64 {
		t.Errorf("list ops=%d want %d", list.IOOps, rows/64)
	}
	if dtype.IOOps != 1 {
		t.Errorf("dtype ops=%d want 1", dtype.IOOps)
	}
	if sieve.AccessedBytes <= sieve.DesiredBytes {
		t.Errorf("sieve accessed=%d should exceed desired=%d", sieve.AccessedBytes, sieve.DesiredBytes)
	}
	if dtype.ReqBytes >= list.ReqBytes {
		t.Errorf("dtype request payload %d should be far below list %d", dtype.ReqBytes, list.ReqBytes)
	}
	for _, s := range []iostatsSnapshot{posix, list, dtype} {
		if s.AccessedBytes != rows*rowLen {
			t.Errorf("accessed=%d want %d", s.AccessedBytes, rows*rowLen)
		}
	}
}

// Aliases keeping the test bodies terse.
type iostatsSnapshot = iostats.Snapshot

func newStats() *iostats.Stats { return &iostats.Stats{} }
