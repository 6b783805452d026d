package pvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/fault"
	"dtio/internal/flatten"
	"dtio/internal/iostats"
	"dtio/internal/transport"
)

// smallReadFile is a 1536 B-strip file on two TCP servers with
// file-backed objects, holding 3072 B at offset 0: a read of those bytes
// is one inline reply from each server, the shape of a tile_read posix
// row.
func smallReadFile(tb testing.TB) *File {
	tb.Helper()
	c, _, _ := startTCPFileCluster(tb, 2)
	f := createRetry(tb, c, "small.dat", 1536, 2)
	if err := f.WriteContig(transport.NewRealEnv(), 0, frameData(3072, 1)); err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkSmallContigReadTCP measures one 3072 B contiguous read split
// over two TCP servers (run with -benchmem to see the allocations per
// read, the servers' included: they run in this process).
func BenchmarkSmallContigReadTCP(b *testing.B) {
	f := smallReadFile(b)
	env := transport.NewRealEnv()
	buf := make([]byte, 3072)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.ReadContig(env, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientSmallReadAllocs bounds the allocations of a small two-server
// TCP read, servers included. Replies scatter straight from pooled frame
// buffers into the caller's memory: no reply-sized buffer per server.
func TestClientSmallReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; ci.sh runs this bound without it")
	}
	f := smallReadFile(t)
	env := transport.NewRealEnv()
	buf := make([]byte, 3072)
	read := func() {
		if err := f.ReadContig(env, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if !bytes.Equal(buf, frameData(3072, 1)) {
		t.Fatal("read differs from the written bytes")
	}
	if allocs := testing.AllocsPerRun(200, read); allocs > 46 {
		t.Fatalf("a 3072 B two-server read allocates %.0f times, want ≤ 46", allocs)
	}
}

// scatterRig is one cluster configuration of
// TestReadScatterMatchesReference: a writer and a reader client (with
// stats) on three logical servers whose read replies stream in
// chunk-byte segments.
type scatterRig struct {
	name  string
	chunk int
	start func(t *testing.T, chunk int) (w, r *Client)
}

func memRig(t *testing.T, chunk int) (w, r *Client) {
	_, c := startStreamCluster(t, 3, chunk, 2, nil)
	c.Stats = &iostats.Stats{}
	return c, c
}

func tcpRig(t *testing.T, chunk int) (w, r *Client) {
	c, _, _ := startTCPFileCluster(t, 3, func(s *Server) {
		s.StreamChunkBytes, s.StreamWindow = chunk, 2
	})
	c.StreamChunkBytes, c.StreamWindow = chunk, 2
	c.Stats = &iostats.Stats{}
	return c, c
}

// faultRig is three replica groups of two members on the Mem network,
// read through a client that loses, duplicates and resets frames:
// retried and failed-over attempts restart their replies from byte 0.
// The files are written through a clean client. The rig fails unless
// some read was retried and some failed over.
func faultRig(t *testing.T, chunk int) (w, r *Client) {
	rc := startReplicatedCluster(t, 3, 2, func(s *Server) {
		s.StreamChunkBytes, s.StreamWindow = chunk, 2
	})
	w = rc.client()
	r, _ = faultyClient(rc.testCluster, fault.Plan{Seed: 43, DropProb: 0.005, DupProb: 0.02, ResetProb: 0.002})
	r.Replicas = rc.k
	t.Cleanup(func() {
		w.Close()
		r.Close()
		st := r.Stats.Snapshot()
		t.Logf("%d retries, %d reads failed over", st.Retries, st.DegradedReads)
		if !t.Failed() && (st.Retries == 0 || st.DegradedReads == 0) {
			t.Error("the faults never hit a reply")
		}
	})
	return w, r
}

// TestReadScatterMatchesReference reads random contiguous, list,
// compiled-datatype and interpreted-datatype (NoCoalesce) accesses of
// non-periodic files on one to three servers, strips from 1 B to
// 64 KiB, with replies streamed in segments of 100 B, 256 B and 4 KiB,
// over the Mem and TCP transports and under injected faults. Every
// read must leave memory exactly as a flat reference image says: the
// accessed bytes from the file, every other byte untouched. Each list
// and datatype read must also charge exactly walker.count() pieces, the
// count that prices the client's job building.
func TestReadScatterMatchesReference(t *testing.T) {
	rigs := []scatterRig{
		{"mem/100", 100, memRig},
		{"mem/256", 256, memRig},
		{"mem/4096", 4096, memRig},
		{"tcp/100", 100, tcpRig},
		{"tcp/256", 256, tcpRig},
		{"tcp/4096", 4096, tcpRig},
		{"faults/4096", 4096, faultRig},
	}
	strips := []int64{1, 3, 100, 256, 1000, 4096, 65536}
	for ri, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			wc, rc := rig.start(t, rig.chunk)
			rng := rand.New(rand.NewSource(int64(ri) + 1))
			env := transport.NewRealEnv()
			for nServers := 1; nServers <= 3; nServers++ {
				strip := strips[rng.Intn(len(strips))]
				size := max(3*strip, 24<<10) + rng.Int63n(8<<10)
				ref := frameData(int(size), ri*10+nServers)
				name := fmt.Sprintf("ref-%d.dat", nServers)
				w := createRetry(t, wc, name, strip, nServers)
				if err := w.WriteContig(env, 0, ref); err != nil {
					t.Fatal(err)
				}
				f, err := rc.Open(env, name)
				if err != nil {
					t.Fatal(err)
				}
				sr := scatterRead{t: t, f: f, ref: ref, rng: rng, env: env}
				for i := 0; i < 6; i++ {
					sr.contig()
					sr.list()
					sr.dtype(false)
					sr.dtype(true)
				}
			}
		})
	}
}

// scatterRead draws random reads of one file and checks each against
// the reference image ref (zeros past its end, as the servers read).
type scatterRead struct {
	t   *testing.T
	f   *File
	ref []byte
	rng *rand.Rand
	env transport.Env
}

// refAt is the reference byte at file offset off.
func (sr *scatterRead) refAt(off int64) byte {
	if off < int64(len(sr.ref)) {
		return sr.ref[off]
	}
	return 0
}

// expect fills want with the reference bytes the file regions map to in
// the memory regions, pairing them in stream order.
func (sr *scatterRead) expect(want []byte, file, mem []flatten.Region) {
	d := flatten.NewDual(flatten.NewSliceSource(file), flatten.NewSliceSource(mem))
	for {
		fo, mo, n, ok := d.Next()
		if !ok {
			return
		}
		for i := int64(0); i < n; i++ {
			want[mo+i] = sr.refAt(fo + i)
		}
	}
}

// check runs read on a memory buffer prefilled with a marker and
// compares it to want; charged is the piece count the read must add
// to the client's regions counter.
func (sr *scatterRead) check(what string, want []byte, charged int64, read func(mem []byte) error) {
	sr.t.Helper()
	mem := bytes.Repeat([]byte{0xa5}, len(want))
	before := sr.f.c.Stats.Snapshot().Regions
	if err := read(mem); err != nil {
		sr.t.Fatalf("%s: %v", what, err)
	}
	if i := firstDiff(mem, want); i >= 0 {
		sr.t.Fatalf("%s: memory byte %d is %#x, want %#x", what, i, mem[i], want[i])
	}
	if got := sr.f.c.Stats.Snapshot().Regions - before; got != charged {
		sr.t.Fatalf("%s: charged %d pieces, walker.count() is %d", what, got, charged)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func (sr *scatterRead) contig() {
	size := int64(len(sr.ref))
	off := sr.rng.Int63n(size)
	n := 1 + sr.rng.Int63n(size-off)
	want := append([]byte(nil), sr.ref[off:off+n]...)
	// Contiguous I/O builds no job, so it charges no pieces.
	sr.check(fmt.Sprintf("contig [%d,%d)", off, off+n), want, 0, func(mem []byte) error {
		return sr.f.ReadContig(sr.env, off, mem)
	})
}

// list reads one to six ascending file regions into memory regions laid
// out in shuffled order with gaps between them.
func (sr *scatterRead) list() {
	size := int64(len(sr.ref))
	var file []flatten.Region
	for at := sr.rng.Int63n(size / 4); at < size && len(file) < 6; {
		n := 1 + sr.rng.Int63n(min(size-at, size/3))
		file = append(file, flatten.Region{Off: at, Len: n})
		at += n + sr.rng.Int63n(size/8)
	}
	var total int64
	for _, r := range file {
		total += r.Len
	}
	// Cut the stream into memory pieces, then place them out of order.
	var pieces []flatten.Region
	for at := int64(0); at < total; {
		n := 1 + sr.rng.Int63n(total-at)
		pieces = append(pieces, flatten.Region{Off: at, Len: n})
		at += n
	}
	mem := make([]flatten.Region, len(pieces))
	var end int64
	for _, i := range sr.rng.Perm(len(pieces)) {
		end += sr.rng.Int63n(5)
		mem[i] = flatten.Region{Off: end, Len: pieces[i].Len}
		end += pieces[i].Len
	}
	want := bytes.Repeat([]byte{0xa5}, int(end+3))
	sr.expect(want, file, mem)
	p := sr.f.listPlan(file, mem, want, false)
	charged := p.w.count()
	sr.check(fmt.Sprintf("list %v -> %v", file, mem), want, charged, func(buf []byte) error {
		return sr.f.ReadList(sr.env, file, mem, buf)
	})
}

// dtype reads a strided file view into strided memory, compiled or
// (noCoalesce) through the interpreted Dual walk.
func (sr *scatterRead) dtype(noCoalesce bool) {
	rng := sr.rng
	elem := []int64{1, 3, 8}[rng.Intn(3)]
	bl := 1 + rng.Intn(4)
	fileTy := datatype.Vector(1+rng.Intn(40), bl, bl+rng.Intn(4), datatype.Bytes(elem))
	mbl := 1 + rng.Intn(3)
	memTy := datatype.Vector(1+rng.Intn(30), mbl, mbl+1+rng.Intn(3), datatype.Bytes(1+rng.Int63n(9)))
	memCount := 1 + rng.Int63n(8)
	a := &DtypeAccess{
		MemLoop:    dataloop.FromType(memTy),
		MemCount:   memCount,
		FileLoop:   dataloop.FromType(fileTy),
		Disp:       rng.Int63n(int64(len(sr.ref)) / 2),
		Pos:        rng.Int63n(fileTy.Size()),
		NoCoalesce: noCoalesce,
	}
	nbytes, tiles, err := a.validate()
	if err != nil {
		sr.t.Fatal(err)
	}
	memLen := memTy.TrueUB() + (memCount-1)*memTy.Extent()
	file := skipStream(fileTy.Flatten(a.Disp, int(tiles)), a.Pos)
	want := bytes.Repeat([]byte{0xa5}, int(memLen))
	sr.expect(want, file, memTy.Flatten(0, int(memCount)))
	a.Mem = want
	p := sr.f.dtypePlan(a, nbytes, tiles, false)
	charged := p.w.count()
	what := fmt.Sprintf("dtype noCoalesce=%v file %d B of %d per tile at %d+%d, mem %d B ×%d", noCoalesce,
		fileTy.Size(), fileTy.Extent(), a.Disp, a.Pos, memTy.Size(), memCount)
	sr.check(what, want, charged, func(mem []byte) error {
		a.Mem = mem
		return sr.f.ReadDtype(sr.env, a)
	})
}

// skipStream drops the first pos bytes of a region list's stream.
func skipStream(regs []flatten.Region, pos int64) []flatten.Region {
	for len(regs) > 0 && pos >= regs[0].Len {
		pos -= regs[0].Len
		regs = regs[1:]
	}
	if len(regs) > 0 {
		regs = append([]flatten.Region{{Off: regs[0].Off + pos, Len: regs[0].Len - pos}}, regs[1:]...)
	}
	return regs
}
