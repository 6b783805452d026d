package pvfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/iostats"
	"dtio/internal/storage"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// startStreamCluster is startCluster with streaming tuned to a small
// segment size so tests exercise multi-segment transfers cheaply. tune
// (optional) adjusts each server before it starts serving.
func startStreamCluster(t *testing.T, nServers, chunk, window int, tune func(*Server)) (*testCluster, *Client) {
	t.Helper()
	tc := &testCluster{
		net: transport.NewMemNetwork(),
		env: transport.NewRealEnv(),
	}
	tc.meta = NewMetaServer(tc.net, "meta", nServers)
	go tc.meta.Serve(tc.env)
	for i := 0; i < nServers; i++ {
		addr := fmt.Sprintf("io%d", i)
		s := NewServer(tc.net, addr, i, CostModel{})
		s.StreamChunkBytes = chunk
		s.StreamWindow = window
		if tune != nil {
			tune(s)
		}
		tc.servers = append(tc.servers, s)
		tc.addrs = append(tc.addrs, addr)
		go s.Serve(tc.env)
	}
	t.Cleanup(func() {
		tc.meta.Close()
		for _, s := range tc.servers {
			s.Close()
		}
	})
	c := tc.client()
	c.StreamChunkBytes = chunk
	c.StreamWindow = window
	t.Cleanup(c.Close)
	for i := 0; i < 2000; i++ {
		if f, err := c.Create(tc.env, "__probe__", 64, 0); err == nil {
			if _, err := f.Size(tc.env); err == nil {
				c.Remove(tc.env, "__probe__")
				return tc, c
			}
		} else if f, err := c.Open(tc.env, "__probe__"); err == nil {
			// Created on an earlier retry; check the data servers again.
			if _, err := f.Size(tc.env); err == nil {
				c.Remove(tc.env, "__probe__")
				return tc, c
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cluster did not come up")
	return nil, nil
}

// patterned is n bytes repeating every 256: fine where placement is not
// under test; frameData is the non-periodic pattern.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func TestStreamSegmentBoundaries(t *testing.T) {
	const chunk = 1024
	// One server: the per-server payload equals the transfer size, so the
	// sizes below hit the exact segment boundaries of the stream protocol.
	sizes := []int{0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, 3*chunk + 17}
	for _, nServers := range []int{1, 3} {
		_, c := startStreamCluster(t, nServers, chunk, 2, nil)
		env := transport.NewRealEnv()
		for _, size := range sizes {
			name := fmt.Sprintf("s%d.dat", size)
			f, err := c.Create(env, name, 512, 0)
			if err != nil {
				t.Fatal(err)
			}
			data := frameData(size, size)
			if err := f.WriteContig(env, 13, data); err != nil {
				t.Fatalf("n=%d write: %v", size, err)
			}
			got := make([]byte, size)
			if err := f.ReadContig(env, 13, got); err != nil {
				t.Fatalf("n=%d read: %v", size, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("servers=%d n=%d: round trip corrupted", nServers, size)
			}
		}
	}
}

func TestStreamWindowOne(t *testing.T) {
	// A window of 1 forces a full stop-and-wait ack exchange per segment:
	// the strictest schedule for the credit protocol.
	_, c := startStreamCluster(t, 1, 256, 1, nil)
	env := transport.NewRealEnv()
	f, err := c.Create(env, "w1.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := frameData(256*32+5, 1)
	if err := f.WriteContig(env, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted")
	}
}

func TestStreamListAndDtype(t *testing.T) {
	const chunk = 1024
	_, c := startStreamCluster(t, 3, chunk, 2, nil)
	env := transport.NewRealEnv()

	// List I/O: two file regions whose per-server payloads span several
	// segments.
	f, err := c.Create(env, "l.dat", 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := frameData(20000, 2)
	fileRegions := []Region{{Off: 40, Len: 9000}, {Off: 30000, Len: 11000}}
	memRegions := []Region{{Off: 0, Len: 20000}}
	if err := f.WriteList(env, fileRegions, memRegions, mem); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(mem))
	if err := f.ReadList(env, fileRegions, memRegions, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mem) {
		t.Fatal("list round trip corrupted")
	}

	// Datatype I/O: strided file elements so each server's spans straddle
	// segment boundaries mid-piece.
	f2, err := c.Create(env, "d.dat", 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fileTy := datatype.Vector(2000, 1, 2, datatype.Int64) // 16000 data bytes over 32000
	fileLoop := dataloop.FromType(fileTy)
	memLoop := dataloop.FromType(datatype.Bytes(16000))
	dmem := frameData(16000, 3)
	acc := &DtypeAccess{Mem: dmem, MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop}
	if err := f2.WriteDtype(env, acc); err != nil {
		t.Fatal(err)
	}
	dgot := make([]byte, len(dmem))
	if err := f2.ReadDtype(env, &DtypeAccess{Mem: dgot, MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dgot, dmem) {
		t.Fatal("dtype round trip corrupted")
	}
}

// failCtl switches injected read failures on and off for every store of
// a server.
type failCtl struct {
	mu        sync.Mutex
	failAfter int64 // fail reads at offset >= failAfter; -1 = never
}

func (fc *failCtl) set(v int64) {
	fc.mu.Lock()
	fc.failAfter = v
	fc.mu.Unlock()
}

type flakyStore struct {
	storage.Store
	ctl *failCtl
}

func (fs *flakyStore) ReadAt(p []byte, off int64) error {
	fs.ctl.mu.Lock()
	fa := fs.ctl.failAfter
	fs.ctl.mu.Unlock()
	if fa >= 0 && off >= fa {
		return errors.New("injected storage failure")
	}
	return fs.Store.ReadAt(p, off)
}

func TestStreamReadErrorMidStream(t *testing.T) {
	// window > nseg: no acks flow, so the client deterministically reads
	// the terminal error chunk and surfaces the storage failure verbatim.
	// window < nseg: the server may close while a client ack is in
	// flight, so only a clean failure is guaranteed. Both must leave the
	// client able to recover by redialing.
	for _, tt := range []struct {
		window    int
		exactText bool
	}{{8, true}, {2, false}} {
		const chunk = 1024
		ctl := &failCtl{failAfter: -1}
		_, c := startStreamCluster(t, 1, chunk, tt.window, func(s *Server) {
			s.NewStore = func(uint64) storage.Store {
				return &flakyStore{Store: storage.NewMem(), ctl: ctl}
			}
		})
		env := transport.NewRealEnv()
		f, err := c.Create(env, "e.dat", 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		data := frameData(5*chunk, 4)
		if err := f.WriteContig(env, 0, data); err != nil {
			t.Fatal(err)
		}
		// Fail from segment 2 on: the first segments are already on the
		// wire when the server hits the fault, so the error is mid-stream.
		ctl.set(2 * chunk)
		got := make([]byte, len(data))
		err = f.ReadContig(env, 0, got)
		if err == nil {
			t.Fatalf("window=%d: mid-stream failure not surfaced", tt.window)
		}
		if tt.exactText && !strings.Contains(err.Error(), "injected storage failure") {
			t.Fatalf("window=%d: failure not surfaced verbatim: %v", tt.window, err)
		}
		// The client dropped the broken connection; the next operation
		// redials and succeeds.
		ctl.set(-1)
		if err := f.ReadContig(env, 0, got); err != nil {
			t.Fatalf("window=%d: read after redial: %v", tt.window, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("window=%d: data after redial corrupted", tt.window)
		}
	}
}

func TestStreamWriteRequestErrorKeepsConnUsable(t *testing.T) {
	// A request-level failure of a streamed write (payload exceeds the
	// request's regions) must drain the stream and answer with an error
	// IOResp on a connection that remains in protocol sync.
	tc, c := startStreamCluster(t, 1, 64*1024, 4, nil)
	env := tc.env
	f, err := c.Create(env, "x.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.conn(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	const seg, total = 1024, 3000
	inner := wire.EncodeContig(&wire.ContigReq{Layout: f.wireLayout(0, 0), Off: 0, N: 100}, true)
	hdr := wire.EncodeWriteStreamHdr(&wire.WriteStreamHdr{
		Total: total, SegBytes: seg, Window: 4, Inner: inner,
	})
	if err := conn.Send(env, hdr); err != nil {
		t.Fatal(err)
	}
	payload := patterned(total)
	for k := 0; k*seg < total; k++ {
		end := (k + 1) * seg
		if end > total {
			end = total
		}
		chunk := wire.EncodeStreamChunk(&wire.StreamChunk{Seq: uint32(k), Data: payload[k*seg : end]})
		if err := conn.Send(env, chunk); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := wire.DecodeMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	resp := v.(*wire.IOResp)
	if resp.OK || !strings.Contains(resp.Err, "excess write payload") {
		t.Fatalf("response %+v", resp)
	}
	// The same connection still serves requests, and the 100 bytes the
	// request covered were written before the failure was detected.
	chk := make([]byte, 100)
	if err := f.ReadContig(env, 0, chk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chk, payload[:100]) {
		t.Fatal("written prefix lost")
	}
}

func TestStreamBadHeaderClosesConn(t *testing.T) {
	// A stream header whose framing is self-contradictory (total fits one
	// segment) cannot be salvaged: the server closes the connection.
	tc, c := startStreamCluster(t, 1, 64*1024, 4, nil)
	env := tc.env
	f, err := c.Create(env, "y.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.conn(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := wire.EncodeContig(&wire.ContigReq{Layout: f.wireLayout(0, 0), Off: 0, N: 10}, true)
	hdr := wire.EncodeWriteStreamHdr(&wire.WriteStreamHdr{
		Total: 500, SegBytes: 1024, Window: 4, Inner: inner,
	})
	if err := conn.Send(env, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(env); err == nil {
		t.Fatal("connection survived a broken stream header")
	}
}

// TestServerReadHotPathAllocs locks in the pre-sized single-allocation
// response path: a noncontiguous dtype read of many pieces must not
// allocate per piece (the seed grew the response buffer per piece).
func TestServerReadHotPathAllocs(t *testing.T) {
	env := transport.NewRealEnv()
	s := NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
	fileTy := datatype.Vector(512, 1, 2, datatype.Int64) // 512 pieces
	loop := dataloop.FromType(fileTy)
	req := wire.EncodeDtype(&wire.DtypeReq{
		Layout: wire.FileLayout{Handle: 1, StripSize: 1 << 20, NServers: 1},
		Loop:   loop.Encode(nil),
		Count:  1, NBytes: 512 * 8,
	}, false)
	// Warm the object map and the loop cache.
	if resp, err := s.handle(env, nil, req); err != nil || resp == nil {
		t.Fatalf("warmup: resp=%v err=%v", resp, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		resp, err := s.handle(env, nil, req)
		if err != nil || resp == nil {
			t.Fatalf("resp=%v err=%v", resp, err)
		}
	})
	// Decode, iterator state, and the single response frame: a small
	// constant, far below one allocation per piece.
	if allocs > 32 {
		t.Fatalf("dtype read hot path allocates %.0f per request", allocs)
	}
}

// TestServerWriteHotPathAllocs is the write-side twin of the read
// bound: an inline noncontiguous dtype write of many pieces must stay
// within the same small constant — the scheduler, the payload source,
// and the staging buffer are all pooled. Its 512 runs of 8 B with 8 B
// holes take the sieved path: one dispatched op per request.
func TestServerWriteHotPathAllocs(t *testing.T) {
	env := transport.NewRealEnv()
	s := NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
	s.Stats = &iostats.Stats{}
	fileTy := datatype.Vector(512, 1, 2, datatype.Int64) // 512 pieces
	loop := dataloop.FromType(fileTy)
	req := wire.EncodeDtype(&wire.DtypeReq{
		Layout: wire.FileLayout{Handle: 1, StripSize: 1 << 20, NServers: 1},
		Loop:   loop.Encode(nil),
		Count:  1, NBytes: 512 * 8,
		Data: patterned(512 * 8),
	}, true)
	resp, err := s.handle(env, nil, req)
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if _, v, err := wire.DecodeMsg(resp); err != nil || !v.(*wire.IOResp).OK {
		t.Fatalf("warmup response not OK: %v %v", v, err)
	}
	calls := int64(1)
	allocs := testing.AllocsPerRun(50, func() {
		calls++
		resp, err := s.handle(env, nil, req)
		if err != nil || resp == nil {
			t.Fatalf("resp=%v err=%v", resp, err)
		}
	})
	if allocs > 32 {
		t.Fatalf("dtype write hot path allocates %.0f per request", allocs)
	}
	if st := s.Stats.Snapshot(); st.DiskOpsMerged != calls || st.DiskRMWOps != calls {
		t.Fatalf("%d requests dispatched %d ops (%d sieved), want one sieved op each",
			calls, st.DiskOpsMerged, st.DiskRMWOps)
	}
}

// BenchmarkDtypeServerWritePath measures the server-side cost of one
// cached-loop noncontiguous dtype write (run with -benchmem to see the
// per-request allocation count).
func BenchmarkDtypeServerWritePath(b *testing.B) {
	env := transport.NewRealEnv()
	s := NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
	fileTy := datatype.Vector(512, 1, 2, datatype.Int64)
	loop := dataloop.FromType(fileTy)
	req := wire.EncodeDtype(&wire.DtypeReq{
		Layout: wire.FileLayout{Handle: 1, StripSize: 1 << 20, NServers: 1},
		Loop:   loop.Encode(nil),
		Count:  1, NBytes: 512 * 8,
		Data: patterned(512 * 8),
	}, true)
	if _, err := s.handle(env, nil, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.handle(env, nil, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDtypeClientPack measures the client-side cost of packing one
// flash_write operation's payloads from compiled programs (run with
// -benchmem to see the per-operation allocation count).
func BenchmarkDtypeClientPack(b *testing.B) {
	w := flashPack()
	b.SetBytes(w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDtypeServerHotPath measures the server-side cost of one
// cached-loop noncontiguous dtype read (run with -benchmem to see the
// per-request allocation count).
func BenchmarkDtypeServerHotPath(b *testing.B) {
	env := transport.NewRealEnv()
	s := NewServer(transport.NewMemNetwork(), "x", 0, CostModel{})
	fileTy := datatype.Vector(512, 1, 2, datatype.Int64)
	loop := dataloop.FromType(fileTy)
	req := wire.EncodeDtype(&wire.DtypeReq{
		Layout: wire.FileLayout{Handle: 1, StripSize: 1 << 20, NServers: 1},
		Loop:   loop.Encode(nil),
		Count:  1, NBytes: 512 * 8,
	}, false)
	if _, err := s.handle(env, nil, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.handle(env, nil, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamTCPRoundTrip streams contig, list and dtype reads and
// writes over real TCP daemons with file-backed objects, from two
// clients at once, and checks every read against a flat reference image
// of the file. The strip equals the per-server payload, so each server
// moves exactly seg−1, seg, seg+1 or 4·seg+13 bytes: the inline path,
// the largest inline transfer, the smallest stream and a stream with a
// short last segment.
func TestStreamTCPRoundTrip(t *testing.T) {
	const seg = DefaultStreamChunkBytes
	c1, c2, _ := startTCPFileCluster(t, 2)
	sizes := []int{seg - 1, seg, seg + 1, 4*seg + 13}
	files := make([][]*File, 2)
	for who, c := range []*Client{c1, c2} {
		for _, size := range sizes {
			files[who] = append(files[who], createRetry(t, c, fmt.Sprintf("tcp-%d-%d.dat", who, size), int64(size), 2))
		}
	}
	run := func(who int) error {
		env := transport.NewRealEnv()
		for i, size := range sizes {
			n := 2 * size
			f := files[who][i]
			ref := make([]byte, n)
			check := func(op string, got []byte) error {
				if !bytes.Equal(got, ref) {
					return fmt.Errorf("client %d, %d B per server: %s read differs from the reference", who, size, op)
				}
				return nil
			}
			// Contig write of the whole image, read back whole.
			data := frameData(n, who*10+1)
			if err := f.WriteContig(env, 0, data); err != nil {
				return fmt.Errorf("contig write: %w", err)
			}
			copy(ref, data)
			got := make([]byte, n)
			if err := f.ReadContig(env, 0, got); err != nil {
				return fmt.Errorf("contig read: %w", err)
			}
			if err := check("contig", got); err != nil {
				return err
			}
			// List write and read, split at different points, with the
			// memory side in two pieces around a hole.
			data = frameData(n, who*10+2)
			mem := append(append(append([]byte{}, data[:size]...), 0, 0, 0), data[size:]...)
			memRegions := []Region{{Off: 0, Len: int64(size)}, {Off: int64(size) + 3, Len: int64(size)}}
			third := int64(size / 3)
			if err := f.WriteList(env, []Region{{Off: 0, Len: third}, {Off: third, Len: int64(n) - third}}, memRegions, mem); err != nil {
				return fmt.Errorf("list write: %w", err)
			}
			copy(ref, data)
			lmem := make([]byte, len(mem))
			if err := f.ReadList(env, []Region{{Off: 0, Len: int64(size) + 1}, {Off: int64(size) + 1, Len: int64(size) - 1}}, memRegions, lmem); err != nil {
				return fmt.Errorf("list read: %w", err)
			}
			got = append(append([]byte{}, lmem[:size]...), lmem[size+3:]...)
			if err := check("list", got); err != nil {
				return err
			}
			// Dtype write and read: the whole file, from memory strided
			// in two blocks 7 bytes apart.
			data = frameData(n, who*10+3)
			memLoop := dataloop.FromType(datatype.HVector(2, 1, int64(size)+7, datatype.Bytes(int64(size))))
			fileLoop := dataloop.FromType(datatype.Bytes(int64(n)))
			dmem := make([]byte, n+7)
			copy(dmem, data[:size])
			copy(dmem[size+7:], data[size:])
			if err := f.WriteDtype(env, &DtypeAccess{Mem: dmem, MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop}); err != nil {
				return fmt.Errorf("dtype write: %w", err)
			}
			copy(ref, data)
			dgot := make([]byte, n+7)
			if err := f.ReadDtype(env, &DtypeAccess{Mem: dgot, MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop}); err != nil {
				return fmt.Errorf("dtype read: %w", err)
			}
			got = append(append([]byte{}, dgot[:size]...), dgot[size+7:]...)
			if err := check("dtype", got); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	for who := range files {
		go func(who int) { errs <- run(who) }(who)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// frameData is n bytes of a pattern that differs per key and does not
// repeat at any power-of-two period, so a write that lands stale or
// misplaced bytes (a reused segment buffer, a shifted chunk) shows in
// the comparison.
func frameData(n, key int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((uint32(i)*2654435761 + uint32(key)*40503) >> 24)
	}
	return b
}
