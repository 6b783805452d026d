package pvfs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// TestTCPClusterEndToEnd runs a real TCP cluster on loopback and
// exercises every access interface through it.
func TestTCPClusterEndToEnd(t *testing.T) {
	net := transport.NewTCPNetwork()
	env := transport.NewRealEnv()
	const nServers = 3

	// Bind listeners on ephemeral ports first so addresses are known.
	metaL, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metaAddr, _ := transport.BoundAddr(metaL)
	metaL.Close()
	meta := NewMetaServer(net, metaAddr, nServers)
	go meta.Serve(env)
	defer meta.Close()

	var addrs []string
	var servers []*Server
	for i := 0; i < nServers; i++ {
		l, err := net.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := transport.BoundAddr(l)
		l.Close()
		s := NewServer(net, addr, i, CostModel{})
		servers = append(servers, s)
		addrs = append(addrs, addr)
		go s.Serve(env)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	c := NewClient(net, metaAddr, addrs, CostModel{})
	defer c.Close()
	var f *File
	for i := 0; i < 200; i++ {
		f, err = c.Create(env, "tcp.dat", 128, 0)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("create over TCP: %v", err)
	}

	// Contig across stripes.
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := f.WriteContig(env, 123, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadContig(env, 123, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP contig round trip corrupted")
	}

	// Datatype I/O over TCP.
	fileTy := datatype.Vector(50, 1, 3, datatype.Int32)
	mem := make([]byte, 200)
	for i := range mem {
		mem[i] = byte(i + 7)
	}
	a := &DtypeAccess{
		Mem: mem, MemLoop: dataloop.FromType(datatype.Bytes(200)), MemCount: 1,
		FileLoop: dataloop.FromType(fileTy), Disp: 20000,
	}
	if err := f.WriteDtype(env, a); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 200)
	a2 := *a
	a2.Mem = back
	if err := f.ReadDtype(env, &a2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, mem) {
		t.Fatal("TCP dtype round trip corrupted")
	}

	// List I/O over TCP.
	lr := []Region{{Off: 50000, Len: 64}, {Off: 51000, Len: 36}}
	mr := []Region{{Off: 0, Len: 100}}
	if err := f.WriteList(env, lr, mr, mem[:100]); err != nil {
		t.Fatal(err)
	}
	lg := make([]byte, 100)
	if err := f.ReadList(env, lr, mr, lg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lg, mem[:100]) {
		t.Fatal("TCP list round trip corrupted")
	}

	size, err := f.Size(env)
	if err != nil {
		t.Fatal(err)
	}
	if size != 51036 {
		t.Fatalf("size=%d", size)
	}
}

// TestServerGoneMidRun: killing a server makes client operations fail
// with errors, not hang.
func TestServerGoneMidRun(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, err := c.Create(env, "die.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	// Kill server 1 (its listener and, via closed conns, its handlers).
	tc.servers[1].Close()
	// The client's cached connection dies with the handler after the
	// server stops accepting; a fresh client cannot dial at all.
	c2 := tc.client()
	defer c2.Close()
	f2, err := c2.Open(env, "die.dat")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1000)
		done <- f2.ReadContig(env, 0, buf)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read succeeded with a dead server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read hung on dead server")
	}
}

// fakeIOFile creates a file striped over one I/O server that is a fake:
// it answers each request with the frame answer builds from the decoded
// request and its tag's sequence, so a test can hand the client replies
// no real server would send.
func fakeIOFile(t *testing.T, answer func(req any, seq uint64) []byte) (transport.Env, *File) {
	t.Helper()
	net := transport.NewMemNetwork()
	env := transport.NewRealEnv()
	lis, err := net.Listen("evil")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept(env)
			if err != nil {
				return
			}
			go func() {
				for {
					raw, err := conn.Recv(env)
					if err != nil {
						return
					}
					_, v, err := wire.DecodeMsg(raw)
					if err != nil {
						return
					}
					conn.Send(env, answer(v, tagOf(v).Seq))
				}
			}()
		}
	}()
	meta := NewMetaServer(net, "meta", 1)
	go meta.Serve(env)
	c := NewClient(net, "meta", []string{"evil"}, CostModel{})
	t.Cleanup(func() {
		c.Close()
		meta.Close()
		lis.Close()
	})
	var f *File
	for i := 0; i < 1000; i++ {
		f, err = c.Create(env, "x", 64, 0)
		if err == nil {
			return env, f
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(err)
	return nil, nil
}

// TestClientRejectsShortData: clients reject short server data.
func TestClientRejectsShortData(t *testing.T) {
	// Always respond OK with 1 byte, whatever was asked.
	env, f := fakeIOFile(t, func(_ any, seq uint64) []byte {
		return wire.EncodeIOResp(&wire.IOResp{Seq: seq, OK: true, Data: []byte{0}})
	})
	buf := make([]byte, 100)
	if err := f.ReadContig(env, 0, buf); err == nil {
		t.Fatal("short response accepted")
	}
}

// TestClientRejectsOverlongReply: a read fails when a server's reply
// holds more bytes than the access consumes, on every access path, and
// a stream header announcing other than what the server holds of the
// access fails the attempt before any byte lands.
func TestClientRejectsOverlongReply(t *testing.T) {
	// wantBytes is what the access asks of the one server.
	wantBytes := func(v any) int64 {
		switch r := v.(type) {
		case *wire.ContigReq:
			return r.N
		case *wire.ListIOReq:
			var n int64
			for _, reg := range r.Regions {
				n += reg.Len
			}
			return n
		case *wire.DtypeReq:
			return r.NBytes
		}
		return 0
	}
	mem := make([]byte, 48)
	reads := []struct {
		name string
		read func(env transport.Env, f *File) error
	}{
		{"contig", func(env transport.Env, f *File) error { return f.ReadContig(env, 8, mem) }},
		{"list", func(env transport.Env, f *File) error {
			return f.ReadList(env, []Region{{Off: 0, Len: 16}, {Off: 40, Len: 32}}, []Region{{Off: 0, Len: 48}}, mem)
		}},
		{"dtype", func(env transport.Env, f *File) error {
			return f.ReadDtype(env, &DtypeAccess{
				Mem: mem, MemLoop: dataloop.FromType(datatype.Bytes(48)), MemCount: 1,
				FileLoop: dataloop.FromType(datatype.Vector(6, 1, 2, datatype.Int64)),
			})
		}},
	}
	for _, rd := range reads {
		t.Run("trailing-byte/"+rd.name, func(t *testing.T) {
			env, f := fakeIOFile(t, func(v any, seq uint64) []byte {
				return wire.EncodeIOResp(&wire.IOResp{Seq: seq, OK: true, Data: make([]byte, wantBytes(v)+1)})
			})
			if err := rd.read(env, f); err == nil {
				t.Fatal("reply one byte longer than the access was accepted")
			}
		})
		t.Run("huge-stream/"+rd.name, func(t *testing.T) {
			env, f := fakeIOFile(t, func(_ any, seq uint64) []byte {
				return wire.EncodeReadStreamHdr(&wire.ReadStreamHdr{Seq: seq, Total: 1 << 62, SegBytes: 4096, Window: 4})
			})
			if err := rd.read(env, f); err == nil {
				t.Fatal("stream header announcing 1<<62 bytes was accepted")
			}
		})
		t.Run("inexact-stream/"+rd.name, func(t *testing.T) {
			// A header one byte short of what the server holds is
			// refused before any chunk is read into memory.
			env, f := fakeIOFile(t, func(v any, seq uint64) []byte {
				return wire.EncodeReadStreamHdr(&wire.ReadStreamHdr{Seq: seq, Total: wantBytes(v) - 1, SegBytes: 4, Window: 4})
			})
			clear(mem)
			err := rd.read(env, f)
			if err == nil || !strings.Contains(err.Error(), "bad stream header") {
				t.Fatalf("stream header one byte short: err = %v", err)
			}
			if !bytes.Equal(mem, make([]byte, len(mem))) {
				t.Fatal("memory written before the header was checked")
			}
		})
	}
}

func TestDataloopCache(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, err := c.Create(env, "cache.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 64)
	a := &DtypeAccess{
		Mem: mem, MemLoop: dataloop.FromType(datatype.Bytes(64)), MemCount: 1,
		FileLoop: dataloop.FromType(datatype.Vector(16, 1, 2, datatype.Int32)),
	}
	for i := 0; i < 5; i++ {
		if err := f.WriteDtype(env, a); err != nil {
			t.Fatal(err)
		}
	}
	cs := tc.servers[0].LoopCacheStats()
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("hits=%d misses=%d, want 4/1", cs.Hits, cs.Misses)
	}
	// Cached programs replay on the compiled path.
	if tc.servers[0].CompiledReplays() == 0 {
		t.Fatal("no compiled replays recorded for a cached regular view")
	}
	// Disabled cache decodes every time.
	tc.servers[0].DisableLoopCache = true
	for i := 0; i < 3; i++ {
		if err := f.ReadDtype(env, a); err != nil {
			t.Fatal(err)
		}
	}
	c2 := tc.servers[0].LoopCacheStats()
	if c2.Hits != cs.Hits || c2.Misses != cs.Misses {
		t.Fatalf("disabled cache still updated: %d/%d", c2.Hits, c2.Misses)
	}
}
