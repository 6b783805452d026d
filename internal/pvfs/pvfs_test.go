package pvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/iostats"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// testCluster is an in-process cluster on the Mem network.
type testCluster struct {
	net     *transport.MemNetwork
	env     transport.Env
	meta    *MetaServer
	servers []*Server
	addrs   []string
}

func startCluster(t *testing.T, nServers int) *testCluster {
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
	// Wait for ALL listeners (metadata and every I/O server): a stat
	// touches each server, so success means the cluster is fully up.
	c := NewClient(tc.net, "meta", tc.addrs, CostModel{})
	defer c.Close()
	for i := 0; i < 2000; i++ {
		if f, err := c.Create(tc.env, "__probe__", 64, 0); err == nil {
			if _, err := f.Size(tc.env); err == nil {
				c.Remove(tc.env, "__probe__")
				return tc
			}
		} else if _, err := c.Open(tc.env, "__probe__"); err == nil {
			// Created on an earlier retry; check the data servers again.
			f, _ := c.Open(tc.env, "__probe__")
			if _, err := f.Size(tc.env); err == nil {
				c.Remove(tc.env, "__probe__")
				return tc
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cluster did not come up")
	return nil
}

func (tc *testCluster) client() *Client {
	return NewClient(tc.net, "meta", tc.addrs, CostModel{})
}

// selfOverlaps reports whether any two data regions of one instance of
// the type overlap.
func selfOverlaps(ty *datatype.Type) bool {
	regions := ty.Flatten(0, 1)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Off < regions[j].Off })
	for i := 1; i < len(regions); i++ {
		if regions[i].Off < regions[i-1].Off+regions[i-1].Len {
			return true
		}
	}
	return false
}

func TestCreateOpenRemove(t *testing.T) {
	tc := startCluster(t, 4)
	c := tc.client()
	defer c.Close()
	env := tc.env

	f, err := c.Create(env, "a.dat", 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Layout().NServers != 4 || f.Layout().StripSize != 1024 {
		t.Fatalf("layout %+v", f.Layout())
	}
	if _, err := c.Create(env, "a.dat", 1024, 0); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := c.Open(env, "missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	names, err := c.ListNames(env)
	if err != nil || len(names) != 1 || names[0] != "a.dat" {
		t.Fatalf("names=%v err=%v", names, err)
	}
	if err := c.Remove(env, "a.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(env, "a.dat"); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

func TestCreateValidation(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	if _, err := c.Create(tc.env, "", 1024, 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Create(tc.env, "x", 0, 0); err == nil {
		t.Fatal("zero strip accepted")
	}
}

func TestContigRoundTripAcrossStripes(t *testing.T) {
	tc := startCluster(t, 4)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, err := c.Create(env, "c.dat", 128, 0) // small strips force splitting
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := f.WriteContig(env, 77, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadContig(env, 77, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contig round trip corrupted")
	}
	// Holes read zero.
	hole := make([]byte, 77)
	if err := f.ReadContig(env, 0, hole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 77)) {
		t.Fatal("hole not zero")
	}
	// Size.
	size, err := f.Size(env)
	if err != nil {
		t.Fatal(err)
	}
	if size != 77+5000 {
		t.Fatalf("size=%d", size)
	}
}

func TestTruncate(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "t.dat", 100, 0)
	f.WriteContig(env, 0, make([]byte, 1000))
	if err := f.Truncate(env, 250); err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size(env)
	if size != 250 {
		t.Fatalf("size=%d", size)
	}
}

func TestListIORoundTrip(t *testing.T) {
	tc := startCluster(t, 4)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "l.dat", 64, 0)

	mem := []byte("AABBCCDDEEFF")
	fileRegions := []Region{{Off: 10, Len: 4}, {Off: 100, Len: 2}, {Off: 300, Len: 6}}
	memRegions := []Region{{Off: 0, Len: 6}, {Off: 6, Len: 6}}
	if err := f.WriteList(env, fileRegions, memRegions, mem); err != nil {
		t.Fatal(err)
	}
	// Read back with a different split of memory regions.
	got := make([]byte, 12)
	memRegions2 := []Region{{Off: 0, Len: 3}, {Off: 3, Len: 3}, {Off: 6, Len: 6}}
	if err := f.ReadList(env, fileRegions, memRegions2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mem) {
		t.Fatalf("got %q want %q", got, mem)
	}
	// Cross-check against contig reads.
	chk := make([]byte, 4)
	f.ReadContig(env, 10, chk)
	if string(chk) != "AABB" {
		t.Fatalf("file[10:14]=%q", chk)
	}
}

func TestListIOValidation(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "v.dat", 64, 0)
	mem := make([]byte, 10)
	// Mismatched byte counts.
	err := f.WriteList(env, []Region{{Off: 0, Len: 4}}, []Region{{Off: 0, Len: 5}}, mem)
	if err == nil {
		t.Fatal("mismatched lists accepted")
	}
	// Memory region outside the buffer.
	err = f.ReadList(env, []Region{{Off: 0, Len: 4}}, []Region{{Off: 8, Len: 4}}, mem)
	if err == nil {
		t.Fatal("out-of-buffer memory region accepted")
	}
}

// TestListIOAutoSplit: calls beyond the per-request protocol bound are
// split into multiple requests transparently and stay byte-correct.
func TestListIOAutoSplit(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "big.dat", 64, 0)
	n := MaxListRegions + 10
	many := make([]Region, n)
	mem := make([]byte, n)
	for i := range many {
		many[i] = Region{Off: int64(i * 3), Len: 1} // every 3rd byte
		mem[i] = byte(i%251 + 1)
	}
	memR := []Region{{Off: 0, Len: int64(n)}}
	if err := f.WriteList(env, many, memR, mem); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := f.ReadList(env, many, memR, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mem) {
		t.Fatal("auto-split list round trip corrupted data")
	}
	// Spot-check placement and the holes with a contig read.
	chk := make([]byte, 7)
	if err := f.ReadContig(env, 0, chk); err != nil {
		t.Fatal(err)
	}
	want := []byte{mem[0], 0, 0, mem[1], 0, 0, mem[2]}
	if !bytes.Equal(chk, want) {
		t.Fatalf("file[0:7]=%v want %v", chk, want)
	}
}

func TestDtypeRoundTripVector(t *testing.T) {
	tc := startCluster(t, 4)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "d.dat", 64, 0)

	// File: every other 4-byte element of a 50-element grid;
	// memory: contiguous.
	fileTy := datatype.Vector(25, 1, 2, datatype.Int32)
	fileLoop := dataloop.FromType(fileTy)
	memLoop := dataloop.FromType(datatype.Bytes(100))
	mem := make([]byte, 100)
	for i := range mem {
		mem[i] = byte(i + 1)
	}
	err := f.WriteDtype(env, &DtypeAccess{
		Mem: mem, MemLoop: memLoop, MemCount: 1,
		FileLoop: fileLoop, Disp: 8, Pos: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	err = f.ReadDtype(env, &DtypeAccess{
		Mem: got, MemLoop: memLoop, MemCount: 1,
		FileLoop: fileLoop, Disp: 8, Pos: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mem) {
		t.Fatal("dtype round trip corrupted")
	}
	// Verify placement with a contig read: element k at 8 + k*8.
	chk := make([]byte, 4)
	f.ReadContig(env, 8+3*8, chk)
	if !bytes.Equal(chk, mem[12:16]) {
		t.Fatalf("element 3 misplaced: %v vs %v", chk, mem[12:16])
	}
	// The gap elements are zero.
	f.ReadContig(env, 8+4, chk)
	if !bytes.Equal(chk, make([]byte, 4)) {
		t.Fatal("gap written")
	}
}

func TestDtypeNoncontigBothSides(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "d2.dat", 32, 0)

	// Memory: 10 elements of 8 bytes spaced 16 (stride gaps).
	memTy := datatype.Vector(10, 1, 2, datatype.Int64)
	memLoop := dataloop.FromType(memTy)
	mem := make([]byte, memTy.TrueExtent())
	for i := range mem {
		mem[i] = byte(200 - i)
	}
	// File: 4 blocks of 20 bytes at scattered displacements.
	fileTy := datatype.HIndexed([]int64{1, 1, 1, 1}, []int64{100, 0, 400, 220}, datatype.Bytes(20))
	fileLoop := dataloop.FromType(fileTy)

	err := f.WriteDtype(env, &DtypeAccess{
		Mem: mem, MemLoop: memLoop, MemCount: 1,
		FileLoop: fileLoop, Disp: 0, Pos: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(mem))
	err = f.ReadDtype(env, &DtypeAccess{
		Mem: got, MemLoop: memLoop, MemCount: 1,
		FileLoop: fileLoop, Disp: 0, Pos: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare only the data bytes (gaps in got stay zero).
	memTy.Walk(0, func(off, n int64) bool {
		if !bytes.Equal(got[off:off+n], mem[off:off+n]) {
			t.Fatalf("data bytes differ at %d", off)
		}
		return true
	})
}

func TestDtypePosWindow(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "w.dat", 64, 0)

	// File view: contiguous; write the full file then read a window via
	// Pos into the tiled view.
	full := make([]byte, 256)
	for i := range full {
		full[i] = byte(i)
	}
	f.WriteContig(env, 0, full)
	tile := dataloop.FromType(datatype.Bytes(64)) // view tiles of 64
	got := make([]byte, 100)
	err := f.ReadDtype(env, &DtypeAccess{
		Mem: got, MemLoop: dataloop.FromType(datatype.Bytes(100)), MemCount: 1,
		FileLoop: tile, Disp: 0, Pos: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full[50:150]) {
		t.Fatal("windowed dtype read wrong")
	}
}

func TestCrossMethodEquivalence(t *testing.T) {
	// Data written with datatype I/O reads back identically via contig,
	// list, and datatype paths.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		tc := startCluster(t, 1+rr.Intn(5))
		c := tc.client()
		defer c.Close()
		env := tc.env
		file, err := c.Create(env, "x.dat", int64(16+rr.Intn(100)), 0)
		if err != nil {
			return false
		}

		fileTy := datatype.RandomType(rr, 1+rr.Intn(2))
		if fileTy.TrueLB() < 0 || selfOverlaps(fileTy) {
			// Overlapping writes are undefined (as in MPI); skip.
			return true
		}
		n := fileTy.Size()
		mem := make([]byte, n)
		rr.Read(mem)
		memLoop := dataloop.FromType(datatype.Bytes(n))
		err = file.WriteDtype(env, &DtypeAccess{
			Mem: mem, MemLoop: memLoop, MemCount: 1,
			FileLoop: dataloop.FromType(fileTy), Disp: 0, Pos: 0,
		})
		if err != nil {
			t.Logf("write: %v", err)
			return false
		}
		// Read back via dtype.
		got := make([]byte, n)
		err = file.ReadDtype(env, &DtypeAccess{
			Mem: got, MemLoop: memLoop, MemCount: 1,
			FileLoop: dataloop.FromType(fileTy), Disp: 0, Pos: 0,
		})
		if err != nil || !bytes.Equal(got, mem) {
			t.Logf("dtype read mismatch: %v", err)
			return false
		}
		// Read back via list I/O (chunking to 64 regions).
		regions := fileTy.Flatten(0, 1)
		var listGot []byte
		for start := 0; start < len(regions); start += 64 {
			end := start + 64
			if end > len(regions) {
				end = len(regions)
			}
			chunk := regions[start:end]
			var cn int64
			for _, r := range chunk {
				cn += r.Len
			}
			buf := make([]byte, cn)
			if err := file.ReadList(env, chunk, []Region{{Off: 0, Len: cn}}, buf); err != nil {
				t.Logf("list read: %v", err)
				return false
			}
			listGot = append(listGot, buf...)
		}
		if !bytes.Equal(listGot, mem) {
			t.Log("list read mismatch")
			return false
		}
		// Read back via per-region contig.
		var contigGot []byte
		for _, r := range regions {
			buf := make([]byte, r.Len)
			if err := file.ReadContig(env, r.Off, buf); err != nil {
				return false
			}
			contigGot = append(contigGot, buf...)
		}
		return bytes.Equal(contigGot, mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	tc := startCluster(t, 4)
	c := tc.client()
	defer c.Close()
	var stats iostats.Stats
	c.Stats = &stats
	env := tc.env
	f, _ := c.Create(env, "s.dat", 64, 0)
	f.WriteContig(env, 0, make([]byte, 1000))
	snap := stats.Snapshot()
	if snap.IOOps != 1 {
		t.Fatalf("ops=%d", snap.IOOps)
	}
	if snap.AccessedBytes != 1000 {
		t.Fatalf("accessed=%d", snap.AccessedBytes)
	}
	// 1000 bytes over 64-byte strips on 4 servers: all 4 involved.
	if snap.WireMsgs != 4 {
		t.Fatalf("wire=%d", snap.WireMsgs)
	}
}

func TestServerRejectsMisroutedRequest(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, _ := c.Create(env, "m.dat", 64, 0)
	// Hand-craft a request with the wrong server index.
	conn, err := c.conn(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.EncodeContig(&wire.ContigReq{Layout: f.wireLayout(0, 0), Off: 0, N: 10}, false)
	conn.Send(env, req)
	raw, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	_, v, _ := wire.DecodeMsg(raw)
	if v.(*wire.IOResp).OK {
		t.Fatal("misrouted request accepted")
	}
}

func TestServerRejectsGarbageFrame(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.client()
	defer c.Close()
	env := tc.env
	conn, err := c.conn(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(env, []byte{0xde, 0xad})
	raw, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := wire.DecodeMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*wire.IOResp).OK {
		t.Fatal("garbage accepted")
	}
}
