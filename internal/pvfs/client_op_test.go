package pvfs

import (
	"fmt"
	"strings"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/iostats"
	"dtio/internal/trace"
	"dtio/internal/transport"
)

// TestCacheSpanParenting: every server request span parents to the
// client op span that sent it, also when the cache issues requests of
// its own inside a call — a small ReadContig miss fills its chunk with a
// read-contig op, and a large WriteContig over a dirty chunk first
// flushes it as a write-list op — and a request issued after those
// calls carries no parent at all.
func TestCacheSpanParenting(t *testing.T) {
	tr := trace.New()
	tc, _ := startStreamCluster(t, 2, 64<<10, 4, func(s *Server) { s.Tracer = tr })
	c := tc.cachedClient(1<<20, 64)
	defer c.Close()
	c.Tracer = tr
	c.TraceTrack = "rank0"
	env := tc.env
	f, err := c.Create(env, "spans.dat", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReadContig(env, 0, make([]byte, 10)); err != nil { // miss: fills [0,64)
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 100, patterned(10)); err != nil { // dirties [64,128)
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 64, patterned(200)); err != nil { // flushes, then writes
		t.Fatal(err)
	}
	if _, err := f.Size(env); err != nil { // no op span of its own
		t.Fatal(err)
	}
	if st := c.Stats.Snapshot(); st.CacheMisses != 1 || st.FlushOps != 1 {
		t.Fatalf("cache misses=%d flushes=%d, want one fill and one flush", st.CacheMisses, st.FlushOps)
	}

	opOf := map[string]string{
		"readcontig":  "read-contig",
		"writecontig": "write-contig",
		"writelist":   "write-list",
	}
	byID := map[trace.SpanID]*trace.Span{}
	for _, sp := range tr.Spans() {
		byID[sp.ID] = sp
	}
	seen := map[string]int{}
	for _, sp := range tr.Spans() {
		if !strings.HasPrefix(sp.Track, "io-server-") {
			continue
		}
		if sp.Name == "localsize" {
			if sp.Parent != 0 {
				t.Fatalf("localsize request carries stale parent %q", byID[sp.Parent].Name)
			}
			seen[sp.Name]++
			continue
		}
		want, ok := opOf[sp.Name]
		if !ok {
			continue
		}
		p := byID[sp.Parent]
		if p == nil || p.Track != "rank0" || p.Name != want {
			t.Fatalf("server %s span parents to %+v, want the client %s op", sp.Name, p, want)
		}
		seen[sp.Name]++
	}
	for _, name := range []string{"readcontig", "writelist", "writecontig", "localsize"} {
		if seen[name] == 0 {
			t.Fatalf("no %s server span recorded (saw %v)", name, seen)
		}
	}
}

// acct is one step's client iostats delta: the counters File.do and the
// cache record per data operation.
type acct struct {
	ops, accessed, regions, msgs, reqBytes, fanout, hits, misses, flushes, flushBytes int64
}

func acctOf(a, b iostats.Snapshot) acct {
	return acct{
		ops:        b.IOOps - a.IOOps,
		accessed:   b.AccessedBytes - a.AccessedBytes,
		regions:    b.Regions - a.Regions,
		msgs:       b.WireMsgs - a.WireMsgs,
		reqBytes:   b.ReqBytes - a.ReqBytes,
		fanout:     b.FanoutWrites - a.FanoutWrites,
		hits:       b.CacheHits - a.CacheHits,
		misses:     b.CacheMisses - a.CacheMisses,
		flushes:    b.FlushOps - a.FlushOps,
		flushBytes: b.FlushBytes - a.FlushBytes,
	}
}

// TestClientAccountingTable pins the client counters each entry point
// records, with the extent cache off and on (64 B chunks) and replica
// groups of one and two, on a file of 2 servers with a 20 B strip. The
// literals were captured before the entry points were lowered onto one
// plan, so any accounting the lowering moves shows here.
func TestClientAccountingTable(t *testing.T) {
	fileLoop := dataloop.FromType(datatype.Vector(6, 1, 2, datatype.Int64)) // 48 B over 88 B
	memLoop := dataloop.FromType(datatype.Vector(12, 1, 2, datatype.Int32)) // 48 B over 92 B
	listFile := []Region{{Off: 10, Len: 15}, {Off: 90, Len: 25}, {Off: 150, Len: 30}}
	listMem := []Region{{Off: 0, Len: 40}, {Off: 60, Len: 30}}
	mem := make([]byte, 256)
	steps := []struct {
		name string
		run  func(env transport.Env, f *File) error
	}{
		{"write-contig", func(env transport.Env, f *File) error { return f.WriteContig(env, 0, patterned(200)) }},
		{"read-contig", func(env transport.Env, f *File) error { return f.ReadContig(env, 0, mem[:200]) }},
		{"write-contig-small", func(env transport.Env, f *File) error { return f.WriteContig(env, 5, patterned(30)) }},
		{"read-contig-small", func(env transport.Env, f *File) error { return f.ReadContig(env, 70, mem[:30]) }},
		{"write-list", func(env transport.Env, f *File) error { return f.WriteList(env, listFile, listMem, patterned(90)) }},
		{"read-list", func(env transport.Env, f *File) error { return f.ReadList(env, listFile, listMem, mem) }},
		{"write-dtype", func(env transport.Env, f *File) error {
			return f.WriteDtype(env, &DtypeAccess{Mem: patterned(92), MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop, Disp: 30})
		}},
		{"read-dtype", func(env transport.Env, f *File) error {
			return f.ReadDtype(env, &DtypeAccess{Mem: mem[:92], MemLoop: memLoop, MemCount: 1, FileLoop: fileLoop, Disp: 30})
		}},
		{"read-contig-small-again", func(env transport.Env, f *File) error { return f.ReadContig(env, 40, mem[:10]) }},
		{"write-contig-small-again", func(env transport.Env, f *File) error { return f.WriteContig(env, 130, patterned(20)) }},
		{"sync", func(env transport.Env, f *File) error { return f.Sync(env) }},
	}
	// Columns: ops, accessed, regions, msgs, reqBytes, fanout, hits,
	// misses, flushes, flushBytes; rows follow steps.
	want := map[string][]acct{
		"k1/cache=false": {
			{1, 200, 0, 2, 162, 0, 0, 0, 0, 0},
			{1, 200, 0, 2, 154, 0, 0, 0, 0, 0},
			{1, 30, 0, 2, 162, 0, 0, 0, 0, 0},
			{1, 30, 0, 2, 154, 0, 0, 0, 0, 0},
			{1, 70, 6, 2, 234, 0, 0, 0, 0, 0},
			{1, 70, 6, 2, 226, 0, 0, 0, 0, 0},
			{1, 48, 14, 2, 320, 0, 0, 0, 0, 0},
			{1, 48, 14, 2, 312, 0, 0, 0, 0, 0},
			{1, 10, 0, 1, 77, 0, 0, 0, 0, 0},
			{1, 20, 0, 2, 162, 0, 0, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		},
		"k1/cache=true": {
			{1, 200, 0, 2, 162, 0, 0, 0, 0, 0},
			{1, 200, 0, 2, 154, 0, 0, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
			{1, 64, 0, 2, 154, 0, 0, 1, 0, 0},
			{2, 100, 8, 4, 404, 0, 0, 0, 1, 30},
			{1, 70, 6, 2, 226, 0, 0, 0, 0, 0},
			{1, 48, 14, 2, 320, 0, 0, 0, 0, 0},
			{1, 48, 14, 2, 312, 0, 0, 0, 0, 0},
			{1, 64, 0, 2, 154, 0, 0, 1, 0, 0},
			{0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
			{1, 20, 2, 2, 170, 0, 0, 0, 1, 20},
		},
		"k2/cache=false": {
			{1, 200, 0, 4, 324, 2, 0, 0, 0, 0},
			{1, 200, 0, 2, 154, 0, 0, 0, 0, 0},
			{1, 30, 0, 4, 324, 2, 0, 0, 0, 0},
			{1, 30, 0, 2, 154, 0, 0, 0, 0, 0},
			{1, 70, 6, 4, 468, 2, 0, 0, 0, 0},
			{1, 70, 6, 2, 226, 0, 0, 0, 0, 0},
			{1, 48, 14, 4, 640, 2, 0, 0, 0, 0},
			{1, 48, 14, 2, 312, 0, 0, 0, 0, 0},
			{1, 10, 0, 1, 77, 0, 0, 0, 0, 0},
			{1, 20, 0, 4, 324, 2, 0, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		},
		"k2/cache=true": {
			{1, 200, 0, 4, 324, 2, 0, 0, 0, 0},
			{1, 200, 0, 2, 154, 0, 0, 0, 0, 0},
			{0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
			{1, 64, 0, 2, 154, 0, 0, 1, 0, 0},
			{2, 100, 8, 8, 808, 4, 0, 0, 1, 30},
			{1, 70, 6, 2, 226, 0, 0, 0, 0, 0},
			{1, 48, 14, 4, 640, 2, 0, 0, 0, 0},
			{1, 48, 14, 2, 312, 0, 0, 0, 0, 0},
			{1, 64, 0, 2, 154, 0, 0, 1, 0, 0},
			{0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
			{1, 20, 2, 4, 340, 2, 0, 0, 1, 20},
		},
	}
	for _, k := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			cfg := fmt.Sprintf("k%d/cache=%v", k, cached)
			t.Run(cfg, func(t *testing.T) {
				rc := startReplicatedCluster(t, 2, k)
				c := rc.client()
				defer c.Close()
				if cached {
					c.CacheBytes, c.CacheChunkBytes = 1<<20, 64
				}
				f, err := c.Create(rc.env, "acct.dat", 20, 0)
				if err != nil {
					t.Fatal(err)
				}
				rows := want[cfg]
				for i, st := range steps {
					before := c.Stats.Snapshot()
					if err := st.run(rc.env, f); err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					got := acctOf(before, c.Stats.Snapshot())
					if i >= len(rows) || got != rows[i] {
						t.Errorf("%s: got %#v", st.name, got)
					}
				}
			})
		}
	}
}
