package pvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dtio/internal/iostats"
	"dtio/internal/storage"
	"dtio/internal/transport"
)

func testSched(write bool, gap int64, st *iostats.Stats) *diskSched {
	return &diskSched{
		cost:  DefaultCostModel(),
		stats: st,
		write: write,
		gap:   gap,
	}
}

// opsOf extracts the (off, n) of each dispatched op of a plan.
func opsOf(d *diskSched, p segPlan) [][2]int64 {
	var out [][2]int64
	for _, op := range d.ops[p.opsFrom:p.opsTo] {
		out = append(out, [2]int64{op.off, op.n})
	}
	return out
}

func TestPlanBatchElevatorOrderAndAdjacentMerge(t *testing.T) {
	d := testSched(true, 0, nil)
	// Arrival order deliberately scrambled; runs at 100..200, 300..350,
	// 200..300 are adjacent once sorted.
	d.add(300, 50, 0, nil)
	d.add(100, 100, 0, nil)
	d.add(200, 100, 0, nil)
	p := d.planBatch(d.spans)
	want := [][2]int64{{100, 250}}
	if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

// TestPlanBatchWriteGapDoesNotMerge checks that the read gap threshold
// never widens a write: without write sieving, a hole between two write
// runs keeps them apart.
func TestPlanBatchWriteGapDoesNotMerge(t *testing.T) {
	d := testSched(true, 64*1024, nil)
	d.add(0, 100, 0, nil)
	d.add(200, 100, 0, nil) // 100-byte hole: writes must not over-write it
	p := d.planBatch(d.spans)
	want := [][2]int64{{0, 100}, {200, 100}}
	if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

func TestPlanBatchOverlappingWritesKeepArrivalOrder(t *testing.T) {
	d := testSched(true, 0, nil)
	// Two runs touching byte 150: last writer (arrival order) must win,
	// so the batch may not be reordered or merged.
	d.add(150, 100, 0, nil)
	d.add(100, 100, 0, nil)
	p := d.planBatch(d.spans)
	want := [][2]int64{{150, 100}, {100, 100}}
	if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ops = %v, want %v (arrival order)", got, want)
	}
}

func TestPlanBatchReadGapMerge(t *testing.T) {
	for _, tc := range []struct {
		gap  int64
		want [][2]int64
	}{
		// Threshold covers the 1000- and 900-byte holes: one op
		// over-reads them all.
		{1024, [][2]int64{{0, 2200}}},
		// Threshold below the holes: three ops.
		{512, [][2]int64{{0, 100}, {1100, 100}, {2100, 100}}},
		// Adjacency only.
		{0, [][2]int64{{0, 100}, {1100, 100}, {2100, 100}}},
	} {
		d := testSched(false, tc.gap, nil)
		d.add(2100, 100, 200, nil)
		d.add(0, 100, 0, nil)
		d.add(1100, 100, 100, nil)
		p := d.planBatch(d.spans)
		if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("gap=%d: ops = %v, want %v", tc.gap, got, tc.want)
		}
	}
}

func TestPlanBatchOverlappingReadsMerge(t *testing.T) {
	d := testSched(false, 0, nil)
	d.add(0, 100, 0, nil)
	d.add(50, 100, 100, nil) // overlaps the first run
	p := d.planBatch(d.spans)
	want := [][2]int64{{0, 150}}
	if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

func TestSchedDropsZeroLengthRuns(t *testing.T) {
	var st iostats.Stats
	d := testSched(false, 0, &st)
	d.add(0, 0, 0, nil)
	d.add(500, 0, 0, nil)
	if len(d.spans) != 0 {
		t.Fatalf("zero-length runs were recorded: %v", d.spans)
	}
	env := transport.NewRealEnv()
	if err := d.flushWrites(env, nil); err != nil {
		t.Fatal(err)
	}
	if s := st.Snapshot(); s.DiskOps != 0 || s.DiskOpsMerged != 0 {
		t.Fatalf("zero-byte request charged the disk: %+v", s)
	}
}

func TestChargeContinuationAndSeek(t *testing.T) {
	var st iostats.Stats
	d := testSched(false, 0, &st)
	cm := d.cost

	// Batch 1: one op at [0, 100).
	d.add(0, 100, 0, nil)
	p1 := d.planBatch(d.spans)
	if want := cm.DiskPerOp + cm.diskXfer(100, false); p1.cost != want {
		t.Fatalf("first op cost = %v, want %v", p1.cost, want)
	}
	d.spans = d.spans[:0]

	// Batch 2 continues exactly at the head: no positioning charge, not
	// counted as a new dispatched op.
	d.add(100, 50, 100, nil)
	p2 := d.planBatch(d.spans)
	if want := cm.diskXfer(50, false); p2.cost != want {
		t.Fatalf("continuation cost = %v, want %v (transfer only)", p2.cost, want)
	}
	d.spans = d.spans[:0]

	// Batch 3 jumps 1 MiB: per-op charge plus one DiskSeekPerMB.
	d.add(150+1<<20, 10, 150, nil)
	p3 := d.planBatch(d.spans)
	if want := cm.DiskPerOp + cm.diskSeek(1<<20) + cm.diskXfer(10, false); p3.cost != want {
		t.Fatalf("seek cost = %v, want %v", p3.cost, want)
	}
	if cm.diskSeek(1<<20) != cm.DiskSeekPerMB {
		t.Fatalf("diskSeek(1MiB) = %v, want %v", cm.diskSeek(1<<20), cm.DiskSeekPerMB)
	}

	s := st.Snapshot()
	if s.DiskOps != 3 || s.DiskOpsMerged != 2 {
		t.Fatalf("ops in/out = %d/%d, want 3/2 (continuation is free)", s.DiskOps, s.DiskOpsMerged)
	}
	if s.SeekBytes != 1<<20 {
		t.Fatalf("seek bytes = %d, want %d", s.SeekBytes, int64(1)<<20)
	}
}

func TestChargeSeekCap(t *testing.T) {
	cm := DefaultCostModel()
	if got := cm.diskSeek(100 << 20); got != cm.DiskSeekMax {
		t.Fatalf("diskSeek(100MiB) = %v, want cap %v", got, cm.DiskSeekMax)
	}
}

func TestPlanStreamSplitsAtSegmentBoundaries(t *testing.T) {
	var st iostats.Stats
	d := testSched(false, 0, &st)
	// 250 payload bytes in two runs, segment size 100: the first run
	// straddles the first boundary, the second starts mid-segment.
	d.add(1000, 150, 0, nil)
	d.add(5000, 100, 150, nil)
	segs := d.planStream(250, 100)
	if len(segs) != 3 {
		t.Fatalf("got %d segment plans, want 3", len(segs))
	}
	want := [][][2]int64{
		{{1000, 100}},
		{{1100, 50}, {5000, 50}},
		{{5050, 50}},
	}
	for k, p := range segs {
		if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint(want[k]) {
			t.Fatalf("segment %d ops = %v, want %v", k, got, want[k])
		}
	}
	// Segment boundaries split the runs into 4 sub-runs, but only two
	// operations pay a positioning charge (offsets 1000 and 5000): the
	// head carries across batches, so the boundary splits continue free.
	if s := st.Snapshot(); s.DiskOps != 4 || s.DiskOpsMerged != 2 {
		t.Fatalf("ops in/out = %d/%d, want 4/2", s.DiskOps, s.DiskOpsMerged)
	}
	// Segment 2 is a pure continuation of segment 1's last op.
	if want := d.cost.diskXfer(50, false); d.segs[2].cost != want {
		t.Fatalf("segment 2 cost = %v, want transfer-only %v", d.segs[2].cost, want)
	}
}

// TestSchedRoundTripVariants reproduces the same strided pattern under
// several read gap-merge thresholds and checks the bytes are identical
// in all of them.
func TestSchedRoundTripVariants(t *testing.T) {
	variants := []struct {
		name string
		tune func(*Server)
	}{
		{"gap0", func(s *Server) { s.SieveGapBytes = 0 }},
		{"gap4k", func(s *Server) { s.SieveGapBytes = 4096 }},
		{"gap512k", func(s *Server) { s.SieveGapBytes = 512 * 1024 }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			_, c := startStreamCluster(t, 3, 1024, 2, v.tune)
			env := transport.NewRealEnv()
			f, err := c.Create(env, "v.dat", 512, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Strided regions with sub-strip pieces and holes smaller and
			// larger than the 4K threshold.
			var fileRegions []Region
			total := 0
			for i := 0; i < 40; i++ {
				ln := 100 + i*7%300
				fileRegions = append(fileRegions, Region{Off: int64(i)*900 + int64(i%3), Len: int64(ln)})
				total += ln
			}
			mem := patterned(total)
			memRegions := []Region{{Off: 0, Len: int64(total)}}
			if err := f.WriteList(env, fileRegions, memRegions, mem); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, total)
			if err := f.ReadList(env, fileRegions, memRegions, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mem) {
				t.Fatal("list round trip corrupted")
			}
			// Overwrite a contiguous range crossing all servers and re-read.
			blob := patterned(7000)
			if err := f.WriteContig(env, 200, blob); err != nil {
				t.Fatal(err)
			}
			got2 := make([]byte, len(blob))
			if err := f.ReadContig(env, 200, got2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, blob) {
				t.Fatal("contig round trip corrupted")
			}
		})
	}
}

// stageAll raises a scheduler's vectored-dispatch floor past any run
// size, so every coalesced operation stages through scratch.
func stageAll(d *diskSched) { d.vecMin = 1 << 40 }

// TestVectoredBatchByteIdentity executes the same coalesced plans
// vectored and staged (the floor raised past every run) against real
// stores and checks the bytes agree, including sieve-gap scatters and
// the overlapping-read fallback, along with the vectored-dispatch
// counter.
func TestVectoredBatchByteIdentity(t *testing.T) {
	env := transport.NewRealEnv()
	// Writes: strictly adjacent runs coalesce into one op; vectored
	// dispatch gathers the payload slices, staged copies through scratch.
	payload := patterned(300)
	runWrites := func(vec bool, st storage.Store) int64 {
		var is iostats.Stats
		d := testSched(true, 0, &is)
		if !vec {
			stageAll(d)
		}
		d.add(1000, 100, 0, payload[0:100])
		d.add(1100, 100, 100, payload[100:200])
		d.add(1200, 100, 200, payload[200:300])
		if err := d.flushWrites(env, st); err != nil {
			t.Fatal(err)
		}
		return is.Snapshot().DiskVecOps
	}
	a, b := storage.NewMem(), storage.NewMem()
	if v := runWrites(true, a); v != 1 {
		t.Fatalf("vectored writes dispatched %d vec ops, want 1", v)
	}
	if v := runWrites(false, b); v != 0 {
		t.Fatalf("scalar writes dispatched %d vec ops, want 0", v)
	}
	ga, gb := make([]byte, 300), make([]byte, 300)
	a.ReadAt(ga, 1000)
	b.ReadAt(gb, 1000)
	if !bytes.Equal(ga, gb) || !bytes.Equal(ga, payload) {
		t.Fatal("vectored and scalar writes diverged")
	}

	// Reads: a sieved scatter with two gaps, plus an overlapping pair
	// that must fall back to the staging copy even with vectoring on.
	src := storage.NewMem()
	src.WriteAt(patterned(20000), 0)
	runReads := func(vec bool) ([]byte, int64) {
		var is iostats.Stats
		d := testSched(false, 4096, &is)
		if !vec {
			stageAll(d)
		}
		dst := make([]byte, 450)
		d.add(0, 100, 0, nil)
		d.add(600, 100, 100, nil)  // 500-byte sieved gap
		d.add(1400, 100, 200, nil) // 700-byte sieved gap
		// Overlapping runs: the same disk bytes feed two response
		// positions, which a one-pass scatter cannot serve.
		d.add(9000, 100, 300, nil)
		d.add(9050, 50, 400, nil)
		p := d.planBatch(d.spans)
		if err := d.readBatch(src, p, dst, 0); err != nil {
			t.Fatal(err)
		}
		return dst, is.Snapshot().DiskVecOps
	}
	va, nva := runReads(true)
	vb, nvb := runReads(false)
	if !bytes.Equal(va, vb) {
		t.Fatal("vectored and scalar reads diverged")
	}
	if nva != 1 || nvb != 0 {
		t.Fatalf("vec ops = %d/%d, want 1/0 (overlap op must fall back)", nva, nvb)
	}
}

// TestVecMinRunFloor checks the vectored-dispatch minimum-run floor:
// coalesced operations whose runs average below vecMin stay on the
// scalar staging path (preadv/pwritev per-iovec overhead would exceed
// the copy it saves), while runs at or above the floor dispatch
// vectored. Bytes must be identical either way.
func TestVecMinRunFloor(t *testing.T) {
	env := transport.NewRealEnv()
	// Writes: adjacent runs averaging 512 bytes — half the floor, and
	// the old floor — stay scalar; runs at the floor clear it.
	runWrites := func(runLen int, st storage.Store) int64 {
		payload := patterned(3 * runLen)
		var is iostats.Stats
		d := testSched(true, 0, &is)
		d.vecMin = vecMinRunBytes
		for i := 0; i < 3; i++ {
			d.add(int64(1000+i*runLen), int64(runLen), int64(i*runLen), payload[i*runLen:(i+1)*runLen])
		}
		if err := d.flushWrites(env, st); err != nil {
			t.Fatal(err)
		}
		return is.Snapshot().DiskVecOps
	}
	small, large := storage.NewMem(), storage.NewMem()
	if v := runWrites(vecMinRunBytes/2, small); v != 0 {
		t.Fatalf("sub-floor writes dispatched %d vec ops, want 0", v)
	}
	if v := runWrites(vecMinRunBytes, large); v != 1 {
		t.Fatalf("above-floor writes dispatched %d vec ops, want 1", v)
	}
	got := make([]byte, 3*vecMinRunBytes/2)
	small.ReadAt(got, 1000)
	if !bytes.Equal(got, patterned(len(got))) {
		t.Fatal("sub-floor scalar write corrupted bytes")
	}

	// Reads: the same gapped layout at both run sizes; the sub-floor
	// batch must match the above-floor path byte-for-byte against the
	// same backing store (offsets scaled so the layout shape is equal).
	src := storage.NewMem()
	src.WriteAt(patterned(64*1024), 0)
	runReads := func(runLen int, vecMin int64) ([]byte, int64) {
		var is iostats.Stats
		d := testSched(false, 4096, &is)
		d.vecMin = vecMin
		dst := make([]byte, 3*runLen)
		for i := 0; i < 3; i++ {
			// Runs separated by sieve-mergeable sub-gap holes.
			d.add(int64(i*(runLen+200)), int64(runLen), int64(i*runLen), nil)
		}
		p := d.planBatch(d.spans)
		if err := d.readBatch(src, p, dst, 0); err != nil {
			t.Fatal(err)
		}
		return dst, is.Snapshot().DiskVecOps
	}
	subFloor, nSub := runReads(vecMinRunBytes-1, vecMinRunBytes)
	noFloor, nNo := runReads(vecMinRunBytes-1, 0)
	if nSub != 0 || nNo != 1 {
		t.Fatalf("vec ops = %d/%d, want 0 (sub-floor) / 1 (no floor)", nSub, nNo)
	}
	if !bytes.Equal(subFloor, noFloor) {
		t.Fatal("sub-floor scalar read diverged from vectored read")
	}
	if above, n := runReads(vecMinRunBytes, vecMinRunBytes); n != 1 {
		t.Fatalf("at-floor reads dispatched %d vec ops, want 1", n)
	} else if len(above) != 3*vecMinRunBytes {
		t.Fatalf("above-floor read returned %d bytes", len(above))
	}
}

// TestWriteSieveConstants pins the write-sieving join rule at its two
// constants. The gap bound is the measured crossover: on ext4 over the
// page cache (2 vCPUs, Linux 6.x), one pread plus one pwrite of a
// 64 KiB-capped extent costs the same as one pwrite per run once the
// runs sit 4 KiB apart (ratio 0.93-0.98 for 8 B to 1 KiB runs), wins
// 1.9-2.8× at 1 KiB holes and loses 2× at 8 KiB. The extent cap is one
// flow-control segment, so a sieved operation's staging buffer stays
// segment-sized and its pre-read never dwarfs a streamed batch.
func TestWriteSieveConstants(t *testing.T) {
	if writeSieveGapBytes != 4096 {
		t.Fatalf("writeSieveGapBytes = %d, want 4096 (the measured crossover)", writeSieveGapBytes)
	}
	if writeSieveMaxBytes != 64*1024 {
		t.Fatalf("writeSieveMaxBytes = %d, want one 64 KiB stream segment", writeSieveMaxBytes)
	}
	plan := func(runs ...[2]int64) [][2]int64 {
		d := testSched(true, 0, nil)
		d.sieve = true
		for _, r := range runs {
			d.add(r[0], r[1], 0, nil)
		}
		return opsOf(d, d.planBatch(d.spans))
	}
	for _, tc := range []struct {
		name string
		runs [][2]int64
		want [][2]int64
	}{
		{"gap at the bound joins", [][2]int64{{0, 100}, {100 + writeSieveGapBytes, 100}},
			[][2]int64{{0, 200 + writeSieveGapBytes}}},
		{"gap past the bound splits", [][2]int64{{0, 100}, {101 + writeSieveGapBytes, 100}},
			[][2]int64{{0, 100}, {101 + writeSieveGapBytes, 100}}},
		{"extent at the cap joins", [][2]int64{{0, 1000}, {2000, writeSieveMaxBytes - 2000}},
			[][2]int64{{0, writeSieveMaxBytes}}},
		{"extent past the cap splits", [][2]int64{{0, 1000}, {2000, writeSieveMaxBytes - 1999}},
			[][2]int64{{0, 1000}, {2000, writeSieveMaxBytes - 1999}}},
		{"adjacency ignores the cap", [][2]int64{{0, writeSieveMaxBytes}, {writeSieveMaxBytes, 10}},
			[][2]int64{{0, writeSieveMaxBytes + 10}}},
		{"overlap is never sieved", [][2]int64{{1000, 100}, {0, 100}, {1050, 10}},
			[][2]int64{{1000, 100}, {0, 100}, {1050, 10}}},
	} {
		if got := plan(tc.runs...); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: ops = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSieveWritePreservesHoles executes a sieved write against a store
// whose holes already hold data: the pre-read must carry those bytes
// through unchanged, the op must count once, and the charge must
// include reading the extent.
func TestSieveWritePreservesHoles(t *testing.T) {
	st := storage.NewMem()
	old := patterned(4096)
	st.WriteAt(old, 0)
	var is iostats.Stats
	d := testSched(true, 0, &is)
	d.sieve = true
	payload := bytes.Repeat([]byte{0xEE}, 300)
	d.add(3000, 100, 0, payload[:100]) // arrival order scrambled
	d.add(100, 100, 100, payload[100:200])
	d.add(1100, 100, 200, payload[200:300])
	p := d.planBatch(d.spans)
	if got := opsOf(d, p); fmt.Sprint(got) != fmt.Sprint([][2]int64{{100, 3000}}) {
		t.Fatalf("ops = %v, want one sieved extent", got)
	}
	cm := d.cost
	if want := cm.DiskPerOp + cm.diskXfer(3000, false) + cm.diskXfer(3000, true); p.cost != want {
		t.Fatalf("sieved cost = %v, want %v (pre-read + write)", p.cost, want)
	}
	if err := d.writeBatch(st, p); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), old...)
	copy(want[100:], payload[100:200])
	copy(want[1100:], payload[200:300])
	copy(want[3000:], payload[:100])
	got := make([]byte, 4096)
	st.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("sieved write changed a hole byte or missed a run")
	}
	s := is.Snapshot()
	if s.DiskOps != 3 || s.DiskOpsMerged != 1 || s.DiskRMWOps != 1 || s.DiskRMWGapBytes != 2700 || s.DiskVecOps != 0 {
		t.Fatalf("counters = %+v, want 3 runs in, 1 op out, 1 rmw over 2700 hole bytes, no vec", s)
	}
}

// TestSchedChargesDiskOnSim verifies end to end, on a simulated node,
// that a strided read dispatches fewer operations than it has runs and
// that the zero-byte path charges nothing.
func TestSchedChargesDiskOnSim(t *testing.T) {
	var st iostats.Stats
	d := testSched(false, 64*1024, &st)
	// Tile-like: 32 runs of 128 bytes every 4 KiB — one sieved dispatch.
	for i := int64(0); i < 32; i++ {
		d.add(i*4096, 128, i*128, nil)
	}
	p := d.planBatch(d.spans)
	s := st.Snapshot()
	if s.DiskOps != 32 || s.DiskOpsMerged != 1 {
		t.Fatalf("ops in/out = %d/%d, want 32/1", s.DiskOps, s.DiskOpsMerged)
	}
	// The over-read spans the full extent: 31*4096+128 bytes.
	wantN := int64(31*4096 + 128)
	if got := opsOf(d, p); got[0][1] != wantN {
		t.Fatalf("sieved op reads %d bytes, want %d", got[0][1], wantN)
	}
	if p.cost < d.cost.DiskPerOp || p.cost > d.cost.DiskPerOp+2*time.Millisecond+d.cost.diskXfer(wantN, false) {
		t.Fatalf("implausible sieved cost %v", p.cost)
	}
}
