package main

import (
	"fmt"
	"math/rand"

	"dtio/internal/datatype"
	"dtio/internal/mpiio"
	"dtio/internal/workloads"
)

var methods = []mpiio.Method{mpiio.Posix, mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO}

var workloadNames = []string{"tile_read", "block3d_read", "block3d_write", "flash_write"}

// workload is one access pattern: a file, the logical rank views into
// it, the memory layout of one operation, and the oracle image of the
// file. Shapes come from internal/workloads.
type workload struct {
	name  string
	write bool
	// views[v] is rank v's file view; an operation addresses (view,
	// frame), frame f being the f-th tile of the view.
	views  []*datatype.Type
	frames int
	etype  *datatype.Type
	// memType describes one operation's memory in a buffer of memBytes;
	// opBytes are the desired bytes it moves.
	memType  *datatype.Type
	memBytes int64
	opBytes  int64
	// image is the oracle content of the whole file.
	image []byte
	// memOracle fills rank v's memory buffer with the bytes whose write
	// through view v reproduces image (write workloads).
	memOracle func(v int, buf []byte)
	// ops is the fixed operation count of one round of each method's
	// cell, indexed by mpiio.Method. Constants, never adaptive, so the
	// work of a round repeats exactly.
	ops [5]int
}

// scale selects the shapes. full is the benchmark; smoke is the same
// code on shapes small enough for the tier-1 test.
type scale struct {
	tile   workloads.TileConfig
	frames int
	b3     workloads.Block3DConfig
	flash  workloads.FlashConfig
	// ops per round, posix·sieve·twophase·listio·dtype, per workload in
	// workloadNames order. Sized on the reference box so a timed round of
	// all five cells takes about two seconds and the dtype cell collects
	// more than a thousand timed operations in a run.
	ops [4][5]int
	// reps is how many times the layer replay repeats each timed call.
	reps int
}

func fullScale() scale {
	return scale{
		tile:   workloads.DefaultTile(),
		frames: 4,
		b3:     workloads.Block3DConfig{N: 128, ElemSize: 4, Procs: 8},
		flash:  workloads.FlashConfig{Blocks: 8, NB: 8, Guard: 2, Vars: 8, ElemSize: 8, Procs: 8},
		reps:   15,
		ops: [4][5]int{
			{16, 60, 40, 80, 120},
			{6, 100, 80, 120, 160},
			{6, 50, 40, 60, 120},
			{1, 70, 70, 40, 160},
		},
	}
}

func smokeScale() scale {
	return scale{
		tile: workloads.TileConfig{
			TilesX: 2, TilesY: 1, TileW: 64, TileH: 48,
			Depth: 3, OverlapX: 16, OverlapY: 0, Frames: 2,
		},
		frames: 2,
		b3:     workloads.Block3DConfig{N: 32, ElemSize: 4, Procs: 8},
		flash:  workloads.FlashConfig{Blocks: 2, NB: 4, Guard: 2, Vars: 4, ElemSize: 8, Procs: 2},
		reps:   3,
		ops: [4][5]int{
			{2, 4, 4, 4, 6},
			{2, 4, 4, 4, 6},
			{2, 4, 4, 4, 6},
			{2, 4, 4, 4, 6},
		},
	}
}

func newWorkload(name string, sc scale) (*workload, error) {
	switch name {
	case "tile_read":
		c := sc.tile
		if err := c.Validate(); err != nil {
			return nil, err
		}
		w := &workload{
			name: name, frames: sc.frames, etype: datatype.Byte,
			memType: datatype.Bytes(c.TileBytes()), memBytes: c.TileBytes(), opBytes: c.TileBytes(),
			image: make([]byte, int64(sc.frames)*c.FrameBytes()),
			ops:   sc.ops[0],
		}
		for v := 0; v < c.NumClients(); v++ {
			w.views = append(w.views, c.View(v))
		}
		for f := 0; f < sc.frames; f++ {
			workloads.FillFrame(f, w.image[int64(f)*c.FrameBytes():int64(f+1)*c.FrameBytes()])
		}
		return w, nil
	case "block3d_read", "block3d_write":
		c := sc.b3
		if err := c.Validate(); err != nil {
			return nil, err
		}
		w := &workload{
			name: name, write: name == "block3d_write", frames: 1,
			etype:   datatype.Bytes(int64(c.ElemSize)),
			memType: datatype.Bytes(c.BlockBytes()), memBytes: c.BlockBytes(), opBytes: c.BlockBytes(),
			image: make([]byte, c.TotalBytes()),
			ops:   sc.ops[1],
		}
		if w.write {
			w.ops = sc.ops[2]
		}
		for v := 0; v < c.Procs; v++ {
			w.views = append(w.views, c.View(v))
		}
		for i := range w.image {
			w.image[i] = workloads.Block3DElem(int64(i))
		}
		w.memOracle = func(v int, buf []byte) { gather(buf, w.image, w.views[v], 0) }
		return w, nil
	case "flash_write":
		c := sc.flash
		if err := c.Validate(); err != nil {
			return nil, err
		}
		w := &workload{
			name: name, write: true, frames: 1,
			etype:   datatype.Bytes(int64(c.ElemSize)),
			memType: c.MemType(), memBytes: c.MemBytes(), opBytes: c.BytesPerClient(),
			image: make([]byte, c.TotalBytes()),
			ops:   sc.ops[3],
		}
		for v := 0; v < c.Procs; v++ {
			w.views = append(w.views, c.FileType(v))
		}
		for i := range w.image {
			w.image[i] = c.FileOracle(int64(i))
		}
		w.memOracle = c.FillMemory
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// frameBytes is the file distance between consecutive frames of a view.
func (w *workload) frameBytes() int64 { return w.views[0].Extent() }

// gather packs the bytes of src that view selects, placed at base, into
// dst in stream order — the contiguous buffer a correct read returns.
func gather(dst, src []byte, view *datatype.Type, base int64) {
	pos := int64(0)
	view.Walk(base, func(off, n int64) bool {
		copy(dst[pos:pos+n], src[off:off+n])
		pos += n
		return true
	})
}

// overlay applies one write to a file image the way the file system
// must: the k-th byte of the memory stream lands on the k-th byte of
// the view's stream. It walks the datatypes themselves, not the
// dataloop/flatten code under test.
func overlay(image, mem []byte, fileRegs, memRegs []datatype.Region) {
	fi, mi := 0, 0
	var fo, mo int64 // consumed within the current regions
	for fi < len(fileRegs) && mi < len(memRegs) {
		f, m := fileRegs[fi], memRegs[mi]
		n := f.Len - fo
		if r := m.Len - mo; r < n {
			n = r
		}
		copy(image[f.Off+fo:f.Off+fo+n], mem[m.Off+mo:m.Off+mo+n])
		fo += n
		mo += n
		if fo == f.Len {
			fi, fo = fi+1, 0
		}
		if mo == m.Len {
			mi, mo = mi+1, 0
		}
	}
}

// opRef names one operation: a view (the even view of a pair, for
// two-phase) and a frame.
type opRef struct{ view, frame int }

// opOrder is the seed-shuffled cycle of (view, frame) a cell draws its
// operations from; step is 2 for two-phase, whose operation is a pair
// of views. The cycle carries across rounds, so every combination is
// visited equally often.
func (w *workload) opOrder(rng *rand.Rand, step int) []opRef {
	var order []opRef
	for v := 0; v+step <= len(w.views); v += step {
		for f := 0; f < w.frames; f++ {
			order = append(order, opRef{v, f})
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
