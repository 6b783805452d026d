// Package flatten turns dataloop streams into offset-length regions: the
// bridge between concise datatype descriptions and the region lists that
// storage and network layers consume.
//
// Iter pulls pieces from a dataloop Segment in batches (amortizing cursor
// resumption), optionally coalescing adjacent regions — the optimization
// the paper's server-side processing functions perform. Dual walks a file
// stream and a memory stream in lockstep, producing (fileOff, memOff, n)
// triples; the mpiio posix, sieving, two-phase and list methods build
// their accesses on it.
//
// Compile turns a loop into a Program whose Replay yields the same
// coalesced regions as Iter without walking the tree, and whose Gather
// and Scatter copy a stream window between a described buffer and a
// contiguous one. Datatype I/O runs on programs: servers replay the
// file view, clients pack and unpack with both programs. Iter and Dual
// remain the fallback when Compile declines, and the oracle the
// programs are tested against.
package flatten

import (
	"dtio/internal/dataloop"
	"dtio/internal/datatype"
)

// Region is re-exported for convenience.
type Region = datatype.Region

// batchSize is the number of pieces pulled from a Segment per refill.
const batchSize = 256

// Iter is a pull-style iterator over the pieces of a dataloop stream.
type Iter struct {
	seg      *dataloop.Segment
	base     int64 // added to every produced offset
	limit    int64 // stream bytes still to produce; <0 = unlimited
	coalesce bool

	batch   []Region
	i       int
	pending Region // held back for coalescing
	hasPend bool
	done    bool
}

// NewIter iterates the pieces of count instances of loop, offsetting every
// piece by base. If coalesce is true, adjacent pieces merge.
func NewIter(loop *dataloop.Loop, count int64, base int64, coalesce bool) *Iter {
	return &Iter{
		seg:      dataloop.NewSegment(loop, count),
		base:     base,
		limit:    -1,
		coalesce: coalesce,
	}
}

// NewIterAt is NewIter but starts at stream offset pos and produces at
// most n stream bytes. It is how a file view is walked for one request.
func NewIterAt(loop *dataloop.Loop, count int64, base int64, pos, n int64, coalesce bool) *Iter {
	it := NewIter(loop, count, base, coalesce)
	it.seg.SetPos(pos)
	it.limit = n
	if n == 0 {
		it.done = true
	}
	return it
}

// refill pulls the next batch of pieces from the segment.
func (it *Iter) refill() {
	it.batch = it.batch[:0]
	it.i = 0
	if it.done {
		return
	}
	budget := it.limit // -1 means unlimited; Process treats <=0 as unbounded
	consumed, segDone := it.seg.Process(budget, func(off, n int64) bool {
		if len(it.batch) >= batchSize {
			return false // refuse; offered again next refill
		}
		it.batch = append(it.batch, Region{Off: off + it.base, Len: n})
		return true
	})
	if it.limit >= 0 {
		it.limit -= consumed
		if it.limit == 0 {
			it.done = true
		}
	}
	if segDone {
		it.done = true
	}
}

// Next returns the next region. ok is false when the stream is exhausted.
func (it *Iter) Next() (Region, bool) {
	for {
		if it.i < len(it.batch) {
			r := it.batch[it.i]
			it.i++
			if !it.coalesce {
				return r, true
			}
			if !it.hasPend {
				it.pending, it.hasPend = r, true
				continue
			}
			if it.pending.Off+it.pending.Len == r.Off {
				it.pending.Len += r.Len
				continue
			}
			out := it.pending
			it.pending = r
			return out, true
		}
		if it.done {
			if it.hasPend {
				it.hasPend = false
				return it.pending, true
			}
			return Region{}, false
		}
		it.refill()
		if len(it.batch) == 0 && it.done {
			continue // flush pending on next loop
		}
	}
}

// Collect materializes all remaining regions (test/tooling helper).
func (it *Iter) Collect() []Region {
	var out []Region
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Source yields regions in stream order. Iter and SliceSource satisfy it.
type Source interface {
	Next() (Region, bool)
}

// SliceSource adapts an explicit region list to Source.
type SliceSource struct {
	regions []Region
	i       int
}

// NewSliceSource wraps a region slice (not copied).
func NewSliceSource(regions []Region) *SliceSource {
	return &SliceSource{regions: regions}
}

// Next implements Source.
func (s *SliceSource) Next() (Region, bool) {
	if s.i >= len(s.regions) {
		return Region{}, false
	}
	r := s.regions[s.i]
	s.i++
	return r, true
}

// Dual walks two equal-length streams (file space and memory space) in
// lockstep and yields maximal runs contiguous in both.
type Dual struct {
	file, mem Source
	f, m      Region
	fok, mok  bool
	primed    bool
}

// NewDual pairs a file-stream source with a memory-stream source. The
// two must describe the same number of stream bytes.
func NewDual(file, mem Source) *Dual {
	return &Dual{file: file, mem: mem}
}

// Next yields the next (fileOff, memOff, n) run. ok is false at the end.
func (d *Dual) Next() (fileOff, memOff, n int64, ok bool) {
	if !d.primed {
		d.f, d.fok = d.file.Next()
		d.m, d.mok = d.mem.Next()
		d.primed = true
	}
	for d.fok && d.f.Len == 0 {
		d.f, d.fok = d.file.Next()
	}
	for d.mok && d.m.Len == 0 {
		d.m, d.mok = d.mem.Next()
	}
	if !d.fok || !d.mok {
		return 0, 0, 0, false
	}
	n = d.f.Len
	if d.m.Len < n {
		n = d.m.Len
	}
	fileOff, memOff = d.f.Off, d.m.Off
	d.f.Off += n
	d.f.Len -= n
	d.m.Off += n
	d.m.Len -= n
	if d.f.Len == 0 {
		d.f, d.fok = d.file.Next()
	}
	if d.m.Len == 0 {
		d.m, d.mok = d.mem.Next()
	}
	return fileOff, memOff, n, true
}

// Clip returns the overlap of r with the half-open byte range [lo, hi),
// and whether the overlap is nonempty.
func Clip(r Region, lo, hi int64) (Region, bool) {
	start, end := r.Off, r.Off+r.Len
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	if start >= end {
		return Region{}, false
	}
	return Region{Off: start, Len: end - start}, true
}

// Coalescer is a streaming adjacent-region merger.
type Coalescer struct {
	cur Region
	has bool
	out func(Region)
}

// NewCoalescer forwards merged regions to out.
func NewCoalescer(out func(Region)) *Coalescer {
	return &Coalescer{out: out}
}

// Add feeds one region.
func (c *Coalescer) Add(r Region) {
	if r.Len == 0 {
		return
	}
	if c.has && c.cur.Off+c.cur.Len == r.Off {
		c.cur.Len += r.Len
		return
	}
	if c.has {
		c.out(c.cur)
	}
	c.cur, c.has = r, true
}

// Flush emits the held region, if any.
func (c *Coalescer) Flush() {
	if c.has {
		c.out(c.cur)
		c.has = false
	}
}
