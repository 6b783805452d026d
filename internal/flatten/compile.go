// Dataloop compilation: a one-time pass that turns a dataloop tree into
// a flat run program, so replaying a request window is pure arithmetic
// with zero tree-walking and zero per-request state beyond a cursor.
//
// The program is a short array of two opcodes in stream order:
//
//	RUN  (off, stride, length) x count — count runs of length bytes,
//	     run i at off + i*stride, relative to the enclosing base;
//	LOOP (off, stride) x count — count shifted replays of a body span
//	     of following ops, iteration i displaced by off + i*stride.
//
// All regularity the five dataloop kinds can express collapses into RUN
// strides (periodic-stride compression): a 2-D tile view compiles to one
// RUN, a 3-D block view to one LOOP over one RUN — O(dims) opcodes where
// the interpreted walk touches O(pieces) cursor states. Irregular kinds
// (indexed with unequal gaps) fall back to one opcode per block, and
// pathologically large descriptions decline to compile (Compile returns
// nil) rather than trade memory for speed; callers keep the interpreted
// Iter path as the always-correct fallback.
package flatten

import (
	"fmt"

	"dtio/internal/dataloop"
)

// Program opcodes.
const (
	opRun  = uint8(iota) // count runs of length bytes at off+i*stride
	opLoop               // count body replays, iteration i shifted off+i*stride
)

// progOp is one compiled opcode. Offsets are relative to the enclosing
// scope's base displacement, so one program serves every Disp.
type progOp struct {
	kind   uint8
	end    int32 // opLoop: index one past the body span
	count  int64
	off    int64
	stride int64
	length int64 // opRun: bytes per run; opLoop: stream bytes per iteration
	stream int64 // total stream bytes covered: count * length (RUN) or count * body (LOOP)
}

// Program is a compiled (loop) ready to replay for any (count, disp,
// window). It is immutable and safe for concurrent replay.
type Program struct {
	ops    []progOp
	size   int64 // stream bytes per instance
	extent int64 // file-space spacing between instances
}

// Size reports the stream bytes one instance of the program covers.
func (p *Program) Size() int64 { return p.size }

// NumOps reports the opcode count (a measure of compiled size).
func (p *Program) NumOps() int { return len(p.ops) }

// maxProgramOps bounds compiled size: a loop whose irregularity defeats
// stride compression (huge indexed lists) stays on the interpreted path
// instead of inflating the cache.
const maxProgramOps = 1 << 13

// Compile translates a validated dataloop into a Program, or returns nil
// when the loop is too irregular to compile compactly. The top-level
// instance count is a replay-time parameter, not a compile-time one, so
// one compilation serves every request against the same type.
func Compile(l *dataloop.Loop) *Program {
	p := &Program{size: l.Size, extent: l.Extent}
	if l.Size <= 0 {
		return p // empty stream: replay emits nothing
	}
	c := compiler{ok: true}
	c.node(l, 0)
	if !c.ok || len(c.ops) == 0 {
		return nil
	}
	p.ops = c.ops
	return p
}

// compiler accumulates opcodes with peephole folding as scopes close.
type compiler struct {
	ops     []progOp
	barrier int // merge fence: ops before it belong to a closed scope
	ok      bool
}

func (c *compiler) fail() { c.ok = false }

// emitRun appends a strided-run opcode, collapsing dense runs and
// merging with an adjacent sibling run when the stride pattern continues.
func (c *compiler) emitRun(off, length, stride, count int64) {
	if !c.ok || count <= 0 || length <= 0 {
		return
	}
	if count == 1 || stride == length {
		// Dense or single: a lone run of count*length bytes... only when
		// stride==length the runs abut; count==1 keeps its own length.
		if stride == length {
			length *= count
		}
		count, stride = 1, 0
	}
	if n := len(c.ops); n > c.barrier {
		prev := &c.ops[n-1]
		if prev.kind == opRun {
			switch {
			case prev.count == 1 && count == 1 && prev.off+prev.length == off:
				// Two abutting sibling runs merge into one.
				prev.length += length
				prev.stream += length
				return
			case prev.count == 1 && count == 1 && prev.length == length && off > prev.off:
				// Two equal-length siblings start an arithmetic progression.
				prev.count = 2
				prev.stride = off - prev.off
				prev.stream += length
				return
			case count == 1 && prev.length == length && off == prev.off+prev.count*prev.stride:
				// A lone sibling run continues the previous progression.
				prev.count++
				prev.stream += length
				return
			case prev.count == 1 && prev.length == length && prev.off+stride == off:
				// A progression continues backward over a lone predecessor.
				prev.count = count + 1
				prev.stride = stride
				prev.stream += count * length
				return
			case prev.length == length && prev.stride == stride && off == prev.off+prev.count*stride:
				// Two progressions with one period splice together.
				prev.count += count
				prev.stream += count * length
				return
			}
		}
	}
	c.push(progOp{kind: opRun, count: count, off: off, stride: stride,
		length: length, stream: count * length})
}

func (c *compiler) push(op progOp) {
	if len(c.ops) >= maxProgramOps {
		c.fail()
		return
	}
	c.ops = append(c.ops, op)
}

// beginLoop opens a LOOP scope; endLoop closes it, computing the body
// stream and folding single-run bodies back into strided runs.
func (c *compiler) beginLoop(off, stride, count int64) (int, int) {
	idx := len(c.ops)
	c.push(progOp{kind: opLoop, count: count, off: off, stride: stride})
	oldBarrier := c.barrier
	c.barrier = len(c.ops)
	return idx, oldBarrier
}

func (c *compiler) endLoop(idx, oldBarrier int) {
	if !c.ok {
		return
	}
	if len(c.ops) == idx+1 {
		// Empty body (zero-size child): drop the scope entirely.
		c.ops = c.ops[:idx]
		c.barrier = oldBarrier
		return
	}
	lo := c.ops[idx]
	// Sum the body's top-level op streams (nested spans are already
	// counted inside their own headers).
	var body int64
	for j := idx + 1; j < len(c.ops); {
		body += c.ops[j].stream
		if c.ops[j].kind == opLoop {
			j = int(c.ops[j].end)
		} else {
			j++
		}
	}
	// Fold: a loop whose body is a single RUN is itself a strided run
	// pattern (or two nested ones that multiply out when periods align).
	if len(c.ops) == idx+2 && c.ops[idx+1].kind == opRun {
		r := c.ops[idx+1]
		switch {
		case r.count == 1:
			c.ops = c.ops[:idx]
			c.barrier = oldBarrier
			c.emitRun(lo.off+r.off, r.length, lo.stride, lo.count)
			return
		case lo.stride == r.stride*r.count:
			c.ops = c.ops[:idx]
			c.barrier = oldBarrier
			c.emitRun(lo.off+r.off, r.length, r.stride, lo.count*r.count)
			return
		}
	}
	c.ops[idx].end = int32(len(c.ops))
	c.ops[idx].length = body
	c.ops[idx].stream = lo.count * body
	// The closed span is sealed: later siblings must not merge into its
	// body ops (their streams are now baked into the header).
	c.barrier = len(c.ops)
}

// rep emits count instances of child spaced stride bytes apart at base.
func (c *compiler) rep(count, base, stride int64, child *dataloop.Loop) {
	if !c.ok || count <= 0 || child.Size <= 0 {
		return
	}
	if count == 1 {
		c.node(child, base)
		return
	}
	idx, ob := c.beginLoop(base, stride, count)
	c.node(child, 0)
	c.endLoop(idx, ob)
}

// blockRun emits count blocks of blockLen leaf elements: block i at
// base+i*blockStride, elements elSize bytes spaced elExtent apart.
func (c *compiler) blockRun(base, blockStride, count, blockLen, elSize, elExtent int64) {
	if !c.ok || count <= 0 || blockLen <= 0 || elSize <= 0 {
		return
	}
	if count == 1 {
		c.emitRun(base, elSize, elExtent, blockLen)
		return
	}
	if elExtent == elSize || blockLen == 1 {
		// Dense blocks: one strided group of blockLen*elSize-byte runs.
		c.emitRun(base, blockLen*elSize, blockStride, count)
		return
	}
	idx, ob := c.beginLoop(base, blockStride, count)
	c.emitRun(0, elSize, elExtent, blockLen)
	c.endLoop(idx, ob)
}

// repBlocks emits count blocks of blockLen child instances: block i at
// base+i*blockStride, instances spaced elExtent apart.
func (c *compiler) repBlocks(count, base, blockStride, blockLen, elExtent int64, child *dataloop.Loop) {
	if !c.ok || count <= 0 || blockLen <= 0 || child.Size <= 0 {
		return
	}
	if count == 1 {
		c.rep(blockLen, base, elExtent, child)
		return
	}
	idx, ob := c.beginLoop(base, blockStride, count)
	c.rep(blockLen, 0, elExtent, child)
	c.endLoop(idx, ob)
}

// leaf reports whether l's elements are raw byte runs (mirrors the
// unexported dataloop helper).
func leaf(l *dataloop.Loop) bool { return l.Child == nil && l.Children == nil }

// apStride reports the common difference if offs form an arithmetic
// progression (the regularity blockindexed/indexed types usually carry).
func apStride(offs []int64) (int64, bool) {
	if len(offs) < 2 {
		return 0, false
	}
	d := offs[1] - offs[0]
	for i := 2; i < len(offs); i++ {
		if offs[i]-offs[i-1] != d {
			return 0, false
		}
	}
	return d, true
}

// equalLens reports whether every indexed block has the same length.
func equalLens(lens []int64) (int64, bool) {
	if len(lens) == 0 {
		return 0, false
	}
	for _, n := range lens[1:] {
		if n != lens[0] {
			return 0, false
		}
	}
	return lens[0], true
}

// node emits one instance of l at relative displacement base. Emission
// order is exactly the dataloop stream order — replay positions depend
// on it.
func (c *compiler) node(l *dataloop.Loop, base int64) {
	if !c.ok || l.Size <= 0 {
		return
	}
	switch l.Kind {
	case dataloop.Contig:
		if leaf(l) {
			c.emitRun(base, l.ElSize, l.ElExtent, l.Count)
			return
		}
		c.rep(l.Count, base, l.ElExtent, l.Child)
	case dataloop.Vector:
		if leaf(l) {
			c.blockRun(base, l.Stride, l.Count, l.BlockLen, l.ElSize, l.ElExtent)
			return
		}
		c.repBlocks(l.Count, base, l.Stride, l.BlockLen, l.ElExtent, l.Child)
	case dataloop.BlockIndexed:
		if d, ok := apStride(l.Offsets); ok {
			n := int64(len(l.Offsets))
			if leaf(l) {
				c.blockRun(base+l.Offsets[0], d, n, l.BlockLen, l.ElSize, l.ElExtent)
			} else {
				c.repBlocks(n, base+l.Offsets[0], d, l.BlockLen, l.ElExtent, l.Child)
			}
			return
		}
		for _, off := range l.Offsets {
			if leaf(l) {
				c.emitRun(base+off, l.ElSize, l.ElExtent, l.BlockLen)
			} else {
				c.rep(l.BlockLen, base+off, l.ElExtent, l.Child)
			}
		}
	case dataloop.Indexed:
		if bl, eq := equalLens(l.BlockLens); eq {
			if d, ok := apStride(l.Offsets); ok {
				n := int64(len(l.Offsets))
				if leaf(l) {
					c.blockRun(base+l.Offsets[0], d, n, bl, l.ElSize, l.ElExtent)
				} else {
					c.repBlocks(n, base+l.Offsets[0], d, bl, l.ElExtent, l.Child)
				}
				return
			}
		}
		for i, off := range l.Offsets {
			if leaf(l) {
				c.emitRun(base+off, l.ElSize, l.ElExtent, l.BlockLens[i])
			} else {
				c.rep(l.BlockLens[i], base+off, l.ElExtent, l.Child)
			}
		}
	case dataloop.Struct:
		for i, ch := range l.Children {
			c.node(ch, base+l.Offsets[i])
		}
	default:
		c.fail()
	}
}

// replayer carries the replay cursor: s is the stream position, [lo, hi)
// the request window, and cur/has the pending region held for adjacent
// coalescing (matching Iter's coalesce=true semantics exactly). A
// replayer either emits regions (Replay) or moves bytes (Gather,
// Scatter): then mem is the buffer the program describes, flat the
// contiguous side at cursor k, and pieces counts the coalesced regions.
type replayer struct {
	ops  []progOp
	s    int64
	lo   int64
	hi   int64
	cur  Region
	has  bool
	emit func(off, n int64) error

	mem, flat []byte
	k         int64
	gather    bool
	pieces    int64
}

// Replay emits the coalesced file regions of count instances of the
// program displaced by disp, clipped to stream window [pos, pos+n).
// Skipping to pos is O(program depth) divisions — no walking.
func (p *Program) Replay(count, disp, pos, n int64, emit func(off, n int64) error) error {
	if n <= 0 || count <= 0 || p.size <= 0 {
		return nil
	}
	if pos < 0 {
		pos = 0
	}
	end := pos + n
	if total := count * p.size; end > total {
		end = total
	}
	if pos >= end {
		return nil
	}
	r := replayer{ops: p.ops, lo: pos, hi: end, emit: emit}
	for inst := pos / p.size; inst < count; inst++ {
		r.s = inst * p.size
		if r.s >= end {
			break
		}
		if err := r.exec(0, int32(len(p.ops)), disp+inst*p.extent); err != nil {
			return err
		}
	}
	return r.flush()
}

// piece feeds one clipped run into the coalescer.
func (r *replayer) piece(off, n int64) error {
	if r.has && r.cur.Off+r.cur.Len == off {
		r.cur.Len += n
		return nil
	}
	var err error
	if r.has {
		err = r.emit(r.cur.Off, r.cur.Len)
	}
	r.cur = Region{Off: off, Len: n}
	r.has = true
	return err
}

func (r *replayer) flush() error {
	if !r.has {
		return nil
	}
	r.has = false
	return r.emit(r.cur.Off, r.cur.Len)
}

// exec replays ops[i:end) at displacement base, advancing the stream
// cursor and emitting only the parts inside [lo, hi). Whole ops and
// whole iterations below lo are skipped by division, not iteration.
func (r *replayer) exec(i, end int32, base int64) error {
	for i < end {
		if r.s >= r.hi {
			return nil
		}
		op := &r.ops[i]
		next := i + 1
		if op.kind == opLoop {
			next = op.end
		}
		if r.s+op.stream <= r.lo {
			r.s += op.stream
			i = next
			continue
		}
		if op.kind == opRun {
			j := int64(0)
			if r.s < r.lo {
				j = (r.lo - r.s) / op.length
				r.s += j * op.length
			}
			if r.emit == nil {
				if err := r.move(op, base, j); err != nil {
					return err
				}
				i = next
				continue
			}
			for ; j < op.count && r.s < r.hi; j++ {
				ps, pe := r.s, r.s+op.length
				off, ln := base+op.off+j*op.stride, op.length
				if ps < r.lo {
					off += r.lo - ps
					ln -= r.lo - ps
				}
				if pe > r.hi {
					ln -= pe - r.hi
				}
				if ln > 0 {
					if err := r.piece(off, ln); err != nil {
						return err
					}
				}
				r.s = pe
			}
			i = next
			continue
		}
		j := int64(0)
		if r.s < r.lo {
			j = (r.lo - r.s) / op.length
			r.s += j * op.length
		}
		for ; j < op.count && r.s < r.hi; j++ {
			if err := r.exec(i+1, op.end, base+op.off+j*op.stride); err != nil {
				return err
			}
		}
		i = next
	}
	return nil
}

// Gather copies stream window [pos, pos+n) of count instances of the
// program displaced by disp out of src, in stream order, into dst[:n]:
// the client's pack. It reports the window's coalesced piece count —
// how many regions Replay would emit for the same window — without
// building them. A nil dst only counts. Every run the window touches
// must lie inside src; one that does not is an error, and nothing past
// it is copied.
func (p *Program) Gather(dst, src []byte, count, disp, pos, n int64) (int64, error) {
	return p.move(src, dst, count, disp, pos, n, true)
}

// Scatter is Gather's inverse, the client's unpack: it copies src[:n]
// into the runs of window [pos, pos+n) of dst. A nil src only counts.
func (p *Program) Scatter(dst, src []byte, count, disp, pos, n int64) (int64, error) {
	return p.move(dst, src, count, disp, pos, n, false)
}

// move runs Gather (gather) or Scatter between the strided buffer mem
// and the contiguous buffer flat.
func (p *Program) move(mem, flat []byte, count, disp, pos, n int64, gather bool) (int64, error) {
	if n == 0 {
		return 0, nil
	}
	if pos < 0 || n < 0 || pos+n > count*p.size {
		return 0, fmt.Errorf("flatten: window [%d,%d) outside the %d-byte stream", pos, pos+n, count*p.size)
	}
	if flat != nil && int64(len(flat)) < n {
		return 0, fmt.Errorf("flatten: %d-byte buffer for a %d-byte window", len(flat), n)
	}
	// Field by field: a composite literal of this size is built aside
	// and block-copied, which costs more than the usual window's copy.
	var r replayer
	r.ops, r.lo, r.hi, r.mem, r.flat, r.gather = p.ops, pos, pos+n, mem, flat, gather
	for inst := pos / p.size; inst < count && inst*p.size < r.hi; inst++ {
		r.s = inst * p.size
		if err := r.exec(0, int32(len(p.ops)), disp+inst*p.extent); err != nil {
			return r.pieces, err
		}
	}
	return r.pieces, nil
}

// move copies the runs of op from index j on that the window visits,
// checking once that their whole span lies inside mem.
func (r *replayer) move(op *progOp, base, j int64) error {
	last := j + (r.hi-r.s+op.length-1)/op.length - 1
	if last >= op.count {
		last = op.count - 1
	}
	lo, hi := base+op.off+j*op.stride, base+op.off+last*op.stride
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 || hi+op.length > int64(len(r.mem)) {
		return fmt.Errorf("flatten: memory region [%d,%d) outside buffer of %d bytes",
			lo, hi+op.length, len(r.mem))
	}
	// end is where the previous region ended (-1: no region yet); a run
	// starting there coalesces with it.
	s, mem, flat, k, pieces, end := r.s, r.mem, r.flat, r.k, r.pieces, int64(-1)
	if r.has {
		end = r.cur.Off + r.cur.Len
	}
	for ; j <= last; j++ {
		off, ln := base+op.off+j*op.stride, op.length
		if s < r.lo {
			off += r.lo - s
			ln -= r.lo - s
		}
		if e := s + op.length; e > r.hi {
			ln -= e - r.hi
		}
		switch {
		case flat == nil:
		case r.gather:
			copy(flat[k:k+ln], mem[off:off+ln])
		default:
			copy(mem[off:off+ln], flat[k:k+ln])
		}
		if off != end {
			pieces++
		}
		k, end, s = k+ln, off+ln, s+op.length
	}
	r.s, r.k, r.pieces = s, k, pieces
	r.cur, r.has = Region{Off: end}, true
	return nil
}
