package mpiio

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/transport"
)

// Two-phase collective I/O (paper §2.3, after Thakur's extended two-phase
// method as implemented in ROMIO):
//
//  1. Ranks exchange their access bounds; the global extent is split into
//     equal contiguous file domains, one per aggregator (every rank
//     aggregates, as with ROMIO's defaults on this many nodes).
//  2. Each aggregator processes its domain in CBBufSize chunks; all ranks
//     execute the same number of rounds.
//  3. Per round, each rank tells each aggregator which byte ranges of the
//     current chunk it needs (reads) or supplies (writes, with data).
//     Aggregators perform one large contiguous file-system operation per
//     round and redistribute over the message-passing fabric.
//
// For writes, a chunk whose incoming regions do not fully cover its span
// is read-modified-written — legal under MPI-IO consistency semantics
// without file locks, which is why two-phase writes work on PVFS while
// data sieving writes do not (paper §4.1).
//
// Reads and writes run every round through the same steps (DESIGN.md
// §18): one roundCursor pass over the access, one region-list message per
// aggregator, one decodeRound at the aggregator. They differ only in
// which way the data moves.

// tpPlan is the per-operation collective plan, identical on all ranks.
type tpPlan struct {
	gmin, gmax int64   // global access extent
	domLo      []int64 // per-aggregator domain bounds
	domHi      []int64
	cb         int64 // chunk size
	rounds     int
}

// chunk reports aggregator a's round-r chunk, which may be empty.
func (p *tpPlan) chunk(a, r int) (lo, hi int64) {
	lo = p.domLo[a] + int64(r)*p.cb
	hi = lo + p.cb
	if hi > p.domHi[a] {
		hi = p.domHi[a]
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// plan computes the collective plan from each rank's [first, last] file
// byte bounds (first == -1 when the rank accesses nothing).
func (f *File) plan(env transport.Env, first, last int64) *tpPlan {
	firsts := f.comm.AllgatherI64(env, first)
	lasts := f.comm.AllgatherI64(env, last)
	p := &tpPlan{gmin: -1, gmax: -1}
	for i := range firsts {
		if firsts[i] < 0 {
			continue
		}
		if p.gmin < 0 || firsts[i] < p.gmin {
			p.gmin = firsts[i]
		}
		if lasts[i]+1 > p.gmax {
			p.gmax = lasts[i] + 1
		}
	}
	if p.gmin < 0 {
		return p // nobody accesses anything
	}
	n := int64(f.comm.Size())
	total := p.gmax - p.gmin
	domSize := (total + n - 1) / n
	p.domLo = make([]int64, n)
	p.domHi = make([]int64, n)
	for a := int64(0); a < n; a++ {
		lo := p.gmin + a*domSize
		hi := lo + domSize
		if lo > p.gmax {
			lo = p.gmax
		}
		if hi > p.gmax {
			hi = p.gmax
		}
		p.domLo[a], p.domHi[a] = lo, hi
	}
	p.cb = f.hints.CBBufSize
	if p.cb <= 0 {
		p.cb = DefaultHints().CBBufSize
	}
	p.rounds = int((domSize + p.cb - 1) / p.cb)
	if p.rounds == 0 {
		p.rounds = 1
	}
	return p
}

// aggOf reports which aggregator's domain holds file offset off.
func (p *tpPlan) aggOf(off int64) int {
	if len(p.domLo) == 0 {
		return 0
	}
	domSize := p.domHi[0] - p.domLo[0]
	if domSize <= 0 {
		return 0
	}
	a := int((off - p.gmin) / domSize)
	if a >= len(p.domLo) {
		a = len(p.domLo) - 1
	}
	return a
}

// roundCursor walks this rank's access for one round and yields, in
// stream order, each part of a pair piece that falls in some
// aggregator's chunk of that round. A piece spanning several domains
// yields one part per aggregator. Like pairWalk it is an iterator, so
// the per-part body stays inline in the round loop.
type roundCursor struct {
	p         *tpPlan
	r         int
	w         pairWalk
	fo, mo, n int64 // the current pair piece
	a, aLast  int   // the aggregators it spans that are still to clip
	pairs     int64 // pair pieces walked
	parts     int64 // parts yielded
}

// next returns the next part: aggregator a, file offset fo, buffer offset
// mo, length n. ok is false at the end of the access and at a memory
// piece outside the buffer, which sets w.err.
func (c *roundCursor) next() (a int, fo, mo, n int64, ok bool) {
	for {
		for c.a <= c.aLast {
			a = c.a
			c.a++
			lo, hi := c.p.chunk(a, c.r)
			if lo == hi {
				continue
			}
			part, in := flatten.Clip(flatten.Region{Off: c.fo, Len: c.n}, lo, hi)
			if !in {
				continue
			}
			c.parts++
			return a, part.Off, c.mo + (part.Off - c.fo), part.Len, true
		}
		if c.fo, c.mo, c.n, ok = c.w.next(); !ok {
			return 0, 0, 0, 0, false
		}
		c.pairs++
		c.a, c.aLast = c.p.aggOf(c.fo), c.p.aggOf(c.fo+c.n-1)
	}
}

// A round message is a region list: a u32 count, each region's file
// offset and length as two u64s, then, on writes, the regions' bytes in
// list order. A rank with no part in an aggregator's chunk sends it an
// empty message.

// encodeRegions appends the region list of regs to dst; no regions encode
// as nothing.
func encodeRegions(dst []byte, regs []flatten.Region) []byte {
	if len(regs) == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(regs)))
	for _, reg := range regs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(reg.Off))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(reg.Len))
	}
	return dst
}

// regionCount reports the regions of a message decodeRound accepted.
func regionCount(msg []byte) int {
	if len(msg) == 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(msg))
}

// regionAt decodes region i of a message decodeRound accepted.
func regionAt(msg []byte, i int) flatten.Region {
	at := 4 + 16*i
	return flatten.Region{
		Off: int64(binary.LittleEndian.Uint64(msg[at:])),
		Len: int64(binary.LittleEndian.Uint64(msg[at+8:])),
	}
}

// payload returns the data bytes that follow a message's region list.
func payload(msg []byte) []byte {
	if len(msg) == 0 {
		return nil
	}
	return msg[4+16*regionCount(msg):]
}

// decodeRound checks an aggregator's incoming round messages: each
// region must be non-empty and lie in the aggregator's chunk [clo, chi),
// and a write's payload must hold exactly its regions' bytes (a read's
// none). It reports the span [lo, hi) the regions cover (lo < 0 when
// there are none) and the bytes they request in total.
func decodeRound(clo, chi int64, incoming [][]byte, write bool) (lo, hi, total int64, err error) {
	lo, hi = -1, -1
	for src, msg := range incoming {
		if len(msg) == 0 {
			continue
		}
		if len(msg) < 4 {
			return 0, 0, 0, fmt.Errorf("mpiio: truncated region list from rank %d", src)
		}
		n := regionCount(msg)
		if int64(len(msg)) < 4+16*int64(n) {
			return 0, 0, 0, fmt.Errorf("mpiio: truncated region list from rank %d (%d regions)", src, n)
		}
		var sum int64
		for i := 0; i < n; i++ {
			reg := regionAt(msg, i)
			if reg.Len <= 0 || reg.Off < clo || reg.Len > chi-reg.Off {
				return 0, 0, 0, fmt.Errorf("mpiio: region [%d,+%d) from rank %d outside chunk [%d,%d)", reg.Off, reg.Len, src, clo, chi)
			}
			if lo < 0 || reg.Off < lo {
				lo = reg.Off
			}
			hi = max(hi, reg.Off+reg.Len)
			sum += reg.Len
		}
		want := int64(0)
		if write {
			want = sum
		}
		if got := int64(len(payload(msg))); got != want {
			return 0, 0, 0, fmt.Errorf("mpiio: payload of %d bytes from rank %d, regions say %d", got, src, want)
		}
		total += sum
	}
	return lo, hi, total, nil
}

// tpRun is a stretch of this rank's memory that one round moves to or
// from aggregator agg: n bytes at memOff, in stream order.
type tpRun struct {
	agg       int
	memOff, n int64
}

// tpBufs are a File's two-phase buffers, reused by every round and
// operation. A round is done with all of them before the next begins:
// the fabric copies what it sends, and the self-message is used up
// within the round.
type tpBufs struct {
	regs  [][]flatten.Region // per aggregator: this rank's round regions, coalesced
	runs  []tpRun            // this rank's round, in stream order
	send  [][]byte           // per aggregator: this rank's round message
	reply []byte             // as aggregator: every requester's read reply, back to back
	out   [][]byte           // per requester: its reply within reply
	all   []flatten.Region   // as aggregator: the incoming write regions
}

// twoPhase runs the collective read or write.
func (f *File) twoPhase(env transport.Env, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int, write bool) error {
	first, last := int64(-1), int64(-1)
	if nbytes > 0 {
		first = f.firstFileByte(pos, nbytes)
		last = f.lastFileByte(pos, nbytes)
	}
	p := f.plan(env, first, last)
	if p.gmin < 0 {
		return nil // collectively empty
	}
	me := f.comm.Rank()
	size := f.comm.Size()
	st := f.stats()
	tp := &f.tp
	if len(tp.send) != size {
		*tp = tpBufs{regs: make([][]flatten.Region, size), send: make([][]byte, size), out: make([][]byte, size)}
	}
	for r := 0; r < p.rounds; r++ {
		// Phase 1: one pass over the access finds this rank's part of
		// every aggregator's round-r chunk.
		for a := range tp.regs {
			tp.regs[a] = tp.regs[a][:0]
		}
		tp.runs = tp.runs[:0]
		c := roundCursor{p: p, r: r, w: f.pairs(pos, nbytes, buf, memType, memCount), aLast: -1}
		for a, fo, mo, n, ok := c.next(); ok; a, fo, mo, n, ok = c.next() {
			tp.regs[a] = datatype.AppendRegion(tp.regs[a], fo, n)
			if k := len(tp.runs); k > 0 && tp.runs[k-1].agg == a && tp.runs[k-1].memOff+tp.runs[k-1].n == mo {
				tp.runs[k-1].n += n
			} else {
				tp.runs = append(tp.runs, tpRun{agg: a, memOff: mo, n: n})
			}
		}
		if c.w.err != nil {
			return c.w.err
		}
		// A write packs by walking its whole access every round, so it
		// pays per pair piece walked; a read pays per part its reply
		// scatters.
		copies := c.parts
		if write {
			copies = c.pairs
		}
		env.Compute(f.pv.Cost().MemcpyPerPiece * time.Duration(copies))
		for a, regs := range tp.regs {
			tp.send[a] = encodeRegions(tp.send[a][:0], regs)
		}
		if write {
			for _, run := range tp.runs {
				tp.send[run.agg] = append(tp.send[run.agg], buf[run.memOff:run.memOff+run.n]...)
			}
			for a, msg := range tp.send {
				if a != me {
					st.resent(int64(len(payload(msg))))
				}
			}
		}
		incoming := f.comm.Alltoallv(env, tp.send)
		// Phase 2: the aggregator's one contiguous access.
		clo, chi := p.chunk(me, r)
		lo, hi, total, err := decodeRound(clo, chi, incoming, write)
		if err != nil {
			return err
		}
		if write {
			if err := f.tpWriteChunk(env, lo, hi, incoming); err != nil {
				return err
			}
			continue
		}
		replies, err := f.tpReadChunk(env, lo, hi, total, incoming, me, st)
		if err != nil {
			return err
		}
		got := f.comm.Alltoallv(env, replies)
		for _, run := range tp.runs {
			data := got[run.agg]
			if int64(len(data)) < run.n {
				return fmt.Errorf("mpiio: aggregator %d returned short data", run.agg)
			}
			copy(buf[run.memOff:run.memOff+run.n], data)
			got[run.agg] = data[run.n:]
		}
	}
	return nil
}

// tpReadChunk reads [lo, hi) of this aggregator's round chunk and
// extracts each requester's regions, in its list order, into one reused
// reply buffer that total bytes fill.
func (f *File) tpReadChunk(env transport.Env, lo, hi, total int64, incoming [][]byte, me int, st *iostatsRef) ([][]byte, error) {
	var cbuf []byte
	if lo >= 0 {
		cbuf = f.scratch(hi - lo)
		if err := f.pv.ReadContig(env, lo, cbuf); err != nil {
			return nil, err
		}
	}
	if int64(cap(f.tp.reply)) < total {
		f.tp.reply = make([]byte, total)
	}
	reply := f.tp.reply[:0]
	for src, msg := range incoming {
		start := len(reply)
		for i := 0; i < regionCount(msg); i++ {
			reg := regionAt(msg, i)
			reply = append(reply, cbuf[reg.Off-lo:reg.Off-lo+reg.Len]...)
		}
		f.tp.out[src] = reply[start:]
		if n := len(reply) - start; n > 0 && src != me {
			st.resent(int64(n))
		}
	}
	return f.tp.out, nil
}

// tpWriteChunk merges the incoming regions' data into [lo, hi) of this
// aggregator's round chunk and writes it with one contiguous operation,
// pre-reading the span first if the regions leave holes.
func (f *File) tpWriteChunk(env transport.Env, lo, hi int64, incoming [][]byte) error {
	if lo < 0 {
		return nil // nothing to write this round
	}
	all := f.tp.all[:0]
	for _, msg := range incoming {
		for i := 0; i < regionCount(msg); i++ {
			all = append(all, regionAt(msg, i))
		}
	}
	f.tp.all = all
	cbuf := f.scratch(hi - lo)
	if !coveredSpan(all, lo, hi) {
		// Read-modify-write under MPI-IO semantics (no locks needed).
		if err := f.pv.ReadContig(env, lo, cbuf); err != nil {
			return err
		}
	}
	// Apply in source order for determinism.
	for _, msg := range incoming {
		data := payload(msg)
		for i := 0; i < regionCount(msg); i++ {
			reg := regionAt(msg, i)
			copy(cbuf[reg.Off-lo:], data[:reg.Len])
			data = data[reg.Len:]
		}
	}
	return f.pv.WriteContig(env, lo, cbuf)
}

// coveredSpan reports whether the union of regs covers [lo, hi). It
// sorts regs in place.
func coveredSpan(regs []flatten.Region, lo, hi int64) bool {
	slices.SortFunc(regs, func(x, y flatten.Region) int { return cmp.Compare(x.Off, y.Off) })
	at := lo
	for _, reg := range regs {
		if reg.Off > at {
			return false
		}
		at = max(at, reg.Off+reg.Len)
	}
	return at >= hi
}
