package mpiio

import (
	"encoding/binary"
	"fmt"
	"sort"
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

// tpPiece is one of this rank's sub-pieces within one aggregator's
// current chunk.
type tpPiece struct {
	fileOff int64
	memOff  int64
	n       int64
}

// roundPieces walks this rank's access and collects, per aggregator, the
// pieces falling into that aggregator's round-r chunk.
func (f *File) roundPieces(p *tpPlan, r int, pos, nbytes int64, memType *datatype.Type, memCount int, buf []byte) ([][]tpPiece, error) {
	out := make([][]tpPiece, f.comm.Size())
	w := f.pairs(pos, nbytes, buf, memType, memCount)
	for fo, mo, n, ok := w.next(); ok; fo, mo, n, ok = w.next() {
		// A piece may span several aggregators' chunks.
		aFirst := p.aggOf(fo)
		aLast := p.aggOf(fo + n - 1)
		for a := aFirst; a <= aLast; a++ {
			lo, hi := p.chunk(a, r)
			if lo == hi {
				continue
			}
			c, ok := flatten.Clip(flatten.Region{Off: fo, Len: n}, lo, hi)
			if !ok {
				continue
			}
			out[a] = append(out[a], tpPiece{
				fileOff: c.Off,
				memOff:  mo + (c.Off - fo),
				n:       c.Len,
			})
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	return out, nil
}

// decodeReq parses a wire region list into (off, len) pairs.
func decodeReq(b []byte) ([]flatten.Region, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("mpiio: truncated request list")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+16*n {
		return nil, fmt.Errorf("mpiio: truncated request list (%d entries)", n)
	}
	out := make([]flatten.Region, n)
	at := 4
	for i := range out {
		out[i].Off = int64(binary.LittleEndian.Uint64(b[at:]))
		out[i].Len = int64(binary.LittleEndian.Uint64(b[at+8:]))
		at += 16
	}
	return out, nil
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
	for r := 0; r < p.rounds; r++ {
		var mine [][]tpPiece
		if !write {
			var err error
			mine, err = f.roundPieces(p, r, pos, nbytes, memType, memCount, buf)
			if err != nil {
				return err
			}
			var pieces int64
			for a := range mine {
				pieces += int64(len(mine[a]))
			}
			env.Compute(f.pv.Cost().MemcpyPerPiece * time.Duration(pieces))
		}
		if write {
			// Phase 1: ship region lists + data to aggregators.
			send, dataLens, pieces, err := f.buildWriteRound(p, r, pos, nbytes, buf, memType, memCount)
			if err != nil {
				return err
			}
			env.Compute(f.pv.Cost().MemcpyPerPiece * time.Duration(pieces))
			for a := 0; a < size; a++ {
				if a != me {
					st.resent(dataLens[a])
				}
			}
			incoming := f.comm.Alltoallv(env, send)
			// Phase 2: aggregate and write my chunk.
			if err := f.tpWriteChunk(env, p, r, incoming); err != nil {
				return err
			}
		} else {
			// Phase 1: ship region lists to aggregators (adjacent
			// pieces coalesce on the wire; reply data order is
			// unchanged, so the piece-level scatter below still works).
			send := make([][]byte, size)
			for a := 0; a < size; a++ {
				if len(mine[a]) != 0 {
					send[a] = encodeCoalesced(mine[a])
				}
			}
			incoming := f.comm.Alltoallv(env, send)
			// Phase 2: read my chunk and redistribute.
			replies, err := f.tpReadChunk(env, p, r, incoming, me, st)
			if err != nil {
				return err
			}
			got := f.comm.Alltoallv(env, replies)
			// Scatter replies into memory, in the same piece order the
			// requests were generated.
			for a := 0; a < size; a++ {
				data := got[a]
				var cur int64
				for _, pc := range mine[a] {
					if cur+pc.n > int64(len(data)) {
						return fmt.Errorf("mpiio: aggregator %d returned short data", a)
					}
					copy(buf[pc.memOff:pc.memOff+pc.n], data[cur:cur+pc.n])
					cur += pc.n
				}
			}
		}
	}
	return nil
}

// tpReadChunk reads this aggregator's round chunk (clipped to the bytes
// actually requested) and extracts each requester's regions.
func (f *File) tpReadChunk(env transport.Env, p *tpPlan, r int, incoming [][]byte, me int, st *iostatsRef) ([][]byte, error) {
	reqs := make([][]flatten.Region, len(incoming))
	lo, hi := int64(-1), int64(-1)
	for src, msg := range incoming {
		regs, err := decodeReq(msg)
		if err != nil {
			return nil, err
		}
		reqs[src] = regs
		for _, reg := range regs {
			if lo < 0 || reg.Off < lo {
				lo = reg.Off
			}
			if reg.Off+reg.Len > hi {
				hi = reg.Off + reg.Len
			}
		}
	}
	replies := make([][]byte, len(incoming))
	if lo < 0 {
		return replies, nil // nothing requested this round
	}
	cbuf := f.scratch(hi - lo)
	if err := f.pv.ReadContig(env, lo, cbuf); err != nil {
		return nil, err
	}
	for src, regs := range reqs {
		if len(regs) == 0 {
			continue
		}
		var total int64
		for _, reg := range regs {
			total += reg.Len
		}
		out := make([]byte, 0, total)
		for _, reg := range regs {
			if reg.Off < lo || reg.Off+reg.Len > hi {
				return nil, fmt.Errorf("mpiio: request outside chunk")
			}
			out = append(out, cbuf[reg.Off-lo:reg.Off-lo+reg.Len]...)
		}
		replies[src] = out
		if src != me {
			st.resent(total)
		}
	}
	return replies, nil
}

// tpWriteChunk merges incoming regions+data into this aggregator's round
// chunk and writes it with one contiguous operation, pre-reading the
// span first if the incoming regions leave holes.
func (f *File) tpWriteChunk(env transport.Env, p *tpPlan, r int, incoming [][]byte) error {
	type srcRegs struct {
		regs []flatten.Region
		data []byte
	}
	var all []flatten.Region
	parsed := make([]srcRegs, len(incoming))
	lo, hi := int64(-1), int64(-1)
	for src, msg := range incoming {
		regs, err := decodeReq(msg)
		if err != nil {
			return err
		}
		if len(regs) == 0 {
			continue
		}
		var total int64
		for _, reg := range regs {
			total += reg.Len
			if lo < 0 || reg.Off < lo {
				lo = reg.Off
			}
			if reg.Off+reg.Len > hi {
				hi = reg.Off + reg.Len
			}
		}
		dataStart := 4 + 16*len(regs)
		if int64(len(msg)-dataStart) != total {
			return fmt.Errorf("mpiio: write payload %d bytes, regions say %d", len(msg)-dataStart, total)
		}
		parsed[src] = srcRegs{regs: regs, data: msg[dataStart:]}
		all = append(all, regs...)
	}
	if lo < 0 {
		return nil // nothing to write this round
	}
	covered := coveredSpan(all, lo, hi)
	cbuf := f.scratch(hi - lo)
	if !covered {
		// Read-modify-write under MPI-IO semantics (no locks needed).
		if err := f.pv.ReadContig(env, lo, cbuf); err != nil {
			return err
		}
	}
	// Apply in source order for determinism.
	for _, sr := range parsed {
		var cur int64
		for _, reg := range sr.regs {
			if reg.Off < lo || reg.Off+reg.Len > hi {
				return fmt.Errorf("mpiio: write region outside chunk")
			}
			copy(cbuf[reg.Off-lo:reg.Off-lo+reg.Len], sr.data[cur:cur+reg.Len])
			cur += reg.Len
		}
	}
	return f.pv.WriteContig(env, lo, cbuf)
}

// coveredSpan reports whether the union of regions covers [lo, hi).
func coveredSpan(regs []flatten.Region, lo, hi int64) bool {
	if len(regs) == 0 {
		return false
	}
	sorted := make([]flatten.Region, len(regs))
	copy(sorted, regs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	at := lo
	for _, reg := range sorted {
		if reg.Off > at {
			return false
		}
		if end := reg.Off + reg.Len; end > at {
			at = end
		}
	}
	return at >= hi
}

// encodeCoalesced serializes the (fileOff, n) list of pieces, merging
// file-adjacent neighbors.
func encodeCoalesced(pieces []tpPiece) []byte {
	regs := make([]flatten.Region, 0, 16)
	for _, pc := range pieces {
		if k := len(regs); k > 0 && regs[k-1].Off+regs[k-1].Len == pc.fileOff {
			regs[k-1].Len += pc.n
			continue
		}
		regs = append(regs, flatten.Region{Off: pc.fileOff, Len: pc.n})
	}
	out := make([]byte, 0, 4+16*len(regs))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(regs)))
	for _, reg := range regs {
		out = binary.LittleEndian.AppendUint64(out, uint64(reg.Off))
		out = binary.LittleEndian.AppendUint64(out, uint64(reg.Len))
	}
	return out
}

// buildWriteRound streams this rank's access once, producing for each
// aggregator the round-r message: a coalesced region list followed by the
// data bytes in stream order. Nothing piece-granular is materialized, so
// fine-grained patterns (FLASH: single-element memory pieces) stay cheap.
func (f *File) buildWriteRound(p *tpPlan, r int, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int) (send [][]byte, dataLens []int64, pieces int64, err error) {
	size := f.comm.Size()
	regs := make([][]flatten.Region, size)
	data := make([][]byte, size)
	w := f.pairs(pos, nbytes, buf, memType, memCount)
	for fo, mo, n, ok := w.next(); ok; fo, mo, n, ok = w.next() {
		pieces++
		aFirst := p.aggOf(fo)
		aLast := p.aggOf(fo + n - 1)
		for a := aFirst; a <= aLast; a++ {
			lo, hi := p.chunk(a, r)
			if lo == hi {
				continue
			}
			c, ok := flatten.Clip(flatten.Region{Off: fo, Len: n}, lo, hi)
			if !ok {
				continue
			}
			if k := len(regs[a]); k > 0 && regs[a][k-1].Off+regs[a][k-1].Len == c.Off {
				regs[a][k-1].Len += c.Len
			} else {
				regs[a] = append(regs[a], c)
			}
			m := mo + (c.Off - fo)
			data[a] = append(data[a], buf[m:m+c.Len]...)
		}
	}
	if w.err != nil {
		return nil, nil, 0, w.err
	}
	send = make([][]byte, size)
	dataLens = make([]int64, size)
	for a := 0; a < size; a++ {
		if len(regs[a]) == 0 {
			continue
		}
		msg := make([]byte, 0, 4+16*len(regs[a])+len(data[a]))
		msg = binary.LittleEndian.AppendUint32(msg, uint32(len(regs[a])))
		for _, reg := range regs[a] {
			msg = binary.LittleEndian.AppendUint64(msg, uint64(reg.Off))
			msg = binary.LittleEndian.AppendUint64(msg, uint64(reg.Len))
		}
		msg = append(msg, data[a]...)
		send[a] = msg
		dataLens[a] = int64(len(data[a]))
	}
	return send, dataLens, pieces, nil
}
