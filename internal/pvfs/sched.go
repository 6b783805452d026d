package pvfs

import (
	"sort"
	"sync"
	"time"

	"dtio/internal/iostats"
	"dtio/internal/storage"
	"dtio/internal/transport"
)

// DefaultSieveGapBytes is the default read gap-merge threshold of the
// disk scheduler: two runs separated by at most this many bytes are
// served by one over-reading disk operation. 64 KiB sits well below the
// ~25 KB/op break-even of the calibrated cost model times the typical
// merge fan-in, and matches the flow-control segment size so one
// sieved dispatch never dwarfs a streaming batch.
const DefaultSieveGapBytes = 64 * 1024

// vecMinRunBytes is the average-run-size floor for vectored dispatch.
// preadv/pwritev pay a per-iovec kernel cost, so once a coalesced
// operation's runs shrink toward cell size, one scalar access plus a
// scatter/gather copy through pooled scratch moves the same bytes
// faster than a long iovec list. Runs averaging at or above the floor
// (row-sized and larger) dispatch vectored; smaller ones stage. 1024 B
// is the crossover the repository benchmark measures on file-backed
// objects (storage.vec_crossover_bytes); at 512 B staging still wins.
const vecMinRunBytes = 1024

// writeSieveGapBytes is the widest hole a write run may jump to join the
// current operation (server-side data-sieving write, DESIGN.md §10): the
// operation pre-reads its extent, overlays the runs and writes the
// extent back, so the hole's bytes are rewritten unchanged under the
// object's latch. 4 KiB keeps the pre-read and rewrite of the holes
// cheaper than the per-run writes they replace; see
// TestWriteSieveConstants for the measured crossover.
const writeSieveGapBytes = 4 * 1024

// writeSieveMaxBytes caps the extent of a write operation that has
// jumped a hole, so one read-modify-write never dwarfs a flow-control
// segment and the pooled staging buffer stays segment-sized.
// Strictly adjacent runs still join without limit.
const writeSieveMaxBytes = DefaultStreamChunkBytes

// ioSpan is one physical run a request produces: n bytes at off on the
// server's local object, occupying [pos, pos+n) of the request-order
// payload (writes) or response (reads). Write runs carry their payload
// bytes; read runs are filled from disk.
type ioSpan struct {
	off, n int64
	pos    int64
	data   []byte
}

// diskOp is one dispatched disk operation: the coalesced runs
// sorted[first:first+count], issued as a single n-byte access at off.
// n may exceed the runs' byte total by gap bytes no run covers: a
// sieved read over-reads and discards them, a sieved write pre-reads
// and rewrites them (data sieving at the disk).
type diskOp struct {
	off, n       int64
	gap          int64
	first, count int
}

// segPlan is one planned dispatch batch: ops[opsFrom:opsTo] plus the
// batch's modeled disk time.
type segPlan struct {
	opsFrom, opsTo int
	cost           time.Duration
}

// diskSched is the per-request disk scheduler (DESIGN.md §10). It
// collects the physical runs a request produces, reorders each dispatch
// batch by physical offset (elevator order), coalesces strictly
// adjacent runs — plus runs separated by gaps up to the read sieve
// threshold, or, when write sieving is on, up to writeSieveGapBytes —
// and prices the result per dispatched operation with a seek term
// proportional to head travel. The head position carries across a
// request's batches, so a streamed transfer that continues sequentially
// pays one positioning charge, not one per segment.
type diskSched struct {
	cost    CostModel
	stats   *iostats.Stats
	write   bool
	vecMin  int64 // average-run floor for vectored dispatch (0: always)
	gap     int64 // read gap-merge threshold (0 = adjacency only)
	scale   int64 // disk-time multiplier in percent (0 or 100 = normal)
	head    int64 // head position after the last dispatched op
	started bool  // head is meaningful

	// Writes only: sieve lets runs join across holes (read-modify-write),
	// and latch is the object's latch, held around each batch's stores.
	sieve bool
	latch *sync.Mutex

	spans  []ioSpan  // arrival order, as the request walk produced them
	sorted []ioSpan  // dispatch order, one batch after another
	ops    []diskOp  // dispatched operations; first/count index sorted
	segs   []segPlan // per-segment plans of a streamed read
	iov    [][]byte  // scatter-gather list reused across vectored ops
	byOff  spanOrder // the batch planBatch sorts
}

// spanOrder orders a batch's runs by offset, then stream position.
// planBatch sorts it through a diskSched field, so sorting allocates
// nothing.
type spanOrder []ioSpan

func (o *spanOrder) Len() int { return len(*o) }

func (o *spanOrder) Less(i, j int) bool {
	b := *o
	if b[i].off != b[j].off {
		return b[i].off < b[j].off
	}
	return b[i].pos < b[j].pos
}

func (o *spanOrder) Swap(i, j int) { b := *o; b[i], b[j] = b[j], b[i] }

// schedPool recycles schedulers (and their slices) across requests so
// the read/write hot paths stay allocation-free in steady state.
var schedPool = sync.Pool{New: func() any { return new(diskSched) }}

// newSched returns a pooled scheduler configured for this server.
func (s *Server) newSched(write bool) *diskSched {
	d := schedPool.Get().(*diskSched)
	d.cost = s.cost
	d.stats = s.Stats
	d.write = write
	d.sieve = write && !s.AdjacentWritesOnly
	d.vecMin = vecMinRunBytes
	d.gap = s.SieveGapBytes
	d.scale = s.diskScale.Load()
	d.head = 0
	d.started = false
	return d
}

// clearSpans drops payload references so pooled slices don't pin
// request buffers, and truncates.
func clearSpans(s []ioSpan) []ioSpan {
	for i := range s {
		s[i].data = nil
	}
	return s[:0]
}

func putSched(d *diskSched) {
	d.spans = clearSpans(d.spans)
	d.sorted = clearSpans(d.sorted)
	d.ops = d.ops[:0]
	d.segs = d.segs[:0]
	d.iov = clearIov(d.iov)
	d.stats = nil
	d.latch = nil
	d.vecMin = 0
	schedPool.Put(d)
}

// clearIov drops buffer references so the pooled scatter-gather list
// doesn't pin response frames or payload segments, and truncates.
func clearIov(iov [][]byte) [][]byte {
	for i := range iov {
		iov[i] = nil
	}
	return iov[:0]
}

// add records one physical run. Zero-length runs are dropped here: they
// produce no disk operation and charge no disk time (a request that
// touches zero bytes must not occupy the disk).
func (d *diskSched) add(off, n, pos int64, data []byte) {
	if n <= 0 {
		return
	}
	d.spans = append(d.spans, ioSpan{off: off, n: n, pos: pos, data: data})
}

// writeOverlap reports whether any two offset-sorted write runs touch
// the same byte.
func writeOverlap(b []ioSpan) bool {
	for i := 1; i < len(b); i++ {
		if b[i].off < b[i-1].off+b[i-1].n {
			return true
		}
	}
	return false
}

// planBatch schedules one dispatch batch: it appends the batch to the
// dispatch-order list, coalesces it into operations, and prices them.
// batch must not alias d.sorted. Overlapping write runs fall back to
// arrival order — reordering them would change the bytes on disk — and
// are never sieved. A sieving write run joins across a hole of at most
// writeSieveGapBytes while the operation's extent stays within
// writeSieveMaxBytes.
func (d *diskSched) planBatch(batch []ioSpan) segPlan {
	p := segPlan{opsFrom: len(d.ops), opsTo: len(d.ops)}
	if len(batch) == 0 {
		return p
	}
	from := len(d.sorted)
	d.sorted = append(d.sorted, batch...)
	b := d.sorted[from:]
	d.byOff = b
	sort.Sort(&d.byOff)
	sieve := d.sieve
	if d.write && writeOverlap(b) {
		copy(b, batch)
		sieve = false
	}
	cur := diskOp{off: b[0].off, n: b[0].n, first: from, count: 1}
	for i := 1; i < len(b); i++ {
		sp := b[i]
		end := cur.off + cur.n
		join := sp.off >= cur.off && sp.off <= end+d.gap
		if d.write {
			join = sp.off == end || sieve && sp.off > end &&
				sp.off-end <= writeSieveGapBytes && sp.off+sp.n-cur.off <= writeSieveMaxBytes
		}
		if join {
			if sp.off > end {
				cur.gap += sp.off - end
			}
			if e := sp.off + sp.n; e > end {
				cur.n = e - cur.off
			}
			cur.count++
			continue
		}
		d.ops = append(d.ops, cur)
		cur = diskOp{off: sp.off, n: sp.n, first: from + i, count: 1}
	}
	d.ops = append(d.ops, cur)
	p.opsTo = len(d.ops)
	p.cost = d.charge(d.ops[p.opsFrom:p.opsTo], int64(len(batch)))
	return p
}

// charge prices one batch's operations and advances the head. An
// operation starting exactly at the head continues the previous
// dispatch sequentially: no positioning charge and no new operation
// counted — the disk just keeps streaming. A sieved write is one
// dispatched operation that also pays for reading its extent first.
func (d *diskSched) charge(ops []diskOp, nIn int64) time.Duration {
	var t time.Duration
	var nOut, seek, rmw, rmwGap int64
	for _, op := range ops {
		if d.write && op.gap > 0 {
			t += d.cost.diskXfer(op.n, false)
			rmw++
			rmwGap += op.gap
		}
		if !d.started || op.off != d.head {
			t += d.cost.DiskPerOp
			if d.started {
				dist := op.off - d.head
				if dist < 0 {
					dist = -dist
				}
				t += d.cost.diskSeek(dist)
				seek += dist
			}
			nOut++
		}
		t += d.cost.diskXfer(op.n, d.write)
		d.head = op.off + op.n
		d.started = true
	}
	if d.stats != nil {
		d.stats.AddDisk(nIn, nOut, seek)
		if rmw > 0 {
			d.stats.AddRMW(rmw, rmwGap)
		}
	}
	if d.scale > 0 && d.scale != 100 {
		t = t * time.Duration(d.scale) / 100
	}
	return t
}

// runReads plans and executes a non-streamed read: every collected
// run's bytes land at dst[run.pos:]. Disk time is charged after the
// data is read, where the pre-scheduler path charged it.
func (d *diskSched) runReads(env transport.Env, st storage.Store, dst []byte) error {
	p := d.planBatch(d.spans)
	if err := d.readBatch(st, p, dst, 0); err != nil {
		return err
	}
	env.DiskUse(p.cost)
	return nil
}

// readBatch executes one planned batch's reads: single-run operations
// land directly in dst, and coalesced ones dispatch as one vectored
// scatter (storage.ReadAtv — preadv on file stores) whose buffers are
// the runs' dst windows, so run bytes never pass through a staging
// copy. Sieved gap bytes scatter into a pooled throwaway slice. Runs
// that overlap on disk (the same bytes feed two response positions)
// cannot scatter in one pass, so those operations — and every one whose
// runs average below the vecMin floor — stage through a pooled scratch
// buffer and copy out per run. Either way the response is
// byte-identical. base translates absolute payload positions into dst
// indices.
func (d *diskSched) readBatch(st storage.Store, p segPlan, dst []byte, base int64) error {
	for _, op := range d.ops[p.opsFrom:p.opsTo] {
		runs := d.sorted[op.first : op.first+op.count]
		if op.count == 1 {
			sp := runs[0]
			if err := st.ReadAt(dst[sp.pos-base:sp.pos-base+sp.n], sp.off); err != nil {
				return err
			}
			continue
		}
		if maxGap, runBytes, ok := vecLayout(op, runs); ok && runBytes >= d.vecMin*int64(op.count) {
			if err := d.readVec(st, op, runs, dst, base, maxGap); err != nil {
				return err
			}
			continue
		}
		bp := getBuf(int(op.n))
		if err := st.ReadAt(*bp, op.off); err != nil {
			putBuf(bp)
			return err
		}
		for _, sp := range runs {
			copy(dst[sp.pos-base:sp.pos-base+sp.n], (*bp)[sp.off-op.off:sp.off-op.off+sp.n])
		}
		putBuf(bp)
	}
	return nil
}

// vecLayout reports whether a coalesced operation's runs are ascending
// and non-overlapping — the layout a one-pass scatter can serve — plus
// the widest gap between consecutive runs (the scratch size the gap
// buffers need) and the runs' byte total (for the vecMin floor). Sorted
// read runs may still overlap: the join rule admits any run starting
// inside the current operation.
func vecLayout(op diskOp, runs []ioSpan) (maxGap, runBytes int64, ok bool) {
	end := op.off
	for _, sp := range runs {
		if sp.off < end {
			return 0, 0, false
		}
		if g := sp.off - end; g > maxGap {
			maxGap = g
		}
		runBytes += sp.n
		end = sp.off + sp.n
	}
	return maxGap, runBytes, true
}

// readVec dispatches one coalesced operation as a single vectored read.
// Every gap shares one pooled scratch slice: the store fills buffers in
// ascending offset order and gap bytes are discarded, so the aliasing
// is harmless.
func (d *diskSched) readVec(st storage.Store, op diskOp, runs []ioSpan, dst []byte, base, maxGap int64) error {
	iov := d.iov[:0]
	var gp *[]byte
	if maxGap > 0 {
		gp = getBuf(int(maxGap))
	}
	end := op.off
	for _, sp := range runs {
		if g := sp.off - end; g > 0 {
			iov = append(iov, (*gp)[:g])
		}
		iov = append(iov, dst[sp.pos-base:sp.pos-base+sp.n])
		end = sp.off + sp.n
	}
	err := st.ReadAtv(iov, op.off)
	if gp != nil {
		putBuf(gp)
	}
	d.iov = clearIov(iov)
	if d.stats != nil {
		d.stats.AddVec(1)
	}
	return err
}

// flushWrites dispatches the runs buffered so far — a whole inline
// payload, or one flow-control segment's worth of a streamed one — and
// resets the batch, keeping the head position. The disk charge lands
// before the writes, where the streamed path's per-segment charge was.
// The object's latch is held only around the stores themselves, never
// across an env call or a stream receive, so neither the simulator nor
// a slow sender can park a goroutine that holds it.
func (d *diskSched) flushWrites(env transport.Env, st storage.Store) error {
	if len(d.spans) == 0 {
		return nil
	}
	p := d.planBatch(d.spans)
	env.DiskUse(p.cost)
	if d.latch != nil {
		d.latch.Lock()
	}
	err := d.writeBatch(st, p)
	if d.latch != nil {
		d.latch.Unlock()
	}
	d.spans = clearSpans(d.spans)
	d.sorted = clearSpans(d.sorted)
	d.ops = d.ops[:0]
	return err
}

// writeBatch executes one planned batch's writes: single-run operations
// write their payload directly, and coalesced gap-free ones hand their
// payload slices to the store as one vectored gather (storage.WriteAtv
// — pwritev on file stores), zero-copy; the gather covers the operation
// exactly. Runs averaging below the vecMin floor gather into a pooled
// scratch buffer and issue one scalar WriteAt instead. A sieved
// operation (op.gap > 0) takes the same staging path, after one ReadAt
// of its extent fills the holes with the bytes already on disk. The
// caller holds the object's latch, so no other store write lands
// between that read and the write-back.
func (d *diskSched) writeBatch(st storage.Store, p segPlan) error {
	for _, op := range d.ops[p.opsFrom:p.opsTo] {
		runs := d.sorted[op.first : op.first+op.count]
		if op.count == 1 {
			if err := st.WriteAt(runs[0].data, op.off); err != nil {
				return err
			}
			continue
		}
		if op.gap == 0 && op.n >= d.vecMin*int64(op.count) {
			iov := d.iov[:0]
			for _, sp := range runs {
				iov = append(iov, sp.data)
			}
			err := st.WriteAtv(iov, op.off)
			d.iov = clearIov(iov)
			if d.stats != nil {
				d.stats.AddVec(1)
			}
			if err != nil {
				return err
			}
			continue
		}
		bp := getBuf(int(op.n))
		if op.gap > 0 {
			if err := st.ReadAt(*bp, op.off); err != nil {
				putBuf(bp)
				return err
			}
		}
		for _, sp := range runs {
			copy((*bp)[sp.off-op.off:], sp.data)
		}
		err := st.WriteAt(*bp, op.off)
		putBuf(bp)
		if err != nil {
			return err
		}
	}
	return nil
}

// planStream splits the collected read runs at flow-control segment
// boundaries of the response payload and plans one dispatch batch per
// segment, in order (the head carries across batches, so a run split by
// a segment boundary continues sequentially for free). It returns one
// plan per segment; execute them with readBatch in the same order.
func (d *diskSched) planStream(total, seg int64) []segPlan {
	nseg := (total + seg - 1) / seg
	split := make([]ioSpan, 0, len(d.spans)+int(nseg))
	starts := make([]int, nseg+1)
	k := int64(0)
	for _, sp := range d.spans {
		for sp.n > 0 {
			for sp.pos >= (k+1)*seg {
				k++
				starts[k] = len(split)
			}
			take := (k+1)*seg - sp.pos
			if take > sp.n {
				take = sp.n
			}
			split = append(split, ioSpan{off: sp.off, n: take, pos: sp.pos})
			sp.off += take
			sp.pos += take
			sp.n -= take
		}
	}
	starts[nseg] = len(split)
	d.segs = d.segs[:0]
	for k := int64(0); k < nseg; k++ {
		d.segs = append(d.segs, d.planBatch(split[starts[k]:starts[k+1]]))
	}
	return d.segs
}
