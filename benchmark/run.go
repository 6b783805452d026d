package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"dtio/internal/datatype"
	"dtio/internal/iostats"
	"dtio/internal/mpi"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/trace"
	"dtio/internal/transport"
)

const benchFile = "bench.dat"

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// seconds is the time the timed rounds may take; rounds stop at the
	// first round boundary past it, and never before minRounds.
	seconds   float64
	minRounds int
	trace     bool
	sc        scale
	workDir   string // parent of the cluster's object directory
	outDir    string // trace files
	// setups is how many times the system is set up (all but the last
	// torn down again) so setup_s is a median.
	setups int
	// log receives the remarks a run makes besides its result: each
	// failed operation, the vectored sweep's table.
	log io.Writer
	// corrupt makes the benchmark damage one read buffer, or one
	// read-back image, before checking it: a live check must then fail.
	corrupt bool
}

// cell is one (workload, method) pair and the clients that drive it.
type cell struct {
	m       mpiio.Method
	clients []*pvfs.Client
	// files[rank][view]; independent methods have one rank holding every
	// view, two-phase has two ranks holding the even and the odd views.
	files [][]*mpiio.File
	order []opRef
	next  int

	// Timed rounds only.
	rates  []float64       // MB/s of desired bytes, one per round
	traced []bool          // whether that round recorded spans
	lat    []time.Duration // every timed operation
	svc    histSnap        // server request service times
	wallNs int64           // sum of operation time
	allocs uint64          // process mallocs during the cell
	ops    int64

	// canon are the counter deltas of the canonical pass, per operation
	// source of every count metric.
	canon counts
}

// counts are the exact per-operation counters of the canonical pass.
type counts struct {
	ops    int64
	client iostats.Snapshot
	server iostats.Snapshot
	replay int64 // compiled replays
}

type bench struct {
	cfg   runConfig
	w     *workload
	tc    *cluster
	env   transport.Env
	plain *pvfs.Client
	pf    *pvfs.File
	cells []*cell
	rank1 *rankWorker

	expected [][][]byte // [view][frame], read workloads
	payload  [2][][]byte
	gen      []int // next payload variant per view
	shadow   []byte
	fileRegs [][]datatype.Region
	memRegs  []datatype.Region
	bufs     [2][]byte
	readback []byte
	digests  []string

	attempted, failed int64
	corrupted         bool
	tracer            *trace.Tracer
	loop0             serverCounters // at the first timed round
}

// rankWorker is two-phase's second rank: a goroutine that runs the
// collective calls handed to it, so both ranks of a pair are inside the
// call at once.
type rankWorker struct {
	req  chan func() error
	done chan error
}

func startRankWorker() *rankWorker {
	w := &rankWorker{req: make(chan func() error), done: make(chan error)}
	go func() {
		for fn := range w.req {
			w.done <- fn()
		}
		close(w.done)
	}()
	return w
}

// stop ends the goroutine and waits for it.
func (w *rankWorker) stop() {
	close(w.req)
	<-w.done
}

// setup brings the whole system to the point where a round can start:
// daemons up, file populated with the oracle image, oracles and
// payloads built, one file handle per (method, view) opened with its
// view set, and one datatype operation per view done (connections
// dialled, server loop caches filled).
func setup(cfg runConfig) (b *bench, err error) {
	w, err := newWorkload(cfg.workload, cfg.sc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	tc, err := startCluster(dir)
	if err != nil {
		return nil, err
	}
	b = &bench{cfg: cfg, w: w, tc: tc, env: tc.env, rank1: startRankWorker()}
	defer func() {
		if err != nil {
			b.stop()
		}
	}()
	b.plain = tc.client()
	if b.pf, err = b.plain.Create(b.env, benchFile, stripSize, 0); err != nil {
		return nil, err
	}
	if err = b.pf.WriteContig(b.env, 0, w.image); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}

	nv := len(w.views)
	b.gen = make([]int, nv)
	for v := range b.gen {
		b.gen[v] = 1 // the populated file holds variant 0
	}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, w.memBytes)
	}
	if w.write {
		// Variant 0 is the oracle payload; variant 1 is the oracle under
		// a seed-chosen mask, so consecutive writes of a view differ and
		// a write that did nothing is visible in the read-back.
		mask := byte(1 + rand.New(rand.NewSource(cfg.seed)).Intn(255))
		for v := 0; v < nv; v++ {
			p0 := make([]byte, w.memBytes)
			w.memOracle(v, p0)
			p1 := make([]byte, w.memBytes)
			for i, x := range p0 {
				p1[i] = x ^ mask
			}
			b.payload[0] = append(b.payload[0], p0)
			b.payload[1] = append(b.payload[1], p1)
			b.fileRegs = append(b.fileRegs, w.views[v].Flatten(0, 1))
		}
		b.memRegs = w.memType.Flatten(0, 1)
		b.shadow = append([]byte(nil), w.image...)
		b.readback = make([]byte, len(w.image))
	} else {
		b.expected = make([][][]byte, nv)
		for v := range b.expected {
			for f := 0; f < w.frames; f++ {
				e := make([]byte, w.opBytes)
				gather(e, w.image, w.views[v], int64(f)*w.frameBytes())
				b.expected[v] = append(b.expected[v], e)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	fabric := transport.NewMemFabric(2)
	for _, m := range methods {
		c := &cell{m: m}
		ranks, step := 1, 1
		if m == mpiio.TwoPhase {
			ranks, step = 2, 2
		}
		c.order = w.opOrder(rng, step)
		for r := 0; r < ranks; r++ {
			cl := tc.client()
			pf, err := cl.Open(b.env, benchFile)
			if err != nil {
				return nil, err
			}
			var comm *mpi.Comm
			if ranks > 1 {
				comm = mpi.NewComm(fabric, r, ranks)
			}
			files := make([]*mpiio.File, nv)
			for v := r; v < nv; v += ranks {
				f := mpiio.Open(pf, comm, m, mpiio.DefaultHints())
				if err := f.SetView(0, w.etype, w.views[v]); err != nil {
					return nil, err
				}
				files[v] = f
			}
			c.clients = append(c.clients, cl)
			c.files = append(c.files, files)
		}
		b.cells = append(b.cells, c)
	}
	dt := b.cells[mpiio.DtypeIO]
	for v := 0; v < nv; v++ {
		b.op(dt, opRef{v, 0}, nil)
	}
	if err := b.checkImage(dt); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) stop() {
	b.rank1.stop()
	b.tc.stop()
}

// op issues one operation of cell c and checks it. For two-phase the
// operation is the collective call of both ranks of the pair, timed
// from before the first rank enters to after the last one leaves. It
// returns the operation's duration; a failed or wrong operation counts
// in b.failed.
func (b *bench) op(c *cell, ref opRef, cellSpan *trace.Span) time.Duration {
	w := b.w
	off := int64(ref.frame) * (w.opBytes / w.etype.Size())
	ranks := len(c.files)
	var mem [2][]byte
	for r := 0; r < ranks; r++ {
		v := ref.view + r
		if w.write {
			mem[r] = b.payload[b.gen[v]%2][v]
		} else {
			mem[r] = b.bufs[r]
			clear(mem[r])
		}
	}
	call := func(r int) error {
		f := c.files[r][ref.view+r]
		switch {
		case ranks > 1 && w.write:
			return f.WriteAtAll(b.env, off, mem[r], w.memType, 1)
		case ranks > 1:
			return f.ReadAtAll(b.env, off, mem[r], w.memType, 1)
		case w.write:
			return f.WriteAt(b.env, off, mem[r], w.memType, 1)
		}
		return f.ReadAt(b.env, off, mem[r], w.memType, 1)
	}
	var sp *trace.Span
	if cellSpan != nil {
		sp = b.tracer.Begin(b.env, "bench", "op", cellSpan.SID())
		sp.SetStr("method", c.m.String())
		sp.SetAttr("view", int64(ref.view))
		sp.SetAttr("bytes", int64(ranks)*w.opBytes)
	}
	start := time.Now()
	var err error
	if ranks > 1 {
		b.rank1.req <- func() error { return call(1) }
		err = call(0)
		if err1 := <-b.rank1.done; err == nil {
			err = err1
		}
	} else {
		err = call(0)
	}
	d := time.Since(start)
	sp.End(b.env)

	b.attempted++
	ok := err == nil
	for r := 0; r < ranks; r++ {
		v := ref.view + r
		if w.write {
			// The file now holds this payload whether or not the call
			// reported success; the read-back after the cell decides.
			overlay(b.shadow, mem[r], b.fileRegs[v], b.memRegs)
			b.gen[v]++
			continue
		}
		if b.cfg.corrupt && !b.corrupted {
			mem[r][len(mem[r])/2] ^= 0x01
			b.corrupted = true
		}
		if !bytes.Equal(mem[r], b.expected[v][ref.frame]) {
			ok = false
		}
	}
	if !ok {
		b.failed++
		if err != nil {
			fmt.Fprintf(b.cfg.log, "# %s %s view %d frame %d: %v\n", w.name, c.m, ref.view, ref.frame, err)
		} else {
			fmt.Fprintf(b.cfg.log, "# %s %s view %d frame %d: bytes differ from the oracle\n", w.name, c.m, ref.view, ref.frame)
		}
	}
	return d
}

// checkImage reads the file back contiguously after a write cell and
// compares it with the shadow image. Every view whose bytes differ is
// one failed operation; the shadow is then resynchronised so one fault
// counts once.
func (b *bench) checkImage(c *cell) error {
	if !b.w.write {
		return nil
	}
	if err := b.pf.ReadContig(b.env, 0, b.readback); err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	if b.cfg.corrupt && !b.corrupted {
		b.readback[b.fileRegs[0][0].Off] ^= 0x01
		b.corrupted = true
	}
	if bytes.Equal(b.readback, b.shadow) {
		return nil
	}
	bad := int64(0)
	for _, regs := range b.fileRegs {
		for _, r := range regs {
			if !bytes.Equal(b.readback[r.Off:r.Off+r.Len], b.shadow[r.Off:r.Off+r.Len]) {
				bad++
				break
			}
		}
	}
	if bad == 0 {
		bad = 1 // bytes outside every view were disturbed
	}
	b.failed += bad
	fmt.Fprintf(b.cfg.log, "# %s %s: file differs from the oracle image in %d view(s)\n", b.w.name, c.m, bad)
	copy(b.shadow, b.readback)
	return nil
}

func (c *cell) clientCounters() iostats.Snapshot {
	var s iostats.Snapshot
	for _, cl := range c.clients {
		s = s.Add(cl.Stats.Snapshot())
	}
	return s
}

// canonical runs, for every method, the same two operations — views 0
// and 1 of frame 0, one collective call for two-phase — with the
// cluster otherwise idle, and keeps the counter deltas: they do not
// depend on the seed or on how many rounds fit the run, so they repeat
// exactly. On write workloads it first restores the file to the oracle
// image and afterwards digests the read-back, which must be equal
// across methods.
func (b *bench) canonical() error {
	for _, c := range b.cells {
		if b.w.write {
			if err := b.pf.WriteContig(b.env, 0, b.w.image); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			copy(b.shadow, b.w.image)
			for v := range b.gen {
				b.gen[v] = 1 // the file holds variant 0 everywhere
			}
		}
		c0, s0 := c.clientCounters(), b.tc.counters()
		n := int64(0)
		for v := 0; v < 2; v += len(c.files) {
			b.op(c, opRef{v, 0}, nil)
			n++
		}
		c1, s1 := c.clientCounters(), b.tc.counters()
		c.canon = counts{
			ops:    n,
			client: subSnap(c1, c0),
			server: subSnap(s1.io, s0.io),
			replay: s1.compiledReplays - s0.compiledReplays,
		}
		if err := b.checkImage(c); err != nil {
			return err
		}
		if b.w.write {
			h := fnv.New64a()
			h.Write(b.readback)
			b.digests = append(b.digests, fmt.Sprintf("%016x", h.Sum64()))
		}
	}
	for _, d := range b.digests {
		if d != b.digests[0] {
			b.failed++
			fmt.Fprintf(b.cfg.log, "# %s: digests differ across methods: %v\n", b.w.name, b.digests)
			break
		}
	}
	return nil
}

// subSnap is the counters of b that a cell added to a.
func subSnap(b, a iostats.Snapshot) iostats.Snapshot {
	return iostats.Snapshot{
		DesiredBytes:  b.DesiredBytes - a.DesiredBytes,
		AccessedBytes: b.AccessedBytes - a.AccessedBytes,
		IOOps:         b.IOOps - a.IOOps,
		WireMsgs:      b.WireMsgs - a.WireMsgs,
		ReqBytes:      b.ReqBytes - a.ReqBytes,
		ResentBytes:   b.ResentBytes - a.ResentBytes,
		DiskOps:       b.DiskOps - a.DiskOps,
		DiskOpsMerged: b.DiskOpsMerged - a.DiskOpsMerged,
		DiskVecOps:    b.DiskVecOps - a.DiskVecOps,
		SeekBytes:     b.SeekBytes - a.SeekBytes,
	}
}

// runCell runs one round of one cell: its fixed number of operations,
// drawn from the cell's shuffled cycle. A timed cell adds a rate sample
// (desired bytes over the sum of operation times; checking happens
// between operations and is not in it) and its latencies.
func (b *bench) runCell(c *cell, timed, traced bool) error {
	// Collect before the cell so that one cell's garbage is not swept
	// during the next cell's operations.
	runtime.GC()
	var cellSpan *trace.Span
	if traced {
		cellSpan = b.tracer.Begin(b.env, "bench", "cell", 0)
		cellSpan.SetStr("method", c.m.String())
	}
	var m0 runtime.MemStats
	if timed {
		runtime.ReadMemStats(&m0)
	}
	s0 := b.tc.counters()
	var sum time.Duration
	n := b.w.ops[c.m]
	for k := 0; k < n; k++ {
		ref := c.order[c.next%len(c.order)]
		c.next++
		d := b.op(c, ref, cellSpan)
		sum += d
		if timed {
			c.lat = append(c.lat, d)
		}
	}
	cellSpan.End(b.env)
	if timed {
		s1 := b.tc.counters()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.svc = c.svc.Add(s1.lat.Sub(s0.lat))
		c.wallNs += int64(sum)
		c.allocs += m1.Mallocs - m0.Mallocs
		c.ops += int64(n)
		bytes := int64(n) * int64(len(c.files)) * b.w.opBytes
		c.rates = append(c.rates, float64(bytes)/1e6/sum.Seconds())
		c.traced = append(c.traced, traced)
	}
	return b.checkImage(c)
}

// round runs every cell once; the starting cell rotates with r so no
// method always runs first or always follows the same neighbour.
func (b *bench) round(r int, timed, traced bool) error {
	for i := range b.cells {
		if err := b.runCell(b.cells[(i+r)%len(b.cells)], timed, traced); err != nil {
			return err
		}
	}
	return nil
}

// timedRounds runs rounds until the time allowed has passed, and at
// least minRounds. In a trace run rounds alternate untraced and traced.
func (b *bench) timedRounds(seconds float64) (int, error) {
	b.loop0 = b.tc.counters()
	start := time.Now()
	r := 0
	for ; r < b.cfg.minRounds || time.Since(start).Seconds() < seconds; r++ {
		if r >= b.cfg.minRounds {
			// Do not start a round that would overrun by more than half.
			per := time.Since(start).Seconds() / float64(r)
			if time.Since(start).Seconds()+per/2 > seconds {
				break
			}
		}
		if err := b.round(r+1, true, b.cfg.trace && r%2 == 1); err != nil {
			return r, err
		}
	}
	return r, nil
}

// sortedLat is the cell's timed latencies in ascending order.
func (c *cell) sortedLat() []time.Duration {
	s := append([]time.Duration(nil), c.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// roundPercentiles is the q-th percentile, in ms, of each timed round's
// operations; per is the cell's operation count per round.
func (c *cell) roundPercentiles(per int, q float64) []float64 {
	var out []float64
	for i := 0; i+per <= len(c.lat); i += per {
		r := append([]time.Duration(nil), c.lat[i:i+per]...)
		sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
		out = append(out, ms(percentile(r, q)))
	}
	return out
}

// rateOf returns the rate samples of traced or untraced rounds.
func (c *cell) rateOf(traced bool) []float64 {
	var out []float64
	for i, r := range c.rates {
		if c.traced[i] == traced {
			out = append(out, r)
		}
	}
	return out
}
