package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/flatten"
	"dtio/internal/mpi"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/storage"
	"dtio/internal/striping"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// The layer replay: the benchmark calls each module's public functions
// on the inputs one operation of the workload feeds them (view 0, frame
// 0, server 0's share) and times the calls itself. Nothing here reads a
// timer inside the program under test.

// replayer times layer calls under one "replay" root span.
type replayer struct {
	env  transport.Env
	tr   *trace.Tracer
	root *trace.Span
	log  io.Writer
	reps int // repetitions of each timed call
}

// sink keeps a timed loop's result alive so the loop is not optimised away.
var sink int64

// time runs fn reps times, each under its own child span, and returns
// the median duration of one call. inner > 1 means fn is too short for
// the clock: each span then times inner back-to-back calls and the
// result is per call.
func (r *replayer) time(name string, reps, inner int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		sp := r.tr.Begin(r.env, "bench", name, r.root.SID())
		start := time.Now()
		for k := 0; k < inner; k++ {
			fn()
		}
		ds[i] = time.Since(start) / time.Duration(inner)
		sp.End(r.env)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// serverRun is one physical run of server 0's share of an operation.
type serverRun struct{ phys, n int64 }

// diskOp is a batch of runs the disk scheduler would dispatch as one
// storage call: runs merged on strict adjacency (writes) or across gaps
// up to the sieve threshold (reads).
type diskOp struct {
	off  int64
	runs []serverRun
}

// planOps mirrors the scheduler's documented merge rule on one
// server's runs, so the storage layer is replayed on the batch shape
// the server hands it.
func planOps(runs []serverRun, gap int64) []diskOp {
	sorted := append([]serverRun(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].phys < sorted[j].phys })
	var ops []diskOp
	var end int64
	for _, r := range sorted {
		if n := len(ops); n > 0 && r.phys >= end && r.phys-end <= gap {
			ops[n-1].runs = append(ops[n-1].runs, r)
		} else {
			ops = append(ops, diskOp{off: r.phys, runs: []serverRun{r}})
		}
		end = r.phys + r.n
	}
	return ops
}

// iovecs builds the scatter/gather list of one op over buf (run bytes)
// with gaps landing in scratch, and returns it with the run byte total.
func (op diskOp) iovecs(buf, scratch []byte) ([][]byte, int64) {
	var iov [][]byte
	var pos int64
	end := op.off
	for _, r := range op.runs {
		if g := r.phys - end; g > 0 {
			iov = append(iov, scratch[:g])
		}
		iov = append(iov, buf[pos:pos+r.n])
		pos += r.n
		end = r.phys + r.n
	}
	return iov, pos
}

func (b *bench) layerMetrics() (map[string]metric, error) {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	w := b.w
	reps := b.cfg.sc.reps
	r := &replayer{env: b.env, tr: b.tracer, log: b.cfg.log, reps: reps}
	r.root = b.tracer.Begin(b.env, "bench", "replay", 0)
	defer r.root.End(b.env)

	// --- dataloop: the view as the client converts, ships and the
	// server decodes it.
	view := w.views[0]
	var floop *dataloop.Loop
	convT := r.time("dataloop.FromType", reps, 1, func() { floop = dataloop.FromType(view) })
	set("dataloop.convert_us", us(convT), "us")
	var enc []byte
	encodeT := r.time("dataloop.Encode", reps, 10, func() { enc = floop.Encode(nil) })
	set("dataloop.encode_us", us(encodeT), "us")
	var decErr error
	decodeT := r.time("dataloop.Decode", reps, 10, func() { _, _, decErr = dataloop.Decode(enc) })
	if decErr != nil {
		return nil, fmt.Errorf("replay: decode: %w", decErr)
	}
	set("dataloop.decode_us", us(decodeT), "us")
	set("dataloop.wire_bytes", float64(floop.EncodedSize()), "B")
	var segRegions int64
	segT := r.time("dataloop.Segment.Process", reps, 1, func() {
		segRegions = 0
		dataloop.NewSegment(floop, 1).Process(0, func(off, n int64) bool { segRegions++; return true })
	})
	set("dataloop.segment_ns_per_region", ratio(float64(segT), float64(segRegions)), "ns")

	// --- flatten: compile once, replay per request (server); iterate
	// (list I/O) and pair with memory (every client method).
	memLoop := dataloop.FromType(w.memType)
	var prog *flatten.Program
	compileT := r.time("flatten.Compile", reps, 1, func() { prog = flatten.Compile(floop) })
	set("flatten.compile_us", us(compileT), "us")
	var runs int64
	replayFn := func(emit func(off, n int64)) {
		if prog != nil {
			_ = prog.Replay(1, 0, 0, w.opBytes, func(off, n int64) error { emit(off, n); return nil })
			return
		}
		// Compile declined: the server falls back to the interpreted walk.
		it := flatten.NewIterAt(floop, 1, 0, 0, w.opBytes, true)
		for reg, ok := it.Next(); ok; reg, ok = it.Next() {
			emit(reg.Off, reg.Len)
		}
	}
	replayT := r.time("flatten.Program.Replay", reps, 1, func() {
		runs = 0
		replayFn(func(off, n int64) { runs++ })
	})
	set("flatten.replay_ns_per_run", ratio(float64(replayT), float64(runs)), "ns")
	var fileRegs []flatten.Region
	iterT := r.time("flatten.Iter.Collect", reps, 1, func() {
		fileRegs = flatten.NewIterAt(floop, 1, 0, 0, w.opBytes, true).Collect()
	})
	set("flatten.iter_ns_per_region", ratio(float64(iterT), float64(len(fileRegs))), "ns")
	memRegs := flatten.NewIter(memLoop, 1, 0, true).Collect()
	var pieces int64
	dualT := r.time("flatten.Dual", reps, 1, func() {
		pieces = 0
		d := flatten.NewDual(flatten.NewIterAt(floop, 1, 0, 0, w.opBytes, true), flatten.NewIter(memLoop, 1, 0, true))
		for _, _, n, ok := d.Next(); ok; _, _, n, ok = d.Next() {
			pieces++
			sink += n
		}
	})
	set("flatten.dual_ns_per_piece", ratio(float64(dualT), float64(pieces)), "ns")
	set("flatten.file_regions_per_op", float64(len(fileRegs)), "count")
	set("flatten.mem_regions_per_op", float64(len(memRegs)), "count")

	// --- striping: the op's file regions cut at strip boundaries.
	lay := b.pf.Layout()
	var stripePieces int64
	var srv0 []serverRun
	splitT := r.time("striping.Layout.Split", reps, 1, func() {
		stripePieces = 0
		srv0 = srv0[:0]
		for _, reg := range fileRegs {
			lay.Split(reg.Off, reg.Len, func(p striping.Piece) bool {
				stripePieces++
				if p.Server == 0 {
					srv0 = append(srv0, serverRun{p.Phys, p.Len})
				}
				return true
			})
		}
	})
	set("striping.split_ns_per_piece", ratio(float64(splitT), float64(stripePieces)), "ns")
	set("striping.pieces_per_op", float64(stripePieces), "count")

	// --- wire: the three request formats of this operation, as sent
	// to server 0.
	payload := make([]byte, w.memBytes)
	if w.write {
		copy(payload, b.payload[0][0])
	}
	wl := wire.FileLayout{Handle: 1, StripSize: lay.StripSize, NServers: int32(lay.NServers), Base: int32(lay.Base)}
	tag := wire.ReqTag{Client: 1, Seq: 1}
	run0 := fileRegs[0]
	contig := &wire.ContigReq{Tag: tag, Layout: wl, Off: run0.Off, N: run0.Len}
	if w.write {
		contig.Data = payload[:min(run0.Len, memRegs[0].Len)]
		contig.N = int64(len(contig.Data))
	}
	var msg []byte
	set("wire.contig_encode_ns", float64(r.time("wire.EncodeContig", reps, 100, func() { msg = wire.EncodeContig(contig, w.write) })), "ns")
	var werr error
	set("wire.contig_decode_ns", float64(r.time("wire.DecodeMsg(contig)", reps, 100, func() { _, _, werr = wire.DecodeMsg(msg) })), "ns")
	if werr != nil {
		return nil, fmt.Errorf("replay: decode contig: %w", werr)
	}
	// One list request: the first ListCap regions, server 0's share.
	capRegs := fileRegs[:min(len(fileRegs), mpiio.DefaultHints().ListCap)]
	var listRegs []flatten.Region
	var listBytes int64
	for _, reg := range capRegs {
		lay.ServerPieces(0, reg.Off, reg.Len, func(_, logical, ln int64) bool {
			if k := len(listRegs); k > 0 && listRegs[k-1].Off+listRegs[k-1].Len == logical {
				listRegs[k-1].Len += ln
			} else {
				listRegs = append(listRegs, flatten.Region{Off: logical, Len: ln})
			}
			listBytes += ln
			return true
		})
	}
	list := &wire.ListIOReq{Tag: tag, Layout: wl, Regions: listRegs}
	if w.write {
		list.Data = payload[:min(listBytes, int64(len(payload)))]
	}
	set("wire.list_encode_us", us(r.time("wire.EncodeListIO", reps, 10, func() { msg = wire.EncodeListIO(list, w.write) })), "us")
	set("wire.list_decode_us", us(r.time("wire.DecodeMsg(list)", reps, 10, func() { _, _, werr = wire.DecodeMsg(msg) })), "us")
	if werr != nil {
		return nil, fmt.Errorf("replay: decode list: %w", werr)
	}
	var srv0Bytes int64
	for _, sr := range srv0 {
		srv0Bytes += sr.n
	}
	dt := &wire.DtypeReq{Tag: tag, Layout: wl, Loop: enc, Count: 1, NBytes: w.opBytes}
	if w.write {
		dt.Data = payload[:min(srv0Bytes, int64(len(payload)))]
	}
	dtEncT := r.time("wire.EncodeDtype", reps, 5, func() { msg = wire.EncodeDtype(dt, w.write) })
	set("wire.dtype_encode_us", us(dtEncT), "us")
	dtDecT := r.time("wire.DecodeMsg(dtype)", reps, 5, func() { _, _, werr = wire.DecodeMsg(msg) })
	if werr != nil {
		return nil, fmt.Errorf("replay: decode dtype: %w", werr)
	}
	set("wire.dtype_decode_us", us(dtDecT), "us")

	// --- transport: a benchmark-owned connection pair.
	rtt, stream, err := r.transport()
	if err != nil {
		return nil, err
	}
	set("transport.tcp_rtt_us", us(rtt), "us")
	set("transport.tcp_stream_mbps", stream, "MB/s")

	// --- storage: one run, and server 0's coalesced batches, on a
	// file-backed object of its own.
	st, err := storage.OpenFile(filepath.Join(b.tc.dir, "replay-obj"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var objSize int64
	for _, sr := range srv0 {
		objSize = max(objSize, sr.phys+sr.n)
	}
	if err := st.WriteAt(make([]byte, objSize), 0); err != nil {
		return nil, err
	}
	oneRun := make([]byte, srv0[0].n)
	var serr error
	k := 0
	readatT := r.time("storage.File.ReadAt", reps, 50, func() {
		serr = st.ReadAt(oneRun, srv0[k%len(srv0)].phys)
		k++
	})
	writeatT := r.time("storage.File.WriteAt", reps, 50, func() {
		serr = st.WriteAt(oneRun, srv0[k%len(srv0)].phys)
		k++
	})
	set("storage.readat_us", us(readatT), "us")
	set("storage.writeat_us", us(writeatT), "us")
	runBuf := make([]byte, srv0Bytes)
	scratch := make([]byte, pvfs.DefaultSieveGapBytes)
	// A batch of one run is a scalar call, as in the scheduler; a
	// coalesced batch is one vectored call.
	vecT := func(name string, gap int64, scalar func(p []byte, off int64) error, vec func(iov [][]byte, off int64) error) time.Duration {
		ops := planOps(srv0, gap)
		return r.time(name, reps, 1, func() {
			pos := int64(0)
			for _, op := range ops {
				var err error
				n := op.runs[0].n
				if len(op.runs) == 1 {
					err = scalar(runBuf[pos:pos+n], op.off)
				} else {
					var iov [][]byte
					iov, n = op.iovecs(runBuf[pos:], scratch)
					err = vec(iov, op.off)
				}
				if err != nil {
					serr = err
				}
				pos += n
			}
		})
	}
	readvT := vecT("storage.File.ReadAtv", pvfs.DefaultSieveGapBytes, st.ReadAt, st.ReadAtv)
	writevT := vecT("storage.File.WriteAtv", 0, st.WriteAt, st.WriteAtv)
	if serr != nil {
		return nil, fmt.Errorf("replay: storage: %w", serr)
	}
	set("storage.readatv_mbps", ratio(float64(srv0Bytes)/1e6, readvT.Seconds()), "MB/s")
	set("storage.writeatv_mbps", ratio(float64(srv0Bytes)/1e6, writevT.Seconds()), "MB/s")
	cross, err := r.vecCrossover(st)
	if err != nil {
		return nil, err
	}
	set("storage.vec_crossover_bytes", float64(cross), "B")

	// --- pvfs client: the smallest request through the whole stack,
	// and the datatype operation without the mpiio layer.
	small := make([]byte, 8)
	var cerr error
	set("pvfs.client.contig_rtt_us", us(r.time("pvfs.File.ReadContig(8B)", reps, 20, func() { cerr = b.pf.ReadContig(b.env, 0, small) })), "us")
	if cerr != nil {
		return nil, fmt.Errorf("replay: contig: %w", cerr)
	}
	loops := make([]*dataloop.Loop, len(w.views))
	for v := range loops {
		loops[v] = dataloop.FromType(w.views[v])
	}
	// The same operation with and without the mpiio layer, alternating
	// so both see the same machine: what mpiio adds is their difference.
	dc := b.cells[mpiio.DtypeIO]
	var viaMPI, viaPV []time.Duration
	for i := 0; i < 4*reps; i++ {
		v := i % len(loops)
		viaMPI = append(viaMPI, b.op(dc, opRef{v, 0}, r.root))
		a := &pvfs.DtypeAccess{MemLoop: memLoop, MemCount: 1, FileLoop: loops[v]}
		sp := r.tr.Begin(r.env, "bench", "pvfs.File.Dtype", r.root.SID())
		start := time.Now()
		if w.write {
			// Rewrite what the view already holds: the image stays as is.
			a.Mem = b.payload[(b.gen[v]+1)%2][v]
			cerr = b.pf.WriteDtype(b.env, a)
		} else {
			a.Mem = b.bufs[0]
			cerr = b.pf.ReadDtype(b.env, a)
		}
		viaPV = append(viaPV, time.Since(start))
		sp.End(r.env)
		if cerr != nil {
			return nil, fmt.Errorf("replay: dtype: %w", cerr)
		}
	}
	if err := b.checkImage(dc); err != nil {
		return nil, err
	}
	sort.Slice(viaMPI, func(i, j int) bool { return viaMPI[i] < viaMPI[j] })
	sort.Slice(viaPV, func(i, j int) bool { return viaPV[i] < viaPV[j] })
	pvT := percentile(viaPV, 0.50)
	set("mpiio.self_share", 1-ratio(float64(pvT), float64(percentile(viaMPI, 0.50))), "ratio")
	set("pvfs.client.dtype_op_p50_ms", ms(pvT), "ms")
	var retries, timeouts int64
	for _, c := range b.cells {
		for _, cl := range c.clients {
			s := cl.Stats.Snapshot()
			retries += s.Retries
			timeouts += s.Timeouts
		}
	}
	set("pvfs.client.retries", float64(retries), "count")
	set("pvfs.client.timeouts", float64(timeouts), "count")

	// --- counts per operation, from the canonical pass, and server
	// service times, from the timed cells.
	for _, c := range b.cells {
		m := c.m.String()
		n := float64(c.canon.ops)
		cc, sc := c.canon.client, c.canon.server
		set("wire.req_bytes_per_op."+m, ratio(float64(cc.ReqBytes), n), "B")
		set("wire.msgs_per_op."+m, ratio(float64(cc.WireMsgs), n), "count")
		set("pvfs.client.accessed_per_desired."+m, ratio(float64(cc.AccessedBytes), float64(cc.DesiredBytes)), "ratio")
		set("pvfs.client.ioops_per_op."+m, ratio(float64(cc.IOOps), n), "count")
		set("pvfs.sched.runs_in_per_op."+m, ratio(float64(sc.DiskOps), n), "count")
		set("pvfs.sched.ops_out_per_op."+m, ratio(float64(sc.DiskOpsMerged), n), "count")
		set("pvfs.server.req_p50_us."+m, us(c.svc.Quantile(0.50)), "us")
		// A share of the servers' combined time, so 1 is every server
		// busy for the whole cell.
		set("pvfs.server.busy_share."+m, ratio(float64(c.svc.SumNs), float64(c.wallNs)*nServers), "ratio")
	}
	set("pvfs.server.req_p99_us.dtype", us(dc.svc.Quantile(0.99)), "us")
	// A streamed read continues one operation across segments without
	// counting a new one, but makes a vectored call per segment: cap at 1.
	set("pvfs.sched.vec_share.dtype", min(1, ratio(float64(dc.canon.server.DiskVecOps), float64(dc.canon.server.DiskOpsMerged))), "ratio")
	set("pvfs.sched.seek_bytes_per_op.dtype", ratio(float64(dc.canon.server.SeekBytes), float64(dc.canon.ops)), "B")
	set("pvfs.server.compiled_replays_per_op", ratio(float64(dc.canon.replay), float64(dc.canon.ops)), "count")
	now := b.tc.counters()
	hits, misses := now.loopHits-b.loop0.loopHits, now.loopMisses-b.loop0.loopMisses
	set("pvfs.server.loopcache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	tp := b.cells[mpiio.TwoPhase]
	set("mpi.resent_bytes_per_op", ratio(float64(tp.canon.client.ResentBytes), float64(tp.canon.ops)), "B")

	// --- mpi and metadata round trips.
	fabric := transport.NewMemFabric(2)
	comm0, comm1 := mpi.NewComm(fabric, 0, 2), mpi.NewComm(fabric, 1, 2)
	set("mpi.barrier_us", us(r.time("mpi.Comm.Barrier", reps, 20, func() {
		b.rank1.req <- func() error { comm1.Barrier(b.env); return nil }
		comm0.Barrier(b.env)
		<-b.rank1.done
	})), "us")
	set("meta.lock_rtt_us", us(r.time("pvfs.File.Lock+Unlock", reps, 10, func() {
		lk, err := b.pf.Lock(b.env, 0, stripSize, false)
		if err == nil {
			err = b.pf.Unlock(b.env, lk)
		}
		if err != nil {
			cerr = err
		}
	})), "us")
	set("meta.open_us", us(r.time("pvfs.Client.Open", reps, 10, func() {
		if _, err := b.plain.Open(b.env, benchFile); err != nil {
			cerr = err
		}
	})), "us")
	if cerr != nil {
		return nil, fmt.Errorf("replay: metadata: %w", cerr)
	}

	// --- mpiio and the whole operation, from the timed rounds.
	lat := dc.sortedLat()
	p50 := percentile(lat, 0.50)
	set("mpiio.dtype_op_p99_ms", ms(percentile(lat, 0.99)), "ms")
	traced, untraced := median(dc.rateOf(true)), median(dc.rateOf(false))
	set("trace.overhead_share", 1-ratio(traced, untraced), "ratio")

	// The layer calls one datatype operation blocks on, summed: client
	// convert, encode and pack, the payload over TCP, and on the
	// slower-or-equal of the parallel servers decode, expansion and
	// storage. Scheduling and reply assembly have no public entry point
	// and stay unattributed, so this need not reach 1.
	storeT := readvT
	walks := 2 * dualT // reads pair file and memory to count, then to scatter
	if w.write {
		storeT = writevT
		walks = dualT
	}
	wireT := time.Duration(ratio(float64(w.opBytes)/1e6, stream)*1e9) + rtt
	sum := convT + encodeT + walks + nServers*dtEncT + wireT + dtDecT + replayT + splitT + storeT
	set("layers.attributed_share", ratio(float64(sum), float64(p50)), "ratio")

	// --- the process envelope.
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	user, sys := cpuSeconds()
	set("proc.peak_rss_mb", peakRSSMB(), "MB")
	set("proc.cpu_user_s", user, "s")
	set("proc.cpu_sys_s", sys, "s")
	set("proc.gc_pause_ms", float64(ms0.PauseTotalNs)/1e6, "ms")
	set("proc.allocs_per_op.dtype", ratio(float64(dc.allocs), float64(dc.ops)), "count")
	return out, nil
}

// transport measures a 64-byte echo and a one-way stream of 64 KiB
// frames over the TCP transport, between a listener and a dialler the
// benchmark owns.
func (r *replayer) transport() (rtt time.Duration, streamMBps float64, err error) {
	net := transport.NewTCPNetwork()
	lis, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer lis.Close()
	addr, _ := transport.BoundAddr(lis)
	const frames = 256
	srvErr := make(chan error, 1)
	go func() {
		// Echo small frames; acknowledge every frames-th large one.
		conn, err := lis.Accept(r.env)
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		big := 0
		for {
			msg, err := conn.Recv(r.env)
			if err != nil {
				srvErr <- nil // the dialler closed: done
				return
			}
			if len(msg) > 64 {
				if big++; big%frames != 0 {
					continue
				}
				msg = msg[:1]
			}
			if err := conn.Send(r.env, msg); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial(r.env, addr)
	if err != nil {
		return 0, 0, err
	}
	small, large := make([]byte, 64), make([]byte, 64*1024)
	var cerr error
	rtt = r.time("transport.tcp echo 64B", r.reps, 50, func() {
		if err := conn.Send(r.env, small); err != nil {
			cerr = err
		} else if _, err := conn.Recv(r.env); err != nil {
			cerr = err
		}
	})
	streamT := r.time("transport.tcp stream 64KiB", r.reps, 1, func() {
		for i := 0; i < frames; i++ {
			if err := conn.Send(r.env, large); err != nil {
				cerr = err
			}
		}
		if _, err := conn.Recv(r.env); err != nil {
			cerr = err
		}
	})
	conn.Close()
	if err := <-srvErr; err != nil {
		return 0, 0, fmt.Errorf("replay: transport: %w", err)
	}
	if cerr != nil {
		return 0, 0, fmt.Errorf("replay: transport: %w", cerr)
	}
	return rtt, ratio(float64(frames*len(large))/1e6, streamT.Seconds()), nil
}

// vecCrossover answers whether the scheduler's vectored-dispatch floor
// sits where vectoring starts to pay: for run lengths from 128 B to
// 8 KiB it times one coalesced operation of 256 adjacent runs both ways
// the scheduler can dispatch it — one ReadAtv/WriteAtv over the runs'
// own buffers, or one scalar call through a staging buffer plus a copy
// per run — and returns the shortest run length from which the vectored
// way is no slower in both directions (16384 if it never is).
func (r *replayer) vecCrossover(st *storage.File) (int64, error) {
	const nRuns = 256
	lengths := []int64{128, 256, 512, 1024, 2048, 4096, 8192}
	wins := make([]bool, len(lengths))
	var serr error
	sweepReps := r.reps/2 + 2
	for i, l := range lengths {
		total := nRuns * l
		data := make([]byte, total)
		stage := make([]byte, total)
		iov := make([][]byte, nRuns)
		for k := range iov {
			iov[k] = data[int64(k)*l : int64(k+1)*l]
		}
		if err := st.WriteAt(data, 0); err != nil {
			return 0, err
		}
		name := fmt.Sprintf("storage.vec sweep %dB ", l)
		check := func(err error) {
			if err != nil {
				serr = err
			}
		}
		rv := r.time(name+"ReadAtv", sweepReps, 4, func() { check(st.ReadAtv(iov, 0)) })
		rs := r.time(name+"ReadAt+copy", sweepReps, 4, func() {
			check(st.ReadAt(stage, 0))
			for k := range iov {
				copy(iov[k], stage[int64(k)*l:])
			}
		})
		wv := r.time(name+"WriteAtv", sweepReps, 4, func() { check(st.WriteAtv(iov, 0)) })
		ws := r.time(name+"copy+WriteAt", sweepReps, 4, func() {
			for k := range iov {
				copy(stage[int64(k)*l:], iov[k])
			}
			check(st.WriteAt(stage, 0))
		})
		wins[i] = rv <= rs && wv <= ws
		fmt.Fprintf(r.log, "# vec sweep run %5d B: read vectored %v staged %v, write vectored %v staged %v\n", l, rv, rs, wv, ws)
	}
	if serr != nil {
		return 0, fmt.Errorf("replay: vec sweep: %w", serr)
	}
	cross := int64(16384)
	for i := len(lengths) - 1; i >= 0 && wins[i]; i-- {
		cross = lengths[i]
	}
	return cross, nil
}
