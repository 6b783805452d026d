package bench

import (
	"bytes"
	"fmt"

	"dtio/internal/datatype"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/transport"
	"dtio/internal/workloads"
)

// openShared creates (rank 0) or opens (others) the benchmark file.
func openShared(r *Rank, name string, stripSize int64) (*pvfs.File, error) {
	var pf *pvfs.File
	var err error
	if r.ID == 0 {
		pf, err = r.FS.Create(r.Env, name, stripSize, 0)
	}
	r.Comm.Barrier(r.Env)
	if r.ID != 0 {
		pf, err = r.FS.Open(r.Env, name)
	}
	return pf, err
}

// Block3DByte is the oracle for the 3-D block array: the expected value
// of file byte off.
func block3DByte(off int64) byte { return byte(off*131 + off>>11) }

// TileRead runs the tile reader benchmark (E1): every client reads its
// tile from `frames` consecutive frames.
func TileRead(cfg Config, tile workloads.TileConfig, method mpiio.Method, frames int) Result {
	res := Result{Name: "tile", Method: method, Clients: tile.NumClients()}
	if err := tile.Validate(); err != nil {
		res.Err = err
		return res
	}
	cfg.Clients = tile.NumClients()
	if frames <= 0 {
		frames = tile.Frames
	}
	cl := NewCluster(cfg)
	tileBytes := tile.TileBytes()
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "frames.dat", cfg.StripSize)
		if err != nil {
			return err
		}
		if cfg.Verify && r.ID == 0 {
			frame := make([]byte, tile.FrameBytes())
			for f := 0; f < frames; f++ {
				workloads.FillFrame(f, frame)
				if err := pf.WriteContig(r.Env, int64(f)*tile.FrameBytes(), frame); err != nil {
					return err
				}
			}
		}
		r.Comm.Barrier(r.Env)
		f := mpiio.Open(pf, r.Comm, method, cfg.Hints)
		if err := f.SetView(0, datatype.Byte, tile.View(r.ID)); err != nil {
			return err
		}
		buf := make([]byte, tileBytes)
		memType := datatype.Bytes(tileBytes)
		r.Stats.Reset() // exclude setup traffic from the tables
		return r.TimePhase(func() error {
			for fr := 0; fr < frames; fr++ {
				if err := f.ReadAtAll(r.Env, int64(fr)*tileBytes, buf, memType, 1); err != nil {
					return err
				}
				if cfg.Verify {
					if err := verifyTile(tile, r.ID, fr, buf); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Locks = cl.LockStats()
	res.Bytes = int64(tile.NumClients()) * int64(frames) * tileBytes
	res.Err = err
	// Tables report per-frame characteristics, as the paper does.
	res.PerClient = res.PerClient.Div(int64(frames))
	return res
}

func verifyTile(tile workloads.TileConfig, rank, frame int, buf []byte) error {
	pos := int64(0)
	var bad error
	tile.View(rank).Walk(0, func(off, n int64) bool {
		for i := int64(0); i < n; i++ {
			if buf[pos+i] != workloads.FramePixel(frame, off+i) {
				bad = fmt.Errorf("tile %d frame %d: byte at file offset %d wrong", rank, frame, off+i)
				return false
			}
		}
		pos += n
		return true
	})
	return bad
}

// TileWrite runs the tile writer benchmark: every client writes its
// (overlapping) tile of `frames` consecutive frames. Overlap bytes get
// identical values from every neighbor (FramePixel is a pure function
// of frame and offset) so the final image is deterministic regardless
// of write interleaving — but data sieving must still lock each
// read-modify-write window, or the bytes between a tile's rows would be
// clobbered with stale data.
func TileWrite(cfg Config, tile workloads.TileConfig, method mpiio.Method, frames int) Result {
	res := Result{Name: "tile-write", Method: method, Clients: tile.NumClients()}
	if err := tile.Validate(); err != nil {
		res.Err = err
		return res
	}
	cfg.Clients = tile.NumClients()
	if frames <= 0 {
		frames = tile.Frames
	}
	cl := NewCluster(cfg)
	tileBytes := tile.TileBytes()
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "frames-w.dat", cfg.StripSize)
		if err != nil {
			return err
		}
		f := mpiio.Open(pf, r.Comm, method, cfg.Hints)
		view := tile.View(r.ID)
		if err := f.SetView(0, datatype.Byte, view); err != nil {
			return err
		}
		buf := make([]byte, tileBytes)
		memType := datatype.Bytes(tileBytes)
		fill := func(fr int) {
			pos := int64(0)
			view.Walk(0, func(off, n int64) bool {
				for i := int64(0); i < n; i++ {
					buf[pos+i] = workloads.FramePixel(fr, off+i)
				}
				pos += n
				return true
			})
		}
		r.Stats.Reset() // exclude setup traffic from the tables
		if err := r.TimePhase(func() error {
			for fr := 0; fr < frames; fr++ {
				if cfg.Verify {
					fill(fr)
				}
				if err := f.WriteAtAll(r.Env, int64(fr)*tileBytes, buf, memType, 1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if cfg.Verify {
			r.Comm.Barrier(r.Env)
			if r.ID == 0 {
				// The overlapping tiles cover the frame completely, so
				// every byte of every frame is determined.
				frame := make([]byte, tile.FrameBytes())
				for fr := 0; fr < frames; fr++ {
					if err := pf.ReadContig(r.Env, int64(fr)*tile.FrameBytes(), frame); err != nil {
						return err
					}
					for i := range frame {
						if frame[i] != workloads.FramePixel(fr, int64(i)) {
							return fmt.Errorf("frame %d byte %d wrong after tile write", fr, i)
						}
					}
				}
			}
		}
		return nil
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Locks = cl.LockStats()
	res.Bytes = int64(tile.NumClients()) * int64(frames) * tileBytes
	res.Err = err
	// Tables report per-frame characteristics, as the paper does.
	res.PerClient = res.PerClient.Div(int64(frames))
	return res
}

// contendByte is the oracle for the lock-contention region: the value
// of file byte off, whoever writes it.
func contendByte(off int64) byte { return byte(off*167 + off>>9) }

// LockContention measures the byte-range lock service under pressure:
// `writers` clients data-sieve interleaved stripes of one shared
// region, so nearly every read-modify-write window overlaps neighbors'
// windows and must queue at the metadata server. Per-client volume is
// held fixed as writers grow — the scaling curve isolates lock-wait
// cost from data movement.
func LockContention(cfg Config, writers int, stripe int64, rows int) Result {
	res := Result{Name: "lock-contention", Method: mpiio.Sieve, Clients: writers}
	if writers <= 0 || stripe <= 0 || rows <= 0 {
		res.Err = fmt.Errorf("bench: bad contention shape: %d writers, %d stripe, %d rows", writers, stripe, rows)
		return res
	}
	cfg.Clients = writers
	cl := NewCluster(cfg)
	period := stripe * int64(writers)
	perClient := stripe * int64(rows)
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "contend.dat", cfg.StripSize)
		if err != nil {
			return err
		}
		f := mpiio.Open(pf, r.Comm, mpiio.Sieve, cfg.Hints)
		view := datatype.Subarray(
			[]int{rows, int(period)}, []int{rows, int(stripe)}, []int{0, r.ID * int(stripe)},
			datatype.OrderC, datatype.Byte)
		if err := f.SetView(0, datatype.Byte, view); err != nil {
			return err
		}
		buf := make([]byte, perClient)
		if cfg.Verify {
			pos := int64(0)
			view.Walk(0, func(off, n int64) bool {
				for i := int64(0); i < n; i++ {
					buf[pos+i] = contendByte(off + i)
				}
				pos += n
				return true
			})
		}
		memType := datatype.Bytes(perClient)
		r.Stats.Reset()
		if err := r.TimePhase(func() error {
			// Independent writes: the ranks race, which is the point.
			return f.WriteAt(r.Env, 0, buf, memType, 1)
		}); err != nil {
			return err
		}
		if cfg.Verify {
			r.Comm.Barrier(r.Env)
			if r.ID == 0 {
				got := make([]byte, period*int64(rows))
				if err := pf.ReadContig(r.Env, 0, got); err != nil {
					return err
				}
				for i := range got {
					if got[i] != contendByte(int64(i)) {
						return fmt.Errorf("byte %d wrong after contended sieve writes: lost update", i)
					}
				}
			}
		}
		return nil
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Locks = cl.LockStats()
	res.Bytes = perClient * int64(writers)
	res.Err = err
	return res
}

// Block3D runs the ROMIO 3-D block test (E2) in read or write mode.
func Block3D(cfg Config, b3 workloads.Block3DConfig, method mpiio.Method, write bool) Result {
	name := "block3d-read"
	if write {
		name = "block3d-write"
	}
	res := Result{Name: name, Method: method, Clients: b3.Procs}
	if err := b3.Validate(); err != nil {
		res.Err = err
		return res
	}
	cfg.Clients = b3.Procs
	cl := NewCluster(cfg)
	blockBytes := b3.BlockBytes()
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "block3d.dat", cfg.StripSize)
		if err != nil {
			return err
		}
		if cfg.Verify && !write && r.ID == 0 {
			// Populate the array with the oracle pattern.
			const chunk = 1 << 20
			buf := make([]byte, chunk)
			for at := int64(0); at < b3.TotalBytes(); at += chunk {
				n := b3.TotalBytes() - at
				if n > chunk {
					n = chunk
				}
				for i := int64(0); i < n; i++ {
					buf[i] = block3DByte(at + i)
				}
				if err := pf.WriteContig(r.Env, at, buf[:n]); err != nil {
					return err
				}
			}
		}
		r.Comm.Barrier(r.Env)
		f := mpiio.Open(pf, r.Comm, method, cfg.Hints)
		view := b3.View(r.ID)
		if err := f.SetView(0, datatype.Bytes(int64(b3.ElemSize)), view); err != nil {
			return err
		}
		buf := make([]byte, blockBytes)
		if write {
			if cfg.Verify {
				pos := int64(0)
				view.Walk(0, func(off, n int64) bool {
					for i := int64(0); i < n; i++ {
						buf[pos+i] = block3DByte(off + i)
					}
					pos += n
					return true
				})
			}
		}
		memType := datatype.Bytes(blockBytes)
		r.Stats.Reset()
		if err := r.TimePhase(func() error {
			if write {
				return f.WriteAtAll(r.Env, 0, buf, memType, 1)
			}
			return f.ReadAtAll(r.Env, 0, buf, memType, 1)
		}); err != nil {
			return err
		}
		if cfg.Verify && !write {
			pos := int64(0)
			var bad error
			view.Walk(0, func(off, n int64) bool {
				for i := int64(0); i < n; i++ {
					if buf[pos+i] != block3DByte(off+i) {
						bad = fmt.Errorf("rank %d: wrong byte at array offset %d", r.ID, off+i)
						return false
					}
				}
				pos += n
				return true
			})
			if bad != nil {
				return bad
			}
		}
		if cfg.Verify && write {
			r.Comm.Barrier(r.Env)
			if r.ID == 0 {
				got := make([]byte, b3.TotalBytes())
				if err := pf.ReadContig(r.Env, 0, got); err != nil {
					return err
				}
				for i := range got {
					if got[i] != block3DByte(int64(i)) {
						return fmt.Errorf("file byte %d wrong after collective write", i)
					}
				}
			}
		}
		return nil
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Locks = cl.LockStats()
	res.Bytes = int64(b3.Procs) * blockBytes
	res.Err = err
	return res
}

// Flash runs the FLASH I/O checkpoint (E3): one collective write of each
// process's reorganized blocks.
func Flash(cfg Config, fc workloads.FlashConfig, method mpiio.Method) Result {
	res := Result{Name: "flash", Method: method, Clients: fc.Procs}
	if err := fc.Validate(); err != nil {
		res.Err = err
		return res
	}
	cfg.Clients = fc.Procs
	cl := NewCluster(cfg)
	memType := fc.MemType()
	// In performance mode all ranks share one zero buffer (contents do
	// not matter and per-rank 60 MB buffers would dominate memory).
	var shared []byte
	if !cfg.Verify {
		shared = make([]byte, fc.MemBytes())
	}
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "flash.chk", cfg.StripSize)
		if err != nil {
			return err
		}
		f := mpiio.Open(pf, r.Comm, method, cfg.Hints)
		if err := f.SetView(0, datatype.Bytes(int64(fc.ElemSize)), fc.FileType(r.ID)); err != nil {
			return err
		}
		buf := shared
		if cfg.Verify {
			buf = make([]byte, fc.MemBytes())
			fc.FillMemory(r.ID, buf)
		}
		r.Stats.Reset()
		if err := r.TimePhase(func() error {
			return f.WriteAtAll(r.Env, 0, buf, memType, 1)
		}); err != nil {
			return err
		}
		if cfg.Verify {
			r.Comm.Barrier(r.Env)
			if r.ID == 0 {
				got := make([]byte, fc.TotalBytes())
				if err := pf.ReadContig(r.Env, 0, got); err != nil {
					return err
				}
				for i := range got {
					if got[i] != fc.FileOracle(int64(i)) {
						return fmt.Errorf("checkpoint byte %d wrong", i)
					}
				}
			}
		}
		return nil
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Locks = cl.LockStats()
	res.Bytes = fc.TotalBytes()
	res.Err = err
	return res
}

// AdjacentBlocks is the ablation A2 workload: the application describes
// its data block by block (as chunked high-level libraries do), but the
// blocks happen to be adjacent in the file. With coalescing the servers
// see a handful of large runs; without it they process one offset-length
// pair per block — isolating the value of the paper's §3.2 coalescing
// optimization in dataloop processing.
func AdjacentBlocks(cfg Config, nBlocks int, blockSize int64, noCoalesce bool) Result {
	res := Result{Name: "adjacent-blocks", Method: mpiio.DtypeIO, Clients: cfg.Clients}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
		res.Clients = 4
	}
	cl := NewCluster(cfg)
	perClient := int64(nBlocks) * blockSize
	elapsed, per, err := cl.Run(func(r *Rank) error {
		pf, err := openShared(r, "blocks.dat", cfg.StripSize)
		if err != nil {
			return err
		}
		hints := cfg.Hints
		hints.DtypeNoCoalesce = noCoalesce
		f := mpiio.Open(pf, r.Comm, mpiio.DtypeIO, hints)
		displs := make([]int64, nBlocks)
		base := int64(r.ID) * perClient
		for i := range displs {
			displs[i] = base + int64(i)*blockSize
		}
		view := datatype.HBlockIndexed(1, displs, datatype.Bytes(blockSize))
		if err := f.SetView(0, datatype.Byte, view); err != nil {
			return err
		}
		buf := make([]byte, perClient)
		memType := datatype.Bytes(perClient)
		r.Stats.Reset()
		return r.TimePhase(func() error {
			if err := f.WriteAtAll(r.Env, 0, buf, memType, 1); err != nil {
				return err
			}
			return f.ReadAtAll(r.Env, 0, buf, memType, 1)
		})
	})
	res.Elapsed = elapsed
	res.PerClient = per
	res.Disk = cl.DiskStats()
	res.Util = cl.Utilization()
	res.Lat = cl.ClientLat()
	res.SrvLat = cl.ServerLat()
	res.Fault = cl.FaultStats()
	res.Total = cl.TotalStats()
	res.Bytes = 2 * perClient * int64(res.Clients)
	res.Err = err
	return res
}

// VerifyImage compares a file's contents to an expected image via one
// contiguous read on a throwaway cluster client (test helper).
func VerifyImage(env transport.Env, pf *pvfs.File, want []byte) error {
	got := make([]byte, len(want))
	if err := pf.ReadContig(env, 0, got); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("file image mismatch")
	}
	return nil
}
