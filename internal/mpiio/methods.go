package mpiio

import (
	"fmt"
	"time"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/pvfs"
	"dtio/internal/transport"
)

// pairWalk walks an access's file view and memory type together, one
// piece contiguous in both per next, in stream order: file offset fo,
// buffer offset mo, length n. Every method that flattens on the client
// walks through here, so this is the one place that decides how. It is
// an iterator, not a callback, so the per-piece bodies of sieving and
// two-phase stay inline in their loops: with FLASH's 8-byte pieces a
// call per piece is a measurable share of two-phase's pack.
type pairWalk struct {
	d   *flatten.Dual // nil for an empty access
	buf []byte
	err error // a memory piece outside buf, which ends the walk
}

// pairs starts the pair walk of the view window [pos, pos+nbytes).
func (f *File) pairs(pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int) pairWalk {
	w := pairWalk{buf: buf}
	if nbytes > 0 {
		w.d = flatten.NewDual(f.fileWindow(pos, nbytes), memSource(memType, memCount))
	}
	return w
}

// next returns the next piece; ok is false at the end of the access and
// at a memory piece outside the buffer, which sets err.
func (w *pairWalk) next() (fo, mo, n int64, ok bool) {
	if w.d == nil {
		return 0, 0, 0, false
	}
	if fo, mo, n, ok = w.d.Next(); ok && (mo < 0 || mo+n > int64(len(w.buf))) {
		w.err = fmt.Errorf("mpiio: memory region [%d,%d) outside buffer", mo, mo+n)
		w.d = nil
		return 0, 0, 0, false
	}
	return fo, mo, n, ok
}

// posix breaks the access into one contiguous file-system operation per
// run that is contiguous in both file and memory — the naive method of
// paper §2.1.
func (f *File) posix(env transport.Env, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int, write bool) error {
	w := f.pairs(pos, nbytes, buf, memType, memCount)
	for fo, mo, n, ok := w.next(); ok; fo, mo, n, ok = w.next() {
		var err error
		if write {
			err = f.pv.WriteContig(env, fo, buf[mo:mo+n])
		} else {
			err = f.pv.ReadContig(env, fo, buf[mo:mo+n])
		}
		if err != nil {
			return err
		}
	}
	return w.err
}

// sieve is data sieving (paper §2.2): it moves large windows covering
// the noncontiguous regions between the file and a scratch buffer, and
// the desired bytes between that buffer and memory. Windows advance
// through the file; an out-of-window region simply starts a new window
// (our evaluation patterns are monotone, as ROMIO's flattened
// representations usually are).
//
// Writing is the cell the paper's matrix left empty (§4.1): each window
// is locked exclusively at the metadata server, read, modified in
// memory, and written back before the unlock, so the bytes between the
// desired regions survive concurrent writers. When locked is true an
// atomic-mode lock already spans the whole access and the per-window
// locks are skipped — a second lock from the same holder would queue
// behind the first forever.
func (f *File) sieve(env transport.Env, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int, write, locked bool) error {
	last := f.lastFileByte(pos, nbytes)
	bufSize := f.hints.SieveBufSize
	if bufSize <= 0 {
		bufSize = DefaultHints().SieveBufSize
	}
	var (
		sbuf     []byte
		wlo, whi int64
		lk       *pvfs.FileLock
	)
	defer func() {
		if lk != nil { // error path: do not strand the window lock
			f.pv.Unlock(env, lk)
		}
	}()
	// flush ends the current window: a write's is written back and its
	// lock released.
	flush := func() error {
		if !write || sbuf == nil {
			return nil
		}
		err := f.pv.WriteContig(env, wlo, sbuf)
		sbuf = nil
		if lk != nil {
			if uerr := f.pv.Unlock(env, lk); err == nil {
				err = uerr
			}
			lk = nil
		}
		return err
	}
	var pieces int64
	w := f.pairs(pos, nbytes, buf, memType, memCount)
	for fo, mo, n, ok := w.next(); ok; fo, mo, n, ok = w.next() {
		pieces++
		for n > 0 {
			if sbuf == nil || fo < wlo || fo >= whi {
				if err := flush(); err != nil {
					return err
				}
				wlo = fo
				whi = wlo + bufSize
				if whi > last+1 {
					whi = last + 1
				}
				if write && !locked {
					var err error
					if lk, err = f.pv.Lock(env, wlo, whi-wlo, false); err != nil {
						return err
					}
				}
				sbuf = f.scratch(whi - wlo)
				if err := f.pv.ReadContig(env, wlo, sbuf); err != nil {
					return err
				}
			}
			take := n
			if fo+take > whi {
				take = whi - fo
			}
			if write {
				copy(sbuf[fo-wlo:fo-wlo+take], buf[mo:mo+take])
			} else {
				copy(buf[mo:mo+take], sbuf[fo-wlo:fo-wlo+take])
			}
			fo += take
			mo += take
			n -= take
		}
	}
	if w.err != nil {
		return w.err
	}
	if err := flush(); err != nil {
		return err
	}
	env.Compute(f.pv.Cost().MemcpyPerPiece * time.Duration(pieces))
	return nil
}

// listIO flattens both sides into offset-length lists and issues list
// I/O calls of at most MaxListRegions regions per side (paper §2.4).
func (f *File) listIO(env transport.Env, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int, write bool) error {
	maxRegs := f.hints.ListCap
	if maxRegs <= 0 {
		maxRegs = DefaultHints().ListCap
	}
	if maxRegs > pvfs.MaxListRegions {
		maxRegs = pvfs.MaxListRegions
	}
	var (
		fileRegs, memRegs []flatten.Region
	)
	flush := func() error {
		if len(fileRegs) == 0 {
			return nil
		}
		var err error
		if write {
			err = f.pv.WriteList(env, fileRegs, memRegs, buf)
		} else {
			err = f.pv.ReadList(env, fileRegs, memRegs, buf)
		}
		fileRegs = fileRegs[:0]
		memRegs = memRegs[:0]
		return err
	}
	wouldGrow := func(regs []flatten.Region, off int64) bool {
		k := len(regs)
		return k == 0 || regs[k-1].Off+regs[k-1].Len != off
	}
	w := f.pairs(pos, nbytes, buf, memType, memCount)
	for fo, mo, n, ok := w.next(); ok; fo, mo, n, ok = w.next() {
		if (wouldGrow(fileRegs, fo) && len(fileRegs) == maxRegs) ||
			(wouldGrow(memRegs, mo) && len(memRegs) == maxRegs) {
			if err := flush(); err != nil {
				return err
			}
		}
		fileRegs = datatype.AppendRegion(fileRegs, fo, n)
		memRegs = datatype.AppendRegion(memRegs, mo, n)
	}
	if w.err != nil {
		return w.err
	}
	return flush()
}

// dtypeIO ships the view's dataloop to the servers (paper §3): a single
// logical operation regardless of region count. Converting the memory
// type to a dataloop at each call mirrors the prototype's per-operation
// conversion cost.
func (f *File) dtypeIO(env transport.Env, buf []byte, memType *datatype.Type, memCount int, pos int64, write bool) error {
	// Model the per-operation type-conversion cost called out in §3.2.
	env.Compute(time.Duration(f.floop.NumNodes()) * 2 * time.Microsecond)
	if memType != f.memType {
		f.memType, f.mloop = memType, dataloop.FromType(memType)
		f.mprog = flatten.Compile(f.mloop)
	}
	a := &pvfs.DtypeAccess{
		Mem:        buf,
		MemLoop:    f.mloop,
		MemCount:   int64(memCount),
		FileLoop:   f.floop,
		FileProg:   f.fprog,
		MemProg:    f.mprog,
		Disp:       f.disp,
		Pos:        pos,
		NoCoalesce: f.hints.DtypeNoCoalesce,
	}
	if write {
		return f.pv.WriteDtype(env, a)
	}
	return f.pv.ReadDtype(env, a)
}
