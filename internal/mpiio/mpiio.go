// Package mpiio is a ROMIO-like MPI-IO layer over the pvfs client: file
// views (displacement + etype + filetype), independent and collective
// reads/writes, and the paper's five access methods — POSIX I/O, data
// sieving, two-phase collective I/O, list I/O, and datatype I/O.
//
// An access is (offset in etypes, count × memtype) against the current
// view; the k-th byte of the memory stream maps to the k-th byte of the
// file-view stream, exactly as in MPI-IO.
package mpiio

import (
	"errors"
	"fmt"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/mpi"
	"dtio/internal/pvfs"
	"dtio/internal/transport"
)

// Method selects the noncontiguous access strategy.
type Method int

// The five access methods of the paper's evaluation.
const (
	Posix Method = iota
	Sieve
	TwoPhase
	ListIO
	DtypeIO
)

func (m Method) String() string {
	switch m {
	case Posix:
		return "posix"
	case Sieve:
		return "sieve"
	case TwoPhase:
		return "twophase"
	case ListIO:
		return "listio"
	case DtypeIO:
		return "dtype"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Hints mirror the ROMIO hints the paper's runs used (§4.1: 4 MByte
// buffers for data sieving and collective I/O).
type Hints struct {
	SieveBufSize int64 // data sieving buffer
	CBBufSize    int64 // two-phase collective buffer per aggregator
	// ListCap bounds regions per list I/O request (64 in the paper's
	// PVFS implementation; ablation A1 sweeps it).
	ListCap int
	// DtypeNoCoalesce disables adjacent-region coalescing in datatype
	// I/O processing (ablation A2).
	DtypeNoCoalesce bool
	// NoLocks disables the byte-range lock service, reproducing the
	// paper's lockless PVFS (§4.1): sieving writes fail with
	// ErrSieveWrite and atomic mode cannot be enabled.
	NoLocks bool
	// NoCache opts this file out of the pvfs client's extent cache
	// (pvfs.Client.CacheBytes); meaningless when the client has caching
	// off. Paths that take their own non-revocable byte-range locks
	// (atomic mode, sieving writes, two-phase) bypass the cache
	// regardless — a cached access under the holder's own lock would
	// queue behind it forever.
	NoCache bool
}

// DefaultHints returns the paper's configuration.
func DefaultHints() Hints {
	return Hints{SieveBufSize: 4 << 20, CBBufSize: 4 << 20, ListCap: 64}
}

// ErrSieveWrite is returned for data sieving writes under the NoLocks
// hint: the read-modify-write needs its window locked, and the hint
// reproduces the paper's lockless PVFS (§4.1). With locks available
// (the default) sieving writes take the real path in sieve.
var ErrSieveWrite = errors.New("mpiio: data sieving writes require file locking, disabled by the NoLocks hint")

// ErrAtomicTwoPhase rejects atomic mode on a two-phase file: ranks
// holding byte-range locks across two-phase's internal barriers can
// deadlock (ROMIO likewise implements atomic mode only for independent
// operations).
var ErrAtomicTwoPhase = errors.New("mpiio: atomic mode is incompatible with two-phase collective I/O")

// ErrAtomicNoLocks rejects atomic mode when the NoLocks hint disabled
// the byte-range lock service it is built on.
var ErrAtomicNoLocks = errors.New("mpiio: atomic mode needs the byte-range lock service, disabled by the NoLocks hint")

// ErrCollectiveOnly is returned when two-phase is used on an independent
// operation.
var ErrCollectiveOnly = errors.New("mpiio: two-phase is a collective optimization; use ReadAtAll/WriteAtAll")

// File is an open MPI-IO file.
type File struct {
	pv     *pvfs.File
	comm   *mpi.Comm // nil for independent-only use
	method Method
	hints  Hints
	atomic bool

	disp     int64
	etype    *datatype.Type
	filetype *datatype.Type
	floop    *dataloop.Loop
	fprog    *flatten.Program // floop compiled once per view; nil if declined

	// The last memory type datatype I/O converted, with its loop and
	// program: an application repeating one memory type converts and
	// compiles it once.
	memType *datatype.Type
	mloop   *dataloop.Loop
	mprog   *flatten.Program

	// ptr is the individual file pointer, in etypes (see pointer.go).
	ptr int64

	// buf is the scratch buffer of sieve windows and two-phase rounds
	// (see scratch).
	buf []byte
	// tp holds two-phase's round buffers (see tpBufs).
	tp tpBufs
}

// scratch returns an n-byte buffer reused across this File's sieve
// windows and two-phase rounds. Callers ask for at most one sieve window
// or one collective buffer, so it never outgrows the larger of those
// hints. Its bytes are stale: each caller reads into all of it or
// overwrites all of it, and is done with it before the next call.
func (f *File) scratch(n int64) []byte {
	if int64(cap(f.buf)) < n {
		f.buf = make([]byte, n)
	}
	return f.buf[:n]
}

// Open wraps an open pvfs file. comm may be nil if only independent
// operations are used. The default view is disp 0, etype and filetype
// both bytes.
func Open(pv *pvfs.File, comm *mpi.Comm, method Method, hints Hints) *File {
	pv.NoCache = hints.NoCache
	f := &File{pv: pv, comm: comm, method: method, hints: hints}
	if err := f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
		panic("mpiio: default view rejected: " + err.Error())
	}
	return f
}

// Method reports the access method.
func (f *File) Method() Method { return f.method }

// SetAtomicity switches MPI-IO atomic mode, as MPI_File_set_atomicity.
// In atomic mode every operation is made atomic with respect to other
// processes by bracketing it with one byte-range lock spanning the
// access's first through last file byte — shared for reads, exclusive
// for writes. Overlapping independent writes then serialize instead of
// interleaving.
func (f *File) SetAtomicity(enable bool) error {
	if !enable {
		f.atomic = false
		return nil
	}
	if f.method == TwoPhase {
		return ErrAtomicTwoPhase
	}
	if f.hints.NoLocks {
		return ErrAtomicNoLocks
	}
	f.atomic = true
	return nil
}

// Atomicity reports whether atomic mode is enabled.
func (f *File) Atomicity() bool { return f.atomic }

// SetView establishes the file view, as MPI_File_set_view.
func (f *File) SetView(disp int64, etype, filetype *datatype.Type) error {
	if disp < 0 {
		return fmt.Errorf("mpiio: negative displacement %d", disp)
	}
	if etype == nil || filetype == nil {
		return errors.New("mpiio: nil etype or filetype")
	}
	if etype.Size() <= 0 {
		return errors.New("mpiio: etype must have positive size")
	}
	if filetype.Size() <= 0 || filetype.Size()%etype.Size() != 0 {
		return fmt.Errorf("mpiio: filetype size %d not a positive multiple of etype size %d",
			filetype.Size(), etype.Size())
	}
	if filetype.TrueLB() < 0 {
		return fmt.Errorf("mpiio: filetype true lower bound %d is negative", filetype.TrueLB())
	}
	f.disp = disp
	f.etype = etype
	f.filetype = filetype
	f.floop = dataloop.FromType(filetype)
	f.fprog = flatten.Compile(f.floop)
	f.ptr = 0 // MPI_File_set_view resets the individual pointer
	return nil
}

// access validates one operation's parameters and returns (pos, nbytes):
// the window of the view's byte stream.
func (f *File) access(offset int64, buf []byte, memType *datatype.Type, memCount int) (pos, nbytes int64, err error) {
	if offset < 0 || memCount < 0 {
		return 0, 0, fmt.Errorf("mpiio: bad offset %d / count %d", offset, memCount)
	}
	if memType == nil {
		return 0, 0, errors.New("mpiio: nil memory type")
	}
	if memType.TrueLB() < 0 {
		return 0, 0, fmt.Errorf("mpiio: memory type true lower bound %d is negative", memType.TrueLB())
	}
	nbytes = int64(memCount) * memType.Size()
	if nbytes > 0 {
		span := memType.TrueUB() + int64(memCount-1)*memType.Extent()
		if span > int64(len(buf)) {
			return 0, 0, fmt.Errorf("mpiio: memory type spans %d bytes, buffer has %d", span, len(buf))
		}
	}
	return offset * f.etype.Size(), nbytes, nil
}

// tiles reports how many filetype tiles the window [pos, pos+n) touches.
func (f *File) tiles(pos, nbytes int64) int64 {
	return (pos + nbytes + f.floop.Size - 1) / f.floop.Size
}

// fileWindow iterates the file regions (absolute offsets, coalesced) of
// the view window.
func (f *File) fileWindow(pos, nbytes int64) *flatten.Iter {
	return flatten.NewIterAt(f.floop, f.tiles(pos, nbytes), f.disp, pos, nbytes, true)
}

// memSource iterates the memory regions of the access.
func memSource(memType *datatype.Type, memCount int) *flatten.Iter {
	return flatten.NewIter(dataloop.FromType(memType), int64(memCount), 0, true)
}

// lastFileByte reports the absolute file offset of the window's final
// stream byte.
func (f *File) lastFileByte(pos, nbytes int64) int64 {
	it := flatten.NewIterAt(f.floop, f.tiles(pos, nbytes), f.disp, pos+nbytes-1, 1, false)
	r, ok := it.Next()
	if !ok {
		return -1
	}
	return r.Off
}

// firstFileByte reports the absolute file offset of the window's first
// stream byte.
func (f *File) firstFileByte(pos, nbytes int64) int64 {
	it := flatten.NewIterAt(f.floop, f.tiles(pos, nbytes), f.disp, pos, 1, false)
	r, ok := it.Next()
	if !ok {
		return -1
	}
	return r.Off
}

func (f *File) stats() *iostatsRef { return &iostatsRef{f.pv} }

// iostatsRef forwards to the pvfs client's stats if present.
type iostatsRef struct{ pv *pvfs.File }

func (r *iostatsRef) desired(n int64) {
	if st := r.pv.ClientStats(); st != nil {
		st.AddDesired(n)
	}
}

func (r *iostatsRef) resent(n int64) {
	if st := r.pv.ClientStats(); st != nil {
		st.AddResent(n)
	}
}

// ReadAt performs an independent read of memCount memType instances from
// the view at offset (in etypes).
func (f *File) ReadAt(env transport.Env, offset int64, buf []byte, memType *datatype.Type, memCount int) error {
	return f.rw(env, offset, buf, memType, memCount, false, false)
}

// WriteAt performs an independent write.
func (f *File) WriteAt(env transport.Env, offset int64, buf []byte, memType *datatype.Type, memCount int) error {
	return f.rw(env, offset, buf, memType, memCount, true, false)
}

// ReadAtAll performs a collective read: every rank of the communicator
// must call it.
func (f *File) ReadAtAll(env transport.Env, offset int64, buf []byte, memType *datatype.Type, memCount int) error {
	return f.rw(env, offset, buf, memType, memCount, false, true)
}

// WriteAtAll performs a collective write.
func (f *File) WriteAtAll(env transport.Env, offset int64, buf []byte, memType *datatype.Type, memCount int) error {
	return f.rw(env, offset, buf, memType, memCount, true, true)
}

func (f *File) rw(env transport.Env, offset int64, buf []byte, memType *datatype.Type, memCount int, write, collective bool) error {
	pos, nbytes, err := f.access(offset, buf, memType, memCount)
	if err != nil {
		return err
	}
	if f.method == TwoPhase {
		if !collective {
			return ErrCollectiveOnly
		}
		if f.comm == nil {
			return errors.New("mpiio: two-phase needs a communicator")
		}
		f.stats().desired(nbytes)
		// Flush before the exchange's internal barriers — a rank blocked
		// in a barrier cannot answer lease revocations — and run the
		// phase uncached (aggregators hold their own window state; a
		// lease acquired mid-phase would cross the next barrier).
		if err := f.pv.Sync(env); err != nil {
			return err
		}
		return f.uncached(func() error {
			return f.twoPhase(env, pos, nbytes, buf, memType, memCount, write)
		})
	}
	if collective {
		// Collective operations leave no leases held (DESIGN.md §13):
		// callers barrier around them, and a rank blocked in a barrier
		// cannot answer revocations.
		if err := f.pv.Sync(env); err != nil {
			return err
		}
	}
	if nbytes == 0 {
		return nil
	}
	f.stats().desired(nbytes)
	var outer *pvfs.FileLock
	if f.atomic {
		lo := f.firstFileByte(pos, nbytes)
		hi := f.lastFileByte(pos, nbytes)
		var err error
		outer, err = f.pv.Lock(env, lo, hi+1-lo, !write)
		if err != nil {
			return err
		}
	}
	if outer != nil {
		// A cached access under our own atomic-mode lock would queue its
		// lease behind that lock forever.
		err = f.uncached(func() error {
			return f.dispatch(env, pos, nbytes, buf, memType, memCount, write, true)
		})
	} else {
		err = f.dispatch(env, pos, nbytes, buf, memType, memCount, write, false)
	}
	if outer != nil {
		if uerr := f.pv.Unlock(env, outer); err == nil {
			err = uerr
		}
	}
	if collective {
		if serr := f.pv.Sync(env); err == nil {
			err = serr
		}
	}
	return err
}

// uncached runs fn with the pvfs file's extent cache bypassed, for
// paths that hold their own non-revocable locks over the accessed
// ranges.
func (f *File) uncached(fn func() error) error {
	save := f.pv.NoCache
	f.pv.NoCache = true
	err := fn()
	f.pv.NoCache = save
	return err
}

// Sync flushes this file's cached writes to the I/O servers and
// releases the cache's leases, as MPI_File_sync. Independent-mode users
// of a caching client must call it before synchronizing with other
// ranks outside the file system (collective operations sync
// themselves). A no-op when the client has caching off.
func (f *File) Sync(env transport.Env) error { return f.pv.Sync(env) }

// dispatch runs the access with the independent method. locked reports
// that an atomic-mode lock already covers the whole access, so sieving
// writes must not take their per-window locks (a second lock from the
// same holder would queue behind the first forever).
func (f *File) dispatch(env transport.Env, pos, nbytes int64, buf []byte, memType *datatype.Type, memCount int, write, locked bool) error {
	switch f.method {
	case Posix:
		return f.posix(env, pos, nbytes, buf, memType, memCount, write)
	case Sieve:
		if write {
			if f.hints.NoLocks {
				return ErrSieveWrite
			}
			// Sieving writes lock their windows; cache accesses inside
			// would queue behind our own lock.
			return f.uncached(func() error {
				return f.sieve(env, pos, nbytes, buf, memType, memCount, true, locked)
			})
		}
		return f.sieve(env, pos, nbytes, buf, memType, memCount, false, false)
	case ListIO:
		return f.listIO(env, pos, nbytes, buf, memType, memCount, write)
	case DtypeIO:
		return f.dtypeIO(env, buf, memType, memCount, pos, write)
	}
	return fmt.Errorf("mpiio: unknown method %v", f.method)
}
