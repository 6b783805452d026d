package pvfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/striping"
	"dtio/internal/workloads"
)

// packFile is a File with only a layout: enough for the client's pack
// and its read sinks, which never touch the network.
func packFile(nServers int, strip int64) *File {
	return &File{layout: striping.Layout{StripSize: strip, NServers: nServers}}
}

func patternedMem(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 5)
	}
	return b
}

// TestDtypePackCompiledMatchesDual holds the compiled pack and the read
// sinks' scatter to the interpreted Dual walk: identical per-server
// payloads, identical scattered memory, and identical piece counts — the count prices the
// client's job building in virtual time. The strips are small enough
// that their boundaries cut memory runs mid-run.
func TestDtypePackCompiledMatchesDual(t *testing.T) {
	pairs := []struct {
		name      string
		file, mem *datatype.Type
		memCount  int64
		pos       int64
	}{
		{"strided-mem-contig-file", datatype.Bytes(480), datatype.Vector(60, 1, 2, datatype.Int64), 1, 0},
		{"both-strided", datatype.Vector(24, 5, 9, datatype.Int32), datatype.Vector(10, 3, 5, datatype.Bytes(4)), 4, 0},
		{"irregular-file-window", datatype.HIndexed([]int64{3, 1, 2}, []int64{0, 50, 90}, datatype.Bytes(10)),
			datatype.Resized(datatype.Vector(2, 1, 3, datatype.Bytes(6)), 0, 40), 10, 17},
		{"flash-like", datatype.HIndexed([]int64{64, 64}, []int64{0, 1024}, datatype.Bytes(8)),
			datatype.HBlockIndexed(1, []int64{0, 8}, datatype.HVector(64, 1, 16, datatype.Bytes(8))), 1, 0},
	}
	for _, pc := range pairs {
		for _, nServers := range []int{1, 2, 3} {
			for _, strip := range []int64{20, 48, 4096} {
				t.Run(fmt.Sprintf("%s/%dsrv/strip%d", pc.name, nServers, strip), func(t *testing.T) {
					f := packFile(nServers, strip)
					a := &DtypeAccess{
						Mem:      patternedMem(pc.mem.TrueUB() + (pc.memCount-1)*pc.mem.Extent()),
						MemLoop:  dataloop.FromType(pc.mem),
						MemCount: pc.memCount,
						FileLoop: dataloop.FromType(pc.file),
						Pos:      pc.pos,
					}
					nbytes, tiles, err := a.validate()
					if err != nil {
						t.Fatal(err)
					}
					comp := f.dtypePlan(a, nbytes, tiles, true).w
					if comp.fprog == nil {
						t.Fatal("a loop declined to compile")
					}
					dual := comp
					dual.fprog, dual.mprog = nil, nil
					want, wantPieces, err := dual.pack()
					if err != nil {
						t.Fatal(err)
					}
					got, pieces, err := comp.pack()
					if err != nil {
						t.Fatal(err)
					}
					if pieces != wantPieces {
						t.Fatalf("compiled pack counted %d pieces, Dual %d", pieces, wantPieces)
					}
					for s := range want {
						if !bytes.Equal(got[s], want[s]) {
							t.Fatalf("server %d payload differs:\n  compiled %v\n  dual     %v", s, got[s], want[s])
						}
					}

					// Each reply goes to its server's sink in 7-byte chunks,
					// so chunk ends cut pieces and memory runs mid-way.
					scatter := func(w walker) ([]byte, int64) {
						t.Helper()
						w.mem = make([]byte, len(a.Mem))
						ss := getSinks(&w)
						defer putSinks(ss)
						var pieces int64
						for s, data := range want {
							k := &ss.by[s]
							if k.total != int64(len(data)) {
								t.Fatalf("server %d sink expects %d bytes, pack made %d", s, k.total, len(data))
							}
							for len(data) > 0 {
								m := min(7, len(data))
								if err := k.put(data[:m]); err != nil {
									t.Fatal(err)
								}
								data = data[m:]
							}
							if err := k.finish(s); err != nil {
								t.Fatal(err)
							}
							pieces += k.pieces
						}
						return w.mem, pieces
					}
					wantMem, wantN := scatter(dual)
					gotMem, gotN := scatter(comp)
					if gotN != wantPieces || wantN != wantPieces {
						t.Fatalf("scatter pieces: compiled %d, Dual %d, pack %d", gotN, wantN, wantPieces)
					}
					if !bytes.Equal(gotMem, wantMem) {
						t.Fatal("compiled scatter wrote different bytes than Dual")
					}
					if n := comp.count(); n != wantPieces {
						t.Fatalf("counting pass = %d; want %d", n, wantPieces)
					}
				})
			}
		}
	}
}

// TestDtypeMemOutsideBuffer: a memory loop that reaches past the caller's
// buffer fails the operation with an error on every path — compiled and
// interpreted (NoCoalesce), read and write — and never panics.
func TestDtypeMemOutsideBuffer(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.client()
	defer c.Close()
	env := tc.env
	f, err := c.Create(env, "oob.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	memTy := datatype.Vector(16, 1, 2, datatype.Int64) // reaches byte 248
	fileLoop := dataloop.FromType(datatype.Bytes(128))
	if err := f.WriteContig(env, 0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	for _, noCoalesce := range []bool{false, true} {
		for _, write := range []bool{true, false} {
			name := fmt.Sprintf("write=%v/noCoalesce=%v", write, noCoalesce)
			a := &DtypeAccess{
				Mem:        make([]byte, memTy.TrueUB()-8), // last element missing
				MemLoop:    dataloop.FromType(memTy),
				MemCount:   1,
				FileLoop:   fileLoop,
				NoCoalesce: noCoalesce,
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panicked: %v", name, r)
					}
				}()
				op := f.ReadDtype
				if write {
					op = f.WriteDtype
				}
				if err := op(env, a); err == nil || !strings.Contains(err.Error(), "outside buffer") {
					t.Fatalf("%s: err = %v, want a memory-outside-buffer error", name, err)
				}
			}()
		}
	}
}

// flashPack is the flash_write client pack: one rank's checkpoint (the
// paper's E3 shape, 32768 eight-byte memory runs), striped over two
// servers in 64 KiB strips, with both programs compiled ahead as mpiio
// keeps them. It returns the write's piece walker.
func flashPack() *walker {
	cfg := workloads.FlashConfig{Blocks: 8, NB: 8, Guard: 2, Vars: 8, ElemSize: 8, Procs: 8}
	mem := make([]byte, cfg.MemBytes())
	cfg.FillMemory(0, mem)
	a := &DtypeAccess{
		Mem:      mem,
		MemLoop:  dataloop.FromType(cfg.MemType()),
		MemCount: 1,
		FileLoop: dataloop.FromType(cfg.FileType(0)),
	}
	a.FileProg, a.MemProg = flatten.Compile(a.FileLoop), flatten.Compile(a.MemLoop)
	nbytes, tiles, err := a.validate()
	if err != nil {
		panic(err)
	}
	w := packFile(2, 64<<10).dtypePlan(a, nbytes, tiles, true).w
	return &w
}

// TestDtypeClientPackAllocs bounds the steady-state pack: one buffer
// backing every payload plus the per-server size and slice tables, not
// one allocation per piece (the Dual walk appended 32768 pieces into
// growing buffers).
func TestDtypeClientPackAllocs(t *testing.T) {
	w := flashPack()
	if w.fprog == nil {
		t.Fatal("flash pack declined to compile")
	}
	var pieces int64
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if _, pieces, err = w.pack(); err != nil {
			t.Fatal(err)
		}
	})
	if pieces != 32768 {
		t.Fatalf("flash pack counted %d pieces, want 32768", pieces)
	}
	if limit := float64(w.f.layout.NServers + 2); allocs > limit {
		t.Fatalf("flash pack allocates %.0f per op, want <= %.0f", allocs, limit)
	}
}
