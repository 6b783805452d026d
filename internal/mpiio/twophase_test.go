package mpiio

import (
	"bytes"
	"testing"

	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/mpi"
)

// TestTwoPhaseAllocsFlatInPieces: a two-phase round keeps its region
// lists, memory runs, messages and replies in per-File buffers, so an
// operation's allocations do not grow with its piece count. What growth
// remains is the pair walk's own piece batches.
func TestTwoPhaseAllocsFlatInPieces(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; ci.sh runs this bound without it")
	}
	r := newRig(t, 1, 1)
	c := r.client()
	defer c.Close()
	comm := mpi.NewComm(r.fab, 0, 1)
	allocs := func(n int, write bool) float64 {
		pf, err := c.Create(r.env, "allocs.dat", 4096, 0)
		if err != nil {
			pf, err = c.Open(r.env, "allocs.dat")
		}
		if err != nil {
			t.Fatal(err)
		}
		f := Open(pf, comm, TwoPhase, DefaultHints())
		if err := f.SetView(0, datatype.Byte, datatype.Vector(n, 4, 8, datatype.Byte)); err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0x5A}, 4*n)
		op := func() {
			var err error
			if write {
				err = f.WriteAtAll(r.env, 0, buf, datatype.Bytes(int64(len(buf))), 1)
			} else {
				err = f.ReadAtAll(r.env, 0, buf, datatype.Bytes(int64(len(buf))), 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		op()
		return testing.AllocsPerRun(50, op)
	}
	for _, write := range []bool{false, true} {
		small, large := allocs(64, write), allocs(4096, write)
		t.Logf("write=%v: %.0f allocs/op at 64 pieces, %.0f at 4096", write, small, large)
		if large > small+4 {
			t.Errorf("write=%v: %.0f allocs/op at 4096 pieces, %.0f at 64: want at most 4 more", write, large, small)
		}
	}
}

// TestDecodeRoundChecks: an aggregator accepts only region lists that
// lie in its own round chunk and whose payload matches their bytes.
func TestDecodeRoundChecks(t *testing.T) {
	msg := func(payload []byte, regs ...flatten.Region) []byte {
		return append(encodeRegions(nil, regs), payload...)
	}
	const clo, chi = 100, 200
	cases := []struct {
		name  string
		msg   []byte
		write bool
		ok    bool
	}{
		{"read", msg(nil, flatten.Region{Off: 100, Len: 10}, flatten.Region{Off: 150, Len: 50}), false, true},
		{"write", msg(make([]byte, 60), flatten.Region{Off: 100, Len: 10}, flatten.Region{Off: 150, Len: 50}), true, true},
		{"below chunk", msg(nil, flatten.Region{Off: 99, Len: 10}), false, false},
		{"past chunk", msg(nil, flatten.Region{Off: 195, Len: 10}), false, false},
		{"empty region", msg(nil, flatten.Region{Off: 120, Len: 0}), false, false},
		{"truncated", msg(nil, flatten.Region{Off: 120, Len: 8})[:19], false, false},
		{"short payload", msg(make([]byte, 7), flatten.Region{Off: 120, Len: 8}), true, false},
		{"read payload", msg(make([]byte, 8), flatten.Region{Off: 120, Len: 8}), false, false},
	}
	for _, tc := range cases {
		lo, hi, total, err := decodeRound(clo, chi, [][]byte{nil, tc.msg}, tc.write)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
		if tc.ok && (lo != 100 || hi != 200 || total != 60) {
			t.Errorf("%s: span [%d,%d) total %d, want [100,200) 60", tc.name, lo, hi, total)
		}
	}
}
