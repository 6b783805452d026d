package flatten

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
)

// span reports the buffer bytes count instances of ty displaced by disp
// reach: exactly as large as the access needs, so the kernels' bounds
// check gets no slack to hide behind.
func span(ty *datatype.Type, count, disp int64) int64 {
	return disp + ty.TrueUB() + (count-1)*ty.Extent()
}

func patternedBuf(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// oracleGather is the interpreted reference for one window: walk the
// coalesced regions of the window and copy them out in stream order.
func oracleGather(loop *dataloop.Loop, src []byte, count, disp, pos, n int64) ([]byte, int64) {
	var out []byte
	regs := NewIterAt(loop, count, disp, pos, n, true).Collect()
	for _, r := range regs {
		out = append(out, src[r.Off:r.Off+r.Len]...)
	}
	return out, int64(len(regs))
}

func TestGatherScatterMatchIterWindows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ty := datatype.RandomType(r, 1+r.Intn(3))
		count := int64(2 + r.Intn(3))
		total := count * ty.Size()
		if total == 0 || total > 1<<16 {
			return true
		}
		loop := dataloop.FromType(ty)
		p := Compile(loop)
		if p == nil {
			return true
		}
		disp := int64(r.Intn(3)) * 64
		mem := patternedBuf(span(ty, count, disp), byte(seed))
		for k := 0; k < 8; k++ {
			pos := 1 + r.Int63n(total)
			if pos == total {
				pos = 0
			}
			n := 1 + r.Int63n(total-pos)
			want, wantPieces := oracleGather(loop, mem, count, disp, pos, n)
			got := make([]byte, n)
			pieces, err := p.Gather(got, mem, count, disp, pos, n)
			if err != nil || pieces != wantPieces || !bytes.Equal(got, want) {
				t.Logf("seed=%d type=%v count=%d disp=%d window=[%d,+%d): gather pieces %d want %d, err %v, bytes equal %v",
					seed, ty, count, disp, pos, n, pieces, wantPieces, err, bytes.Equal(got, want))
				return false
			}
			if c, err := p.Gather(nil, mem, count, disp, pos, n); err != nil || c != wantPieces {
				t.Logf("seed=%d: counting gather = %d, %v; want %d", seed, c, err, wantPieces)
				return false
			}
			// Scatter the window back into a blank buffer; gathering the
			// result must give the same bytes, and every byte outside the
			// window's regions must stay untouched.
			blank := make([]byte, len(mem))
			pieces, err = p.Scatter(blank, got, count, disp, pos, n)
			if err != nil || pieces != wantPieces {
				t.Logf("seed=%d: scatter pieces %d want %d, err %v", seed, pieces, wantPieces, err)
				return false
			}
			ref := make([]byte, len(mem))
			for _, reg := range NewIterAt(loop, count, disp, pos, n, true).Collect() {
				copy(ref[reg.Off:reg.Off+reg.Len], mem[reg.Off:reg.Off+reg.Len])
			}
			if !bytes.Equal(blank, ref) {
				t.Logf("seed=%d type=%v window=[%d,+%d): scatter diverged from the oracle", seed, ty, pos, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// dualPack is the client's interpreted pack: the Dual walk of a file
// window against the whole memory stream, copying each piece.
func dualPack(fileLoop *dataloop.Loop, fCount, pos int64, memLoop *dataloop.Loop, mCount int64, mem []byte) ([]byte, int64) {
	n := mCount * memLoop.Size
	d := NewDual(NewIterAt(fileLoop, fCount, 0, pos, n, true), NewIter(memLoop, mCount, 0, true))
	var out []byte
	var pieces int64
	for {
		_, mo, k, ok := d.Next()
		if !ok {
			return out, pieces
		}
		out = append(out, mem[mo:mo+k]...)
		pieces++
	}
}

// TestGatherMatchesDualPack pairs random file and memory types of equal
// stream size, as a datatype write does, and packs the memory side once
// through the Dual oracle and once by replaying the file window and
// gathering each file run's stream window from the compiled memory
// program. Bytes and piece counts must both agree; the file runs cut
// memory runs on either side, and the window starts past 0.
func TestGatherMatchesDualPack(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fileTy := datatype.RandomType(r, 1+r.Intn(2))
		memTy := datatype.RandomType(r, 1+r.Intn(2))
		if fileTy.Size() == 0 || memTy.Size() == 0 {
			return true
		}
		// Equal stream sizes: each side repeats the other's size, and the
		// file view gets one spare tile so the window can start past 0.
		mCount := fileTy.Size()
		n := mCount * memTy.Size()
		if n > 1<<15 {
			return true
		}
		pos := 1 + r.Int63n(fileTy.Size())
		fCount := (pos + n + fileTy.Size() - 1) / fileTy.Size()
		fileLoop, memLoop := dataloop.FromType(fileTy), dataloop.FromType(memTy)
		fp, mp := Compile(fileLoop), Compile(memLoop)
		if fp == nil || mp == nil {
			return true
		}
		mem := patternedBuf(span(memTy, mCount, 0), byte(seed))
		want, wantPieces := dualPack(fileLoop, fCount, pos, memLoop, mCount, mem)

		got := make([]byte, n)
		var pieces, s int64
		err := fp.Replay(fCount, 0, pos, n, func(_, ln int64) error {
			k, err := mp.Gather(got[s:s+ln], mem, mCount, 0, s, ln)
			pieces += k
			s += ln
			return err
		})
		if err != nil || s != n || pieces != wantPieces || !bytes.Equal(got, want) {
			t.Logf("seed=%d file=%v mem=%v pos=%d n=%d: pieces %d want %d, covered %d, err %v",
				seed, fileTy, memTy, pos, n, pieces, wantPieces, s, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterRejectOutsideBuffer(t *testing.T) {
	ty := datatype.Vector(8, 1, 4, datatype.Int64) // runs at 0, 32, ..., 224
	p := Compile(dataloop.FromType(ty))
	short := make([]byte, ty.TrueUB()-1)
	flat := make([]byte, ty.Size())
	if _, err := p.Gather(flat, short, 1, 0, 0, ty.Size()); err == nil || !strings.Contains(err.Error(), "outside buffer") {
		t.Fatalf("gather past the buffer: err = %v", err)
	}
	if _, err := p.Scatter(short, flat, 1, 0, 0, ty.Size()); err == nil || !strings.Contains(err.Error(), "outside buffer") {
		t.Fatalf("scatter past the buffer: err = %v", err)
	}
	// A window that stops before the last run never touches it.
	if _, err := p.Gather(flat, short, 1, 0, 0, ty.Size()-8); err != nil {
		t.Fatalf("window short of the missing byte: %v", err)
	}
	if _, err := p.Gather(flat, short, 1, 0, 8, ty.Size()); err == nil {
		t.Fatal("window past the stream end accepted")
	}
	if _, err := p.Gather(flat[:8], short, 1, 0, 0, 16); err == nil {
		t.Fatal("short contiguous buffer accepted")
	}
}
