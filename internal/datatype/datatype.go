// Package datatype implements MPI-style derived datatypes: structured
// descriptions of noncontiguous byte layouts built from a small set of
// constructors (contiguous, vector, indexed, block-indexed, struct,
// subarray, resized).
//
// A Type describes a set of (offset, length) byte regions relative to an
// origin, together with an extent that determines the spacing when the
// type is repeated. The semantics follow the MPI standard: Size is the
// number of data bytes, Extent is UB-LB, and TrueLB/TrueUB bound the bytes
// actually touched.
//
// Types in this package are immutable after construction and safe for
// concurrent use.
package datatype

import (
	"fmt"
)

// Kind discriminates the constructor that produced a Type.
type Kind uint8

// Type kinds.
const (
	KindBasic Kind = iota // contiguous run of bytes
	KindContig
	KindVector  // count blocks of blocklen children, byte stride
	KindIndexed // blocks of varying length at varying displacements
	KindBlockIndexed
	KindStruct
	KindResized
)

func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindContig:
		return "contig"
	case KindVector:
		return "vector"
	case KindIndexed:
		return "indexed"
	case KindBlockIndexed:
		return "blockindexed"
	case KindStruct:
		return "struct"
	case KindResized:
		return "resized"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Type is an immutable structured byte-layout description.
type Type struct {
	kind   Kind
	size   int64 // data bytes per instance
	lb, ub int64 // extent bounds (ub-lb = extent)
	tlb    int64 // true lower bound: offset of first data byte
	tub    int64 // true upper bound: one past last data byte
	oneRun bool  // data provably forms a single contiguous run at tlb

	count    int64
	blocklen int64   // vector/blockindexed: children per block
	stride   int64   // vector: bytes between block starts
	lens     []int64 // indexed/struct: children (or bytes for struct child i) per block
	displs   []int64 // indexed/blockindexed/struct: byte displacements
	child    *Type
	children []*Type // struct only
}

// Kind reports the constructor kind.
func (t *Type) Kind() Kind { return t.kind }

// Size reports the number of data bytes in one instance of the type.
func (t *Type) Size() int64 { return t.size }

// Extent reports UB-LB, the spacing used when the type is repeated.
func (t *Type) Extent() int64 { return t.ub - t.lb }

// LB reports the lower bound.
func (t *Type) LB() int64 { return t.lb }

// UB reports the upper bound.
func (t *Type) UB() int64 { return t.ub }

// TrueLB reports the offset of the first data byte.
func (t *Type) TrueLB() int64 { return t.tlb }

// TrueUB reports one past the offset of the last data byte.
func (t *Type) TrueUB() int64 { return t.tub }

// TrueExtent reports TrueUB-TrueLB, the span of bytes actually touched.
func (t *Type) TrueExtent() int64 { return t.tub - t.tlb }

// IsContig reports whether the type's data is one dense run covering
// exactly its extent starting at offset zero.
func (t *Type) IsContig() bool {
	return t.oneRun && t.tlb == 0 && t.lb == 0 && t.size == t.Extent()
}

// OneRun reports whether the type's data provably forms a single
// contiguous run (it may still have a nonzero lower bound or padding in
// its extent). The analysis is structural and conservative: accidental
// adjacency in indexed types is not detected.
func (t *Type) OneRun() bool { return t.oneRun }

// denseChild reports whether repetitions of t at extent spacing form one
// contiguous run (single-run data filling the whole extent).
func denseChild(t *Type) bool {
	return t.oneRun && t.size == t.Extent()
}

// blockRun reports whether a block of n repetitions of child at extent
// spacing emits as a single run.
func blockRun(child *Type, n int64) bool {
	return child.oneRun && (n == 1 || child.size == child.Extent())
}

func (t *Type) String() string {
	switch t.kind {
	case KindBasic:
		return fmt.Sprintf("basic(%d)", t.size)
	case KindContig:
		return fmt.Sprintf("contig(%d, %s)", t.count, t.child)
	case KindVector:
		return fmt.Sprintf("hvector(%d, %d, %d, %s)", t.count, t.blocklen, t.stride, t.child)
	case KindIndexed:
		return fmt.Sprintf("hindexed(%d blocks, %s)", len(t.lens), t.child)
	case KindBlockIndexed:
		return fmt.Sprintf("hblockindexed(%d x %d, %s)", len(t.displs), t.blocklen, t.child)
	case KindStruct:
		return fmt.Sprintf("struct(%d fields)", len(t.children))
	case KindResized:
		return fmt.Sprintf("resized(lb=%d, extent=%d, %s)", t.lb, t.Extent(), t.child)
	}
	return "?"
}

// Bytes returns a basic type of n contiguous bytes. n must be positive.
func Bytes(n int64) *Type {
	if n <= 0 {
		panic("datatype: Bytes needs n > 0")
	}
	return &Type{kind: KindBasic, size: n, ub: n, tub: n, oneRun: true}
}

// Common fixed-size element types.
var (
	Byte    = Bytes(1)
	Int32   = Bytes(4)
	Int64   = Bytes(8)
	Float32 = Bytes(4)
	Float64 = Bytes(8)
)

// Contiguous returns a type of count repetitions of old laid end to end
// (spacing = old.Extent()).
func Contiguous(count int, old *Type) *Type {
	if count < 0 {
		panic("datatype: negative count")
	}
	c := int64(count)
	t := &Type{
		kind:  KindContig,
		size:  c * old.size,
		count: c,
		child: old,
	}
	if c == 0 {
		return t
	}
	ext := old.Extent()
	t.lb = old.lb
	t.ub = old.ub + (c-1)*ext
	t.tlb = old.tlb
	t.tub = old.tub + (c-1)*ext
	if ext < 0 { // pathological but legal with Resized
		t.lb = old.lb + (c-1)*ext
		t.ub = old.ub
		t.tlb = old.tlb + (c-1)*ext
		t.tub = old.tub
	}
	t.oneRun = (c == 1 && old.oneRun) || denseChild(old)
	return t
}

// Vector returns count blocks of blocklen olds, with stride given in
// elements of old (MPI_Type_vector).
func Vector(count, blocklen, stride int, old *Type) *Type {
	return HVector(count, blocklen, int64(stride)*old.Extent(), old)
}

// HVector returns count blocks of blocklen olds, with stride given in
// bytes (MPI_Type_create_hvector).
func HVector(count, blocklen int, strideBytes int64, old *Type) *Type {
	if count < 0 || blocklen < 0 {
		panic("datatype: negative count/blocklen")
	}
	c, bl := int64(count), int64(blocklen)
	t := &Type{
		kind:     KindVector,
		size:     c * bl * old.size,
		count:    c,
		blocklen: bl,
		stride:   strideBytes,
		child:    old,
	}
	if c == 0 || bl == 0 {
		return t
	}
	ext := old.Extent()
	// Bounds over all block starts i*stride, i in [0,count).
	minStart, maxStart := int64(0), (c-1)*strideBytes
	if strideBytes < 0 {
		minStart, maxStart = maxStart, minStart
	}
	blockSpan := (bl - 1) * ext // offset of last element in a block
	lo, hi := int64(0), blockSpan
	if ext < 0 {
		lo, hi = blockSpan, int64(0)
	}
	t.lb = minStart + lo + old.lb
	t.ub = maxStart + hi + old.ub
	t.tlb = minStart + lo + old.tlb
	t.tub = maxStart + hi + old.tub
	t.oneRun = blockRun(old, bl) && (c == 1 || strideBytes == bl*old.size)
	return t
}

// Indexed returns blocks of lens[i] olds at displacements displs[i] given
// in elements of old (MPI_Type_indexed).
func Indexed(lens, displs []int, old *Type) *Type {
	bd := make([]int64, len(displs))
	for i, d := range displs {
		bd[i] = int64(d) * old.Extent()
	}
	ln := make([]int64, len(lens))
	for i, l := range lens {
		ln[i] = int64(l)
	}
	return HIndexed(ln, bd, old)
}

// HIndexed returns blocks of lens[i] olds at byte displacements displs[i]
// (MPI_Type_create_hindexed).
func HIndexed(lens []int64, displs []int64, old *Type) *Type {
	if len(lens) != len(displs) {
		panic("datatype: lens/displs length mismatch")
	}
	t := &Type{
		kind:   KindIndexed,
		count:  int64(len(lens)),
		lens:   append([]int64(nil), lens...),
		displs: append([]int64(nil), displs...),
		child:  old,
	}
	ext := old.Extent()
	first := true
	for i := range lens {
		if lens[i] < 0 {
			panic("datatype: negative block length")
		}
		t.size += lens[i] * old.size
		if lens[i] == 0 {
			continue
		}
		span := (lens[i] - 1) * ext
		lo, hi := int64(0), span
		if ext < 0 {
			lo, hi = span, 0
		}
		blb := displs[i] + lo + old.lb
		bub := displs[i] + hi + old.ub
		btlb := displs[i] + lo + old.tlb
		btub := displs[i] + hi + old.tub
		if first {
			t.lb, t.ub, t.tlb, t.tub = blb, bub, btlb, btub
			first = false
			continue
		}
		t.lb = min64(t.lb, blb)
		t.ub = max64(t.ub, bub)
		t.tlb = min64(t.tlb, btlb)
		t.tub = max64(t.tub, btub)
	}
	nonzero, last := 0, int64(0)
	for _, l := range lens {
		if l > 0 {
			nonzero++
			last = l
		}
	}
	t.oneRun = nonzero == 1 && blockRun(old, last)
	return t
}

// BlockIndexed returns equal-size blocks of blocklen olds at displacements
// given in elements of old (MPI_Type_create_indexed_block).
func BlockIndexed(blocklen int, displs []int, old *Type) *Type {
	bd := make([]int64, len(displs))
	for i, d := range displs {
		bd[i] = int64(d) * old.Extent()
	}
	return HBlockIndexed(blocklen, bd, old)
}

// HBlockIndexed returns equal-size blocks at byte displacements.
func HBlockIndexed(blocklen int, displs []int64, old *Type) *Type {
	lens := make([]int64, len(displs))
	for i := range lens {
		lens[i] = int64(blocklen)
	}
	t := HIndexed(lens, displs, old)
	t.kind = KindBlockIndexed
	t.blocklen = int64(blocklen)
	return t
}

// Struct returns a heterogeneous type: lens[i] repetitions of types[i] at
// byte displacement displs[i] (MPI_Type_create_struct).
func Struct(lens []int, displs []int64, types []*Type) *Type {
	if len(lens) != len(displs) || len(lens) != len(types) {
		panic("datatype: struct argument length mismatch")
	}
	t := &Type{
		kind:     KindStruct,
		count:    int64(len(lens)),
		displs:   append([]int64(nil), displs...),
		children: append([]*Type(nil), types...),
	}
	t.lens = make([]int64, len(lens))
	first := true
	for i := range lens {
		if lens[i] < 0 {
			panic("datatype: negative block length")
		}
		t.lens[i] = int64(lens[i])
		old := types[i]
		t.size += int64(lens[i]) * old.size
		if lens[i] == 0 {
			continue
		}
		ext := old.Extent()
		span := (int64(lens[i]) - 1) * ext
		lo, hi := int64(0), span
		if ext < 0 {
			lo, hi = span, 0
		}
		blb := displs[i] + lo + old.lb
		bub := displs[i] + hi + old.ub
		btlb := displs[i] + lo + old.tlb
		btub := displs[i] + hi + old.tub
		if first {
			t.lb, t.ub, t.tlb, t.tub = blb, bub, btlb, btub
			first = false
			continue
		}
		t.lb = min64(t.lb, blb)
		t.ub = max64(t.ub, bub)
		t.tlb = min64(t.tlb, btlb)
		t.tub = max64(t.tub, btub)
	}
	nonzero := 0
	for i, l := range t.lens {
		if l > 0 && types[i].size > 0 {
			nonzero++
			if t.oneRun = blockRun(types[i], l); !t.oneRun {
				break
			}
		}
	}
	t.oneRun = t.oneRun && nonzero == 1
	return t
}

// Resized overrides the lower bound and extent of old
// (MPI_Type_create_resized).
func Resized(old *Type, lb, extent int64) *Type {
	return &Type{
		kind:   KindResized,
		size:   old.size,
		lb:     lb,
		ub:     lb + extent,
		tlb:    old.tlb,
		tub:    old.tub,
		child:  old,
		oneRun: old.oneRun,
	}
}

// Order selects array storage order for Subarray.
type Order int

// Storage orders.
const (
	OrderC       Order = iota // last dimension varies fastest (row-major)
	OrderFortran              // first dimension varies fastest (column-major)
)

// Subarray describes an n-dimensional subarray of an n-dimensional array
// (MPI_Type_create_subarray). sizes is the full array shape, subsizes the
// block shape, starts the block origin, all in elements of old. The
// resulting type's extent covers the entire array, so repeating it tiles
// consecutive arrays.
func Subarray(sizes, subsizes, starts []int, order Order, old *Type) *Type {
	n := len(sizes)
	if len(subsizes) != n || len(starts) != n || n == 0 {
		panic("datatype: subarray dimension mismatch")
	}
	for i := 0; i < n; i++ {
		if subsizes[i] < 0 || starts[i] < 0 || starts[i]+subsizes[i] > sizes[i] {
			panic(fmt.Sprintf("datatype: subarray dim %d out of range", i))
		}
	}
	// Normalize to C order: dimension n-1 contiguous.
	sz := append([]int(nil), sizes...)
	ssz := append([]int(nil), subsizes...)
	st := append([]int(nil), starts...)
	if order == OrderFortran {
		reverse(sz)
		reverse(ssz)
		reverse(st)
	}
	ext := old.Extent()
	// Row of subsizes[n-1] elements.
	t := Contiguous(ssz[n-1], old)
	rowBytes := int64(sz[n-1]) * ext
	offset := int64(st[n-1]) * ext
	stride := rowBytes
	// Fold in dimensions n-2 .. 0.
	for d := n - 2; d >= 0; d-- {
		t = HVector(ssz[d], 1, stride, t)
		offset += int64(st[d]) * stride
		stride *= int64(sz[d])
	}
	// Place at the start offset, and resize extent to the full array.
	t = HIndexed([]int64{1}, []int64{offset}, t)
	return Resized(t, 0, stride)
}

// Walk invokes fn for every contiguous data region of one instance of the
// type placed at byte origin base, in data-stream order (the order MPI
// pack would touch bytes). Adjacent regions are NOT coalesced. fn returns
// false to stop early; Walk reports whether iteration ran to completion.
func (t *Type) Walk(base int64, fn func(off, n int64) bool) bool {
	if t.size == 0 {
		return true
	}
	if t.oneRun {
		return fn(base+t.tlb, t.size)
	}
	switch t.kind {
	case KindBasic:
		return fn(base, t.size)
	case KindContig:
		ext := t.child.Extent()
		for i := int64(0); i < t.count; i++ {
			if !t.child.Walk(base+i*ext, fn) {
				return false
			}
		}
		return true
	case KindVector:
		ext := t.child.Extent()
		dense := blockRun(t.child, t.blocklen)
		for i := int64(0); i < t.count; i++ {
			blockBase := base + i*t.stride
			if dense {
				if !fn(blockBase+t.child.tlb, t.blocklen*t.child.size) {
					return false
				}
				continue
			}
			for j := int64(0); j < t.blocklen; j++ {
				if !t.child.Walk(blockBase+j*ext, fn) {
					return false
				}
			}
		}
		return true
	case KindIndexed, KindBlockIndexed:
		ext := t.child.Extent()
		for b := range t.lens {
			blockBase := base + t.displs[b]
			if blockRun(t.child, t.lens[b]) {
				if t.lens[b] > 0 {
					if !fn(blockBase+t.child.tlb, t.lens[b]*t.child.size) {
						return false
					}
				}
				continue
			}
			for j := int64(0); j < t.lens[b]; j++ {
				if !t.child.Walk(blockBase+j*ext, fn) {
					return false
				}
			}
		}
		return true
	case KindStruct:
		for b := range t.children {
			child := t.children[b]
			ext := child.Extent()
			blockBase := base + t.displs[b]
			if blockRun(child, t.lens[b]) {
				if t.lens[b] > 0 && child.size > 0 {
					if !fn(blockBase+child.tlb, t.lens[b]*child.size) {
						return false
					}
				}
				continue
			}
			for j := int64(0); j < t.lens[b]; j++ {
				if !child.Walk(blockBase+j*ext, fn) {
					return false
				}
			}
		}
		return true
	case KindResized:
		return t.child.Walk(base, fn)
	}
	panic("datatype: unknown kind")
}

// Region is a contiguous byte run.
type Region struct {
	Off int64
	Len int64
}

// AppendRegion appends the region [off, off+n) to regs, merging it into
// the last region when the two are adjacent.
func AppendRegion(regs []Region, off, n int64) []Region {
	if k := len(regs); k > 0 && regs[k-1].Off+regs[k-1].Len == off {
		regs[k-1].Len += n
		return regs
	}
	return append(regs, Region{Off: off, Len: n})
}

// Flatten materializes the regions of count instances of the type placed
// at byte origin base, coalescing adjacent regions. Instances are spaced
// by Extent().
func (t *Type) Flatten(base int64, count int) []Region {
	var out []Region
	ext := t.Extent()
	for i := 0; i < count; i++ {
		t.Walk(base+int64(i)*ext, func(off, n int64) bool {
			if n == 0 {
				return true
			}
			out = AppendRegion(out, off, n)
			return true
		})
	}
	return out
}

// NumRegions counts the uncoalesced contiguous regions of one instance.
func (t *Type) NumRegions() int64 {
	var n int64
	t.Walk(0, func(_, ln int64) bool {
		if ln > 0 {
			n++
		}
		return true
	})
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
