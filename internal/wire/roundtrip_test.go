package wire

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"dtio/internal/datatype"
)

// reEncode marshals a message decoded by DecodeMsg back to bytes. The
// round-trip invariant for every message M is
//
//	enc(dec(enc(M))) == enc(M)
//
// compared as bytes rather than reflect.DeepEqual, so nil-vs-empty
// slice normalization in the decoder (Dec.Bytes returns a non-nil empty
// slice) cannot mask a real field mismatch.
func reEncode(typ MsgType, v any) ([]byte, error) {
	switch r := v.(type) {
	case *CreateReq:
		return EncodeCreate(r), nil
	case *OpenReq:
		return EncodeOpen(r), nil
	case *RemoveReq:
		return EncodeRemove(r), nil
	case *MetaResp:
		return EncodeMetaResp(r), nil
	case *ListResp:
		return EncodeListResp(r), nil
	case *ContigReq:
		return EncodeContig(r, typ == MTWriteContigReq), nil
	case *ListIOReq:
		return EncodeListIO(r, typ == MTWriteListReq), nil
	case *DtypeReq:
		return EncodeDtype(r, typ == MTWriteDtypeReq), nil
	case *LocalSizeReq:
		return EncodeLocalSize(r), nil
	case *TruncateReq:
		return EncodeTruncate(r), nil
	case *RemoveObjReq:
		return EncodeRemoveObj(r), nil
	case *IOResp:
		return EncodeIOResp(r), nil
	case *ReadStreamHdr:
		return EncodeReadStreamHdr(r), nil
	case *WriteStreamHdr:
		return EncodeWriteStreamHdr(r), nil
	case *StreamChunk:
		return EncodeStreamChunk(r), nil
	case *StreamAck:
		return EncodeStreamAck(r), nil
	case *AdminReq:
		return EncodeAdmin(r), nil
	case *LockAcquireReq:
		return EncodeLockAcquire(r), nil
	case *LockReleaseReq:
		return EncodeLockRelease(r), nil
	case *LockGrant:
		return EncodeLockGrant(r), nil
	case *LeaseRevoke:
		return EncodeLeaseRevoke(r), nil
	case *ReplicaListResp:
		return EncodeReplicaListResp(r), nil
	case *ReplicaFetchReq:
		return EncodeReplicaFetch(r), nil
	case *ReplicaSumReq:
		return EncodeReplicaSum(r), nil
	case *ReplicaSumResp:
		return EncodeReplicaSumResp(r), nil
	case *struct{}:
		switch typ {
		case MTListReq:
			return EncodeListNames(), nil
		case MTMetaStatsReq:
			return EncodeMetaStats(), nil
		case MTReplicaListReq:
			return EncodeReplicaList(), nil
		}
	}
	return nil, fmt.Errorf("no encoder for %s (%T)", typ, v)
}

// reRoundTrip decodes a frame, re-encodes the result, and demands the
// identical bytes (and a stable second decode).
func reRoundTrip(t *testing.T, b []byte) {
	t.Helper()
	typ, v, err := DecodeMsg(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b2, err := reEncode(typ, v)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("%s: re-encoded bytes differ:\n enc: %x\nre-enc: %x", typ, b, b2)
	}
	typ2, _, err := DecodeMsg(b2)
	if err != nil || typ2 != typ {
		t.Fatalf("%s: second decode: type %s err %v", typ, typ2, err)
	}
}

// TestRoundTripEveryMessage covers each message type with representative
// and edge-case values (empty strings, nil and non-nil payloads, zero
// and negative numerics), then checks the table against the full
// MsgType enum so adding a message without a round-trip case fails.
func TestRoundTripEveryMessage(t *testing.T) {
	tag := ReqTag{Client: 7, Seq: 42, Span: 99}
	lay := FileLayout{Handle: 12, StripSize: 65536, NServers: 16, Base: 3, ServerIdx: 5, Replicas: 3, Member: 1}
	cases := []struct {
		typ MsgType
		b   []byte
	}{
		{MTCreateReq, EncodeCreate(&CreateReq{Name: "a/b.dat", StripSize: 1 << 16, NServers: 8})},
		{MTCreateReq, EncodeCreate(&CreateReq{})},
		{MTOpenReq, EncodeOpen(&OpenReq{Name: "x"})},
		{MTOpenReq, EncodeOpen(&OpenReq{})},
		{MTRemoveReq, EncodeRemove(&RemoveReq{Name: "gone"})},
		{MTListReq, EncodeListNames()},
		{MTMetaResp, EncodeMetaResp(&MetaResp{OK: true, Handle: 9, StripSize: 4096, NServers: 4, Base: 1, Size: 1 << 30})},
		{MTMetaResp, EncodeMetaResp(&MetaResp{Err: "no such file"})},
		{MTListResp, EncodeListResp(&ListResp{OK: true, Names: []string{"a", "", "c"}})},
		{MTListResp, EncodeListResp(&ListResp{OK: true})},
		{MTReadContigReq, EncodeContig(&ContigReq{Tag: tag, Layout: lay, Off: 128, N: 4096}, false)},
		{MTWriteContigReq, EncodeContig(&ContigReq{Tag: tag, Layout: lay, Off: 0, N: 3, Data: []byte{1, 2, 3}}, true)},
		{MTWriteContigReq, EncodeContig(&ContigReq{Tag: tag, Layout: lay}, true)},
		{MTReadListReq, EncodeListIO(&ListIOReq{Tag: tag, Layout: lay, Regions: []datatype.Region{{Off: 0, Len: 8}, {Off: 64, Len: 8}}}, false)},
		{MTWriteListReq, EncodeListIO(&ListIOReq{Tag: tag, Layout: lay, Regions: []datatype.Region{{Off: 4, Len: 2}}, Data: []byte{9, 9}}, true)},
		{MTReadDtypeReq, EncodeDtype(&DtypeReq{Tag: tag, Layout: lay, Loop: []byte{1, 2}, Count: 10, Disp: 4, Pos: 0, NBytes: 80, NoCoalesce: true}, false)},
		{MTWriteDtypeReq, EncodeDtype(&DtypeReq{Tag: tag, Layout: lay, Loop: []byte{3}, Count: 1, NBytes: 1, Data: []byte{5}}, true)},
		{MTLocalSizeReq, EncodeLocalSize(&LocalSizeReq{Tag: tag, Layout: lay})},
		{MTTruncateReq, EncodeTruncate(&TruncateReq{Tag: tag, Layout: lay, Size: 12345})},
		{MTRemoveObjReq, EncodeRemoveObj(&RemoveObjReq{Tag: tag, Layout: lay})},
		{MTIOResp, EncodeIOResp(&IOResp{Seq: 42, OK: true, Size: 7, Data: []byte("payload")})},
		{MTIOResp, EncodeIOResp(&IOResp{Err: "disk on fire"})},
		{MTReadStreamHdr, EncodeReadStreamHdr(&ReadStreamHdr{Seq: 1, Total: 1 << 20, SegBytes: 65536, Window: 4})},
		{MTWriteStreamHdr, EncodeWriteStreamHdr(&WriteStreamHdr{Total: 1 << 20, SegBytes: 65536, Window: 4, StartSeg: 2, Inner: []byte{7, 8}})},
		{MTStreamChunk, EncodeStreamChunk(&StreamChunk{Seq: 3, Data: []byte{0, 1}})},
		{MTStreamChunk, EncodeStreamChunk(&StreamChunk{Seq: 4, Err: "aborted"})},
		{MTStreamAck, EncodeStreamAck(&StreamAck{Seq: 17})},
		{MTLockAcquireReq, EncodeLockAcquire(&LockAcquireReq{Handle: 5, Off: 0, N: 100, Shared: true, Span: 8, Revocable: true})},
		{MTLockAcquireReq, EncodeLockAcquire(&LockAcquireReq{Handle: 6, Off: -1, N: 0})},
		{MTLockReleaseReq, EncodeLockRelease(&LockReleaseReq{Handle: 5, LockID: 77})},
		{MTLockGrant, EncodeLockGrant(&LockGrant{OK: true, LockID: 77, WaitedNs: 12000, LeaseNs: 30e9})},
		{MTLockGrant, EncodeLockGrant(&LockGrant{Err: "file removed"})},
		{MTAdminReq, EncodeAdmin(&AdminReq{Op: AdminDegrade, Dur: 5e8, Factor: 250})},
		{MTLeaseRevoke, EncodeLeaseRevoke(&LeaseRevoke{Handle: 5, LockID: 77, Off: 64, N: 128})},
		{MTMetaStatsReq, EncodeMetaStats()},
		{MTAdminReq, EncodeAdmin(&AdminReq{Op: AdminKill, Dur: 2e8})},
		{MTReplicaListReq, EncodeReplicaList()},
		{MTReplicaListResp, EncodeReplicaListResp(&ReplicaListResp{OK: true, Pending: 2, Handles: []uint64{3, 9}, Sizes: []int64{4096, 0}})},
		{MTReplicaListResp, EncodeReplicaListResp(&ReplicaListResp{Err: "repairing"})},
		{MTReplicaFetchReq, EncodeReplicaFetch(&ReplicaFetchReq{Handle: 9, Off: 1 << 20, N: 65536})},
		{MTReplicaSumReq, EncodeReplicaSum(&ReplicaSumReq{Handle: 9})},
		{MTReplicaSumResp, EncodeReplicaSumResp(&ReplicaSumResp{OK: true, Sums: []uint64{0, 1 << 63, 0xdeadbeef}})},
		{MTReplicaSumResp, EncodeReplicaSumResp(&ReplicaSumResp{Err: "repairing"})},
	}
	covered := map[MsgType]bool{}
	for _, c := range cases {
		reRoundTrip(t, c.b)
		covered[c.typ] = true
	}
	for typ := MTCreateReq; typ <= MTReplicaSumResp; typ++ {
		if !covered[typ] {
			t.Errorf("message type %s has no round-trip case", typ)
		}
		if name := typ.String(); name == fmt.Sprintf("msgtype(%d)", uint8(typ)) {
			t.Errorf("message type %d has no name", uint8(typ))
		}
	}
	// The server names every request it traces and counts.
	if n := testing.AllocsPerRun(100, func() { msgName = MTReadContigReq.String() }); n != 0 {
		t.Errorf("MsgType.String allocates %.0f times, want 0", n)
	}
}

// msgName keeps the String call under AllocsPerRun from being optimized
// away.
var msgName string

// TestRoundTripQuick drives every parameterized message with randomized
// field values via testing/quick.
func TestRoundTripQuick(t *testing.T) {
	check := func(name string, f any) {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	rt := func(b []byte) bool {
		typ, v, err := DecodeMsg(b)
		if err != nil {
			return false
		}
		b2, err := reEncode(typ, v)
		return err == nil && bytes.Equal(b, b2)
	}
	check("create", func(name string, strip int64, ns int32) bool {
		return rt(EncodeCreate(&CreateReq{Name: name, StripSize: strip, NServers: ns}))
	})
	check("open", func(name string) bool { return rt(EncodeOpen(&OpenReq{Name: name})) })
	check("remove", func(name string) bool { return rt(EncodeRemove(&RemoveReq{Name: name})) })
	check("metaresp", func(ok bool, errs string, h uint64, strip int64, ns, base int32, size int64) bool {
		return rt(EncodeMetaResp(&MetaResp{OK: ok, Err: errs, Handle: h, StripSize: strip, NServers: ns, Base: base, Size: size}))
	})
	check("listresp", func(ok bool, errs string, names []string) bool {
		return rt(EncodeListResp(&ListResp{OK: ok, Err: errs, Names: names}))
	})
	check("contig", func(tag ReqTag, lay FileLayout, off, n int64, data []byte, write bool) bool {
		r := &ContigReq{Tag: tag, Layout: lay, Off: off, N: n}
		if write {
			r.Data = data
		}
		return rt(EncodeContig(r, write))
	})
	check("listio", func(tag ReqTag, lay FileLayout, regions []datatype.Region, data []byte, write bool) bool {
		r := &ListIOReq{Tag: tag, Layout: lay, Regions: regions}
		if write {
			r.Data = data
		}
		return rt(EncodeListIO(r, write))
	})
	check("dtype", func(tag ReqTag, lay FileLayout, loop []byte, count, disp, pos, nb int64, noco bool, data []byte, write bool) bool {
		r := &DtypeReq{Tag: tag, Layout: lay, Loop: loop, Count: count, Disp: disp, Pos: pos, NBytes: nb, NoCoalesce: noco}
		if write {
			r.Data = data
		}
		return rt(EncodeDtype(r, write))
	})
	check("localsize", func(tag ReqTag, lay FileLayout) bool {
		return rt(EncodeLocalSize(&LocalSizeReq{Tag: tag, Layout: lay}))
	})
	check("truncate", func(tag ReqTag, lay FileLayout, size int64) bool {
		return rt(EncodeTruncate(&TruncateReq{Tag: tag, Layout: lay, Size: size}))
	})
	check("removeobj", func(tag ReqTag, lay FileLayout) bool {
		return rt(EncodeRemoveObj(&RemoveObjReq{Tag: tag, Layout: lay}))
	})
	check("ioresp", func(seq uint64, ok bool, errs string, size int64, data []byte) bool {
		return rt(EncodeIOResp(&IOResp{Seq: seq, OK: ok, Err: errs, Size: size, Data: data}))
	})
	check("readstreamhdr", func(seq uint64, total int64, seg, win int32) bool {
		return rt(EncodeReadStreamHdr(&ReadStreamHdr{Seq: seq, Total: total, SegBytes: seg, Window: win}))
	})
	check("writestreamhdr", func(total int64, seg, win int32, start int64, inner []byte) bool {
		return rt(EncodeWriteStreamHdr(&WriteStreamHdr{Total: total, SegBytes: seg, Window: win, StartSeg: start, Inner: inner}))
	})
	check("streamchunk", func(seq uint32, errs string, data []byte) bool {
		return rt(EncodeStreamChunk(&StreamChunk{Seq: seq, Err: errs, Data: data}))
	})
	check("streamack", func(seq uint32) bool { return rt(EncodeStreamAck(&StreamAck{Seq: seq})) })
	check("admin", func(op uint8, dur, factor int64) bool {
		return rt(EncodeAdmin(&AdminReq{Op: AdminOp(op), Dur: dur, Factor: factor}))
	})
	check("lockacquire", func(h uint64, off, n int64, shared bool, span uint64, rev bool) bool {
		return rt(EncodeLockAcquire(&LockAcquireReq{Handle: h, Off: off, N: n, Shared: shared, Span: span, Revocable: rev}))
	})
	check("lockrelease", func(h, id uint64) bool {
		return rt(EncodeLockRelease(&LockReleaseReq{Handle: h, LockID: id}))
	})
	check("lockgrant", func(ok bool, errs string, id uint64, waited, lease int64) bool {
		return rt(EncodeLockGrant(&LockGrant{OK: ok, Err: errs, LockID: id, WaitedNs: waited, LeaseNs: lease}))
	})
	check("leaserevoke", func(h, id uint64, off, n int64) bool {
		return rt(EncodeLeaseRevoke(&LeaseRevoke{Handle: h, LockID: id, Off: off, N: n}))
	})
	check("replicalistresp", func(ok bool, errs string, pending int64, handles []uint64, sizes []int64) bool {
		return rt(EncodeReplicaListResp(&ReplicaListResp{OK: ok, Err: errs, Pending: pending, Handles: handles, Sizes: sizes}))
	})
	check("replicafetch", func(h uint64, off, n int64) bool {
		return rt(EncodeReplicaFetch(&ReplicaFetchReq{Handle: h, Off: off, N: n}))
	})
	check("replicasum", func(h uint64) bool {
		return rt(EncodeReplicaSum(&ReplicaSumReq{Handle: h}))
	})
	check("replicasumresp", func(ok bool, errs string, sums []uint64) bool {
		return rt(EncodeReplicaSumResp(&ReplicaSumResp{OK: ok, Err: errs, Sums: sums}))
	})
}
