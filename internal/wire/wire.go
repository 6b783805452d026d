// Package wire defines the binary protocol between PVFS clients and
// servers: little-endian message codecs for metadata operations and the
// four data access interfaces (contiguous, list, and datatype reads and
// writes).
//
// Request encodings matter to the reproduction: a list I/O request grows
// by 16 bytes per region while a datatype request carries one fixed-size
// dataloop, and that difference — measured by Msg sizes on the wire — is
// a core effect the paper evaluates.
package wire

import (
	"encoding/binary"
	"fmt"
)

// MsgType discriminates messages.
type MsgType uint8

// Message types.
const (
	// Metadata server ops.
	MTCreateReq MsgType = iota + 1
	MTOpenReq
	MTRemoveReq
	MTListReq
	MTMetaResp
	MTListResp

	// I/O server ops.
	MTReadContigReq
	MTWriteContigReq
	MTReadListReq
	MTWriteListReq
	MTReadDtypeReq
	MTWriteDtypeReq
	MTLocalSizeReq
	MTTruncateReq
	MTRemoveObjReq
	MTIOResp

	// Streamed (flow-controlled) transfers. A read response larger than
	// the segment size arrives as MTReadStreamHdr followed by
	// MTStreamChunk frames; a large write is sent as MTWriteStreamHdr
	// (wrapping the ordinary write request, minus payload) followed by
	// chunks. MTStreamAck grants one segment of credit in the reverse
	// direction.
	MTReadStreamHdr
	MTWriteStreamHdr
	MTStreamChunk
	MTStreamAck

	// Byte-range lock service (hosted by the metadata server). An
	// acquire that must wait gets no immediate reply; the MTLockGrant
	// arrives once the range frees up (or the lease of a conflicting
	// holder expires).
	MTLockAcquireReq
	MTLockReleaseReq
	MTLockGrant

	// Fault administration: stall, crash-restart, or degrade an I/O
	// server (driven by pvfsctl against real clusters, by the bench
	// fault driver in simulation). Answered with an ordinary MTIOResp.
	MTAdminReq

	// Cache-lease revocation: the metadata server asks the holder of a
	// revocable byte-range lock (a client cache lease) to flush and
	// release it because a conflicting request queued behind it. The
	// holder's MTLockReleaseReq is the acknowledgement.
	MTLeaseRevoke

	// Meta-server introspection: ask a metadata shard for a JSON snapshot
	// of its namespace and lock service (table sizes, queue depths,
	// grants/revocations/expiries). Answered with an MTIOResp carrying the
	// JSON in Data, mirroring the I/O server AdminStats path.
	MTMetaStatsReq

	// Replica repair (server↔server, DESIGN.md §16): a member restarting
	// after a kill asks a group peer to enumerate its local objects
	// (MTReplicaListReq → MTReplicaListResp), compares per-chunk
	// checksums (MTReplicaSumReq → MTReplicaSumResp) across passes, and
	// pulls changed chunks with MTReplicaFetchReq, answered by an
	// ordinary MTIOResp carrying the piece in Data.
	MTReplicaListReq
	MTReplicaListResp
	MTReplicaFetchReq
	MTReplicaSumReq
	MTReplicaSumResp
)

// msgTypeNames names each message type; String indexes it, so naming a
// request allocates nothing.
var msgTypeNames = [...]string{
	MTCreateReq: "create", MTOpenReq: "open", MTRemoveReq: "remove",
	MTListReq: "list", MTMetaResp: "metaresp", MTListResp: "listresp",
	MTReadContigReq: "readcontig", MTWriteContigReq: "writecontig",
	MTReadListReq: "readlist", MTWriteListReq: "writelist",
	MTReadDtypeReq: "readdtype", MTWriteDtypeReq: "writedtype",
	MTLocalSizeReq: "localsize", MTTruncateReq: "truncate",
	MTRemoveObjReq: "removeobj", MTIOResp: "ioresp",
	MTReadStreamHdr: "readstreamhdr", MTWriteStreamHdr: "writestreamhdr",
	MTStreamChunk: "streamchunk", MTStreamAck: "streamack",
	MTLockAcquireReq: "lockacquire", MTLockReleaseReq: "lockrelease",
	MTLockGrant: "lockgrant", MTAdminReq: "admin",
	MTLeaseRevoke: "leaserevoke", MTMetaStatsReq: "metastats",
	MTReplicaListReq: "replicalist", MTReplicaListResp: "replicalistresp",
	MTReplicaFetchReq: "replicafetch", MTReplicaSumReq: "replicasum",
	MTReplicaSumResp: "replicasumresp",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Enc builds a message.
type Enc struct{ B []byte }

// NewEnc starts a message of the given type.
func NewEnc(t MsgType) *Enc { return &Enc{B: []byte{byte(t)}} }

// U8 appends a byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.B = binary.LittleEndian.AppendUint64(e.B, uint64(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) { e.Bytes([]byte(s)) }

// Dec parses a message.
type Dec struct {
	B   []byte
	Off int
	Err error
}

// NewDec wraps a received frame; Type consumes the first byte.
func NewDec(b []byte) *Dec { return &Dec{B: b} }

// Type reads the message type byte.
func (d *Dec) Type() MsgType {
	return MsgType(d.U8())
}

func (d *Dec) fail() {
	if d.Err == nil {
		d.Err = fmt.Errorf("wire: truncated message (%d bytes, offset %d)", len(d.B), d.Off)
	}
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if d.Err != nil || d.Off+1 > len(d.B) {
		d.fail()
		return 0
	}
	v := d.B[d.Off]
	d.Off++
	return v
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.Off+4 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B[d.Off:])
	d.Off += 4
	return v
}

// I64 reads an int64.
func (d *Dec) I64() int64 {
	if d.Err != nil || d.Off+8 > len(d.B) {
		d.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.B[d.Off:]))
	d.Off += 8
	return v
}

// Bytes reads a length-prefixed byte slice (aliasing the frame).
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if d.Err != nil || n < 0 || d.Off+n > len(d.B) {
		d.fail()
		return nil
	}
	v := d.B[d.Off : d.Off+n]
	d.Off += n
	return v
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Done reports an error if decoding failed or bytes remain.
func (d *Dec) Done() error {
	if d.Err != nil {
		return d.Err
	}
	if d.Off != len(d.B) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.B)-d.Off)
	}
	return nil
}
