package pvfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dtio/internal/storage"
	"dtio/internal/trace"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// Streamed transfer parameters. Transfers strictly larger than the
// segment size are pipelined: the payload moves as wire.StreamChunk
// frames under the credit-window protocol documented in internal/wire,
// so the data owner's disk work overlaps the network transfer instead
// of store-and-forwarding the whole payload.
const (
	// DefaultStreamChunkBytes bounds the flow-control segment size (it
	// matches transport.DefaultSimConfig().ChunkBytes).
	DefaultStreamChunkBytes = 64 * 1024
	// DefaultStreamWindow is the maximum number of unacknowledged
	// segments in flight per transfer.
	DefaultStreamWindow = 4
)

// streamParams applies defaults to configured segment/window values.
func streamParams(chunk, window int) (seg, win int64) {
	if chunk <= 0 {
		chunk = DefaultStreamChunkBytes
	}
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return int64(chunk), int64(window)
}

// segLen is the byte count of segment k of a total-byte stream.
func segLen(total, seg, k int64) int64 {
	if n := total - k*seg; n < seg {
		return n
	}
	return seg
}

// chunkFrameBytes is the frame size of a chunk carrying seg data bytes:
// 13 bytes of type, sequence, empty error string and data length first.
func chunkFrameBytes(seg int64) int { return 13 + int(seg) }

// respFrameBytes is the frame size of an IOResp carrying n data bytes
// and no error: type, sequence, OK, empty error string, size and data
// length first.
func respFrameBytes(n int64) int { return 26 + int(n) }

// bufPool recycles the scratch buffers that stage stream segments and
// frames, so steady-state streaming does not allocate per segment.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled buffer with length n.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) { bufPool.Put(bp) }

// recvAckAtLeast consumes StreamAck frames until one acknowledging
// segment want or later arrives, and returns that sequence. Acks are
// cumulative — a later ack subsumes an earlier one the network dropped,
// and duplicated earlier acks are skipped — so a lossy path cannot
// wedge the credit window as long as any ack gets through. A zero
// timeout blocks indefinitely.
func recvAckAtLeast(env transport.Env, conn transport.Conn, want uint32, timeout time.Duration) (uint32, error) {
	for {
		raw, err := transport.RecvTimeout(env, conn, timeout)
		if err != nil {
			return 0, err
		}
		seq, err := wire.DecodeStreamAck(raw)
		if err != nil {
			return 0, err
		}
		if seq >= want {
			return seq, nil
		}
	}
}

// errShortPayload is the request-level error for a write whose payload
// ends before the request's regions are covered.
var errShortPayload = errors.New("short write payload")

// srvStream is the server side of one streamed write: it receives
// segments in order and grants credit as they are consumed. Disk time
// is charged by the disk scheduler when each segment's batch of runs is
// dispatched (see applyWrite), not here.
type srvStream struct {
	conn   transport.Conn
	total  int64
	seg    int64
	window int64
	nseg   int64
	next   int64                   // next expected segment
	gate   func(env transport.Env) // per-segment stall gate (may be nil)
	fatal  error                   // connection-level failure; the conn must close
	ack    []byte
	chunk  wire.StreamChunk
	// frame receives each chunk frame in turn, so chunk.Data aliases it
	// and is valid only until the next receive. Pooled; release returns
	// it once the request is done with the payload.
	frame *[]byte
}

// release returns the stream's receive buffer to the pool. The caller
// must hold no chunk data any more.
func (ss *srvStream) release() {
	if ss.frame != nil {
		putBuf(ss.frame)
		ss.frame = nil
	}
}

// nextChunk receives segment s.next and acks it per the credit rule.
// Duplicated earlier chunks (fault injection) are consumed and skipped;
// a gap means payload was lost and the connection cannot be salvaged.
func (ss *srvStream) nextChunk(env transport.Env, discard bool) ([]byte, error) {
	if ss.next >= ss.nseg {
		return nil, errShortPayload
	}
	if ss.gate != nil {
		ss.gate(env)
	}
	k := ss.next
	if ss.frame == nil {
		// The segment size is the peer's, so the pooled buffer is capped;
		// a larger frame is still received, into a fresh slice.
		ss.frame = getBuf(chunkFrameBytes(min(ss.seg, DefaultStreamChunkBytes)))
	}
	for {
		raw, err := transport.RecvInto(env, ss.conn, *ss.frame, 0)
		if err != nil {
			ss.fatal = err
			return nil, err
		}
		if err := wire.DecodeStreamChunk(raw, &ss.chunk); err != nil {
			ss.fatal = err
			return nil, err
		}
		if int64(ss.chunk.Seq) < k && ss.chunk.Err == "" {
			continue // duplicate of an already-consumed segment
		}
		break
	}
	want := segLen(ss.total, ss.seg, k)
	if int64(ss.chunk.Seq) != k || int64(len(ss.chunk.Data)) != want || ss.chunk.Err != "" {
		ss.fatal = fmt.Errorf("pvfs: stream chunk seq=%d len=%d err=%q, want seq=%d len=%d",
			ss.chunk.Seq, len(ss.chunk.Data), ss.chunk.Err, k, want)
		return nil, ss.fatal
	}
	ss.next++
	if k+ss.window < ss.nseg {
		ss.ack = wire.AppendStreamAck(ss.ack, uint32(k))
		if err := ss.conn.Send(env, ss.ack); err != nil {
			ss.fatal = err
			return nil, err
		}
	}
	return ss.chunk.Data, nil
}

// drain consumes and acks the rest of the stream after a request-level
// failure, so the connection stays usable for the error response. It
// returns only connection-level (fatal) errors.
func (ss *srvStream) drain(env transport.Env) error {
	if ss.fatal != nil {
		return ss.fatal
	}
	for ss.next < ss.nseg {
		if _, err := ss.nextChunk(env, true); err != nil {
			return ss.fatal
		}
	}
	return nil
}

// writeSrc supplies a write request's payload bytes, either from the
// inline request data or pulled segment-by-segment off a stream.
type writeSrc struct {
	data     []byte // unconsumed inline payload / current segment
	consumed int64
	// skip is the resumed-write prefix (bytes already durable from a
	// previous attempt): next reports them as skipped without receiving
	// or touching the disk, and the request walk advances past them.
	skip   int64
	stream *srvStream // nil when the payload is inline
	// flush (optional, streamed writes) dispatches the runs buffered
	// from the current segment. It runs before the next segment is
	// received, because chunk data aliases the stream's receive buffer
	// and is only valid until the next receive.
	flush func(env transport.Env) error
}

// writeSrcPool recycles inline payload sources across requests, part of
// keeping the write hot path inside the same per-request allocation
// bound as the read path.
var writeSrcPool = sync.Pool{New: func() any { return new(writeSrc) }}

func inlineSrc(data []byte) *writeSrc {
	p := writeSrcPool.Get().(*writeSrc)
	*p = writeSrc{data: data}
	return p
}

// putSrc returns an inline source to the pool, dropping its payload
// reference. Streamed sources hold per-request stream state and are
// not pooled.
func putSrc(p *writeSrc) {
	if p.stream != nil {
		return
	}
	*p = writeSrc{}
	writeSrcPool.Put(p)
}

// next returns up to want unconsumed payload bytes: either skipped > 0
// (already-durable resume prefix the caller must step over without
// writing) or 1..want bytes in b, receiving the next segment when the
// current one is exhausted.
func (p *writeSrc) next(env transport.Env, want int64) (b []byte, skipped int64, err error) {
	if p.skip > 0 {
		n := p.skip
		if n > want {
			n = want
		}
		p.skip -= n
		p.consumed += n
		return nil, n, nil
	}
	if len(p.data) == 0 && p.stream != nil {
		if p.flush != nil {
			if err := p.flush(env); err != nil {
				return nil, 0, err
			}
		}
		b, err := p.stream.nextChunk(env, false)
		if err != nil {
			return nil, 0, err
		}
		p.data = b
	}
	if len(p.data) == 0 {
		return nil, 0, errShortPayload
	}
	n := int64(len(p.data))
	if n > want {
		n = want
	}
	b = p.data[:n]
	p.data = p.data[n:]
	p.consumed += n
	return b, 0, nil
}

// leftover reports payload bytes beyond what the request consumed.
func (p *writeSrc) leftover() int64 {
	if p.stream != nil {
		return p.stream.total - p.consumed
	}
	return int64(len(p.data))
}

// drain disposes of an aborted streamed payload; nil for inline.
func (p *writeSrc) drain(env transport.Env) error {
	if p.stream == nil {
		return nil
	}
	return p.stream.drain(env)
}

// streamRead sends the total bytes collected in sd as a flow-controlled
// segment stream: segment k+1 comes off the disk while segment k is on
// the wire. Each segment's runs are dispatched as one scheduled batch
// (sorted, coalesced, gap-sieved), and its planned disk time replaces
// the old bytes-only per-segment charge; a sequential stream keeps the
// head moving and pays a single positioning charge in total. A storage
// failure mid-stream sends a terminal error chunk and returns an error,
// closing the connection.
func (s *Server) streamRead(env transport.Env, conn transport.Conn, st storage.Store, sd *diskSched, total, seg, window int64, seq uint64, sp *trace.Span) error {
	nseg := (total + seg - 1) / seg
	hdr := wire.EncodeReadStreamHdr(&wire.ReadStreamHdr{
		Seq: seq, Total: total, SegBytes: int32(seg), Window: int32(window),
	})
	if err := conn.Send(env, hdr); err != nil {
		return err
	}
	segs := sd.planStream(total, seg)
	ackedThrough := int64(-1)
	fp := getBuf(chunkFrameBytes(seg))
	defer func() { putBuf(fp) }()
	frame := *fp
	// Segment 0 comes off the disk before anything is on the wire.
	env.DiskUse(segs[0].cost)
	for k := int64(0); k < nseg; k++ {
		s.stallGate(env)
		nk := segLen(total, seg, k)
		var ssp *trace.Span
		if sp != nil {
			ssp = s.Tracer.Begin(env, s.spanTrack, "stream:seg", sp.SID())
			ssp.SetAttr("seg", k)
			ssp.SetAttr("bytes", nk)
		}
		frame = wire.AppendStreamChunkHdr(frame[:0], uint32(k), int(nk))
		h := len(frame)
		frame = frame[:h+int(nk)]
		*fp = frame
		if err := sd.readBatch(st, segs[k], frame[h:], k*seg); err != nil {
			// Terminal error chunk, then fail the connection: the client
			// cannot resynchronize a half-delivered stream.
			conn.Send(env, wire.EncodeStreamChunk(&wire.StreamChunk{Seq: uint32(k), Err: err.Error()}))
			return fmt.Errorf("pvfs: streamed read: %w", err)
		}
		var nextDisk time.Duration
		if k+1 < nseg {
			nextDisk = segs[k+1].cost
		}
		k := k
		err := env.OverlapDisk(nextDisk, func() error {
			if k >= window && ackedThrough < k-window {
				got, err := recvAckAtLeast(env, conn, uint32(k-window), 0)
				if err != nil {
					return err
				}
				ackedThrough = int64(got)
			}
			return conn.Send(env, frame)
		})
		ssp.End(env)
		if err != nil {
			return err
		}
	}
	return nil
}
