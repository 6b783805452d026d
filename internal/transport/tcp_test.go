package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair spawns a listener and returns an accepted framed connection
// together with a raw client socket, so tests can write malformed frames.
func tcpPair(t *testing.T) (srv Conn, raw net.Conn) {
	t.Helper()
	tn := NewTCPNetwork()
	env := NewRealEnv()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	addr, _ := BoundAddr(l)
	done := make(chan Conn, 1)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	raw, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	srv = <-done
	if srv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { srv.Close() })
	return srv, raw
}

// A peer that disconnects after sending only part of the 4-byte length
// prefix must surface an error, not hang or return a bogus frame.
func TestTCPPartialHeaderRead(t *testing.T) {
	srv, raw := tcpPair(t)
	if _, err := raw.Write([]byte{0x10, 0x00}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	_, err := srv.Recv(NewRealEnv())
	if err == nil {
		t.Fatal("Recv succeeded on a truncated header")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("partial header reported as clean close: %v", err)
	}
}

// A clean close before any bytes is EOF and maps to ErrClosed.
func TestTCPCleanDisconnectIsErrClosed(t *testing.T) {
	srv, raw := tcpPair(t)
	raw.Close()
	if _, err := srv.Recv(NewRealEnv()); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// A peer that promises a frame body and disconnects mid-frame must
// surface an unexpected-EOF error.
func TestTCPDisconnectMidFrame(t *testing.T) {
	srv, raw := tcpPair(t)
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], 100)
	if _, err := raw.Write(head[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	_, err := srv.Recv(NewRealEnv())
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want unexpected EOF", err)
	}
}

// A length prefix beyond maxFrame is rejected without allocating it.
func TestTCPOversizedFrameRejected(t *testing.T) {
	srv, raw := tcpPair(t)
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], maxFrame+1)
	if _, err := raw.Write(head[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(NewRealEnv()); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	srv, raw := tcpPair(t)
	env := NewRealEnv()
	tc, ok := srv.(TimedConn)
	if !ok {
		t.Fatal("tcp conn does not implement TimedConn")
	}
	start := time.Now()
	_, err := tc.RecvTimeout(env, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
	// A frame arriving after the timeout is still readable on a fresh
	// blocking Recv (the deadline must have been cleared): the stream is
	// only mid-frame if bytes were partially consumed, which they were
	// not here.
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], 2)
	raw.Write(head[:])
	raw.Write([]byte("ok"))
	msg, err := srv.Recv(env)
	if err != nil || string(msg) != "ok" {
		t.Fatalf("post-timeout Recv: %q, %v", msg, err)
	}
}

// Send on a connection whose peer reset it eventually errors (possibly
// after a buffered first write succeeds).
func TestTCPSendAfterPeerClose(t *testing.T) {
	srv, raw := tcpPair(t)
	raw.Close()
	env := NewRealEnv()
	var err error
	for i := 0; i < 50 && err == nil; i++ {
		err = srv.Send(env, make([]byte, 64*1024))
		time.Sleep(time.Millisecond)
	}
	if err == nil {
		t.Fatal("sends kept succeeding after peer close")
	}
}

// tcpConnPair returns the two framed ends of one loopback connection.
func tcpConnPair(tb testing.TB) (dialed, accepted Conn) {
	tb.Helper()
	tn := NewTCPNetwork()
	env := NewRealEnv()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	addr, _ := BoundAddr(l)
	done := make(chan Conn, 1)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	dialed, err = tn.Dial(env, addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dialed.Close() })
	if accepted = <-done; accepted == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() { accepted.Close() })
	return dialed, accepted
}

// frameBytes is frame i's content: its index is in the pattern, which
// does not repeat at any power-of-two period, so a frame read at the
// wrong offset or from a stale buffer compares unequal.
func frameBytes(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte((uint32(j)*2654435761 + uint32(i)*40503) >> 24)
	}
	return b
}

// Frames of every size around the prefix, the receive buffer and the
// stream segment go out back to back from one Send loop, and come back
// byte-identical through every receive: Recv, and RecvInto with a nil,
// a too-small and an ample buffer. A frame that fits the buffer is
// filled in place; a larger one comes back in a fresh slice.
func TestTCPFramingRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 3, 4, 5, recvBufBytes - 4, recvBufBytes, recvBufBytes + 1, 64<<10 + 13, 1 << 20}
	recvs := []struct {
		name string
		into bool
		buf  []byte
	}{
		{"Recv", false, nil},
		{"RecvInto/nil", true, nil},
		{"RecvInto/small", true, make([]byte, 4)},
		{"RecvInto/ample", true, make([]byte, 1<<20)},
	}
	for _, rc := range recvs {
		t.Run(rc.name, func(t *testing.T) {
			a, b := tcpConnPair(t)
			env := NewRealEnv()
			sent := make(chan error, 1)
			go func() {
				for i, n := range sizes {
					if err := a.Send(env, frameBytes(i, n)); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for i, n := range sizes {
				var got []byte
				var err error
				if rc.into {
					got, err = RecvInto(env, b, rc.buf, time.Second)
				} else {
					got, err = b.Recv(env)
				}
				if err != nil {
					t.Fatalf("frame %d (%d B): %v", i, n, err)
				}
				if !bytes.Equal(got, frameBytes(i, n)) {
					t.Fatalf("frame %d (%d B) came back as %d different bytes", i, n, len(got))
				}
				if n > 0 && cap(rc.buf) > 0 {
					if inBuf, fits := &got[0] == &rc.buf[:1][0], n <= cap(rc.buf); inBuf != fits {
						t.Fatalf("frame %d (%d B), %d-byte buffer: received in place = %v", i, n, cap(rc.buf), inBuf)
					}
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A frame returned by Recv or RecvTimeout belongs to the caller: later
// receives on the same conn, through the same per-conn read buffer,
// must not write into it.
func TestTCPRecvOwnership(t *testing.T) {
	a, b := tcpConnPair(t)
	env := NewRealEnv()
	const later = 10
	go func() {
		for i := 0; i <= 2*later+1; i++ {
			if err := a.Send(env, frameBytes(i, 300+i)); err != nil {
				return
			}
		}
	}()
	for i, recv := range []func() ([]byte, error){
		func() ([]byte, error) { return b.Recv(env) },
		func() ([]byte, error) { return RecvTimeout(env, b, time.Second) },
	} {
		first := i * (later + 1)
		kept, err := recv()
		if err != nil {
			t.Fatal(err)
		}
		want := frameBytes(first, 300+first)
		for j := 1; j <= later; j++ {
			if _, err := b.Recv(env); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(kept, want) {
			t.Fatalf("receive %d: the returned frame changed under later receives", i)
		}
	}
}

// A timed receive that expires mid-frame reports ErrTimeout, on both
// the fresh-frame and the buffer-taking receive.
func TestTCPRecvTimeoutMidFrame(t *testing.T) {
	for _, into := range []bool{false, true} {
		srv, raw := tcpPair(t)
		var head [4]byte
		binary.LittleEndian.PutUint32(head[:], 100)
		if _, err := raw.Write(append(head[:], make([]byte, 10)...)); err != nil {
			t.Fatal(err)
		}
		env := NewRealEnv()
		var err error
		if into {
			_, err = RecvInto(env, srv, make([]byte, 200), 30*time.Millisecond)
		} else {
			_, err = RecvTimeout(env, srv, 30*time.Millisecond)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("RecvInto=%v: got %v, want ErrTimeout", into, err)
		}
	}
}

// A timed receive that succeeds clears its deadline: a blocking Recv
// issued after the deadline would have passed still waits for its frame.
func TestTCPTimedRecvClearsDeadline(t *testing.T) {
	srv, raw := tcpPair(t)
	env := NewRealEnv()
	frame := func(s string) []byte {
		var head [4]byte
		binary.LittleEndian.PutUint32(head[:], uint32(len(s)))
		return append(head[:], s...)
	}
	raw.Write(frame("one"))
	if msg, err := RecvInto(env, srv, make([]byte, 8), 20*time.Millisecond); err != nil || string(msg) != "one" {
		t.Fatalf("timed receive: %q, %v", msg, err)
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		raw.Write(frame("two"))
	}()
	if msg, err := srv.Recv(env); err != nil || string(msg) != "two" {
		t.Fatalf("blocking receive after an expired deadline: %q, %v", msg, err)
	}
}

// BenchmarkTCPRoundTrip echoes one frame over a loopback TCPNetwork
// connection: the per-request transport cost a small request pays
// (256 B) and the cost of one stream segment (64 KiB + 13, a chunk
// frame). Run with -benchmem; both ends' allocations are counted.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, size := range []int{256, 64<<10 + 13} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			cli, srv := tcpConnPair(b)
			env := NewRealEnv()
			go func() {
				for {
					msg, err := srv.Recv(env)
					if err != nil || srv.Send(env, msg) != nil {
						return
					}
				}
			}()
			msg := make([]byte, size)
			b.SetBytes(int64(2 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Send(env, msg); err != nil {
					b.Fatal(err)
				}
				if _, err := cli.Recv(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
