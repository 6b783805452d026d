package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a single message (1 GiB); larger transfers must be
// chunked by the caller. Protects against corrupt or hostile length
// prefixes.
const maxFrame = 1 << 30

// recvBufBytes sizes each connection's receive buffer. A request, an
// ack or a small reply (prefix included) arrives in one read; a larger
// frame's body drains the buffered prefix and then reads straight into
// the destination, so bulk payload is not copied twice. A larger buffer
// would stage bulk payload and copy it out again.
const recvBufBytes = 4 << 10

// TCPNetwork implements Network over real sockets. Messages are framed
// with a 4-byte little-endian length prefix.
type TCPNetwork struct{}

// NewTCPNetwork returns the TCP transport.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

type tcpListener struct {
	l net.Listener
}

type tcpConn struct {
	c      net.Conn
	sendMu sync.Mutex
	// sendVec and sendBufs stage a frame's prefix and body for one
	// writev. They live in the conn, not on Send's stack, because
	// WriteTo's pointer receiver would make a local escape.
	sendHead [4]byte
	sendVec  [2][]byte
	sendBufs net.Buffers
	recvMu   sync.Mutex
	r        *bufio.Reader
	lenBuf   [4]byte
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, recvBufBytes)}
}

// Listen implements Network. addr is a standard host:port.
func (n *TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (n *TCPNetwork) Dial(env Env, addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Accept(env Env) (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error { return l.l.Close() }

// Addr reports the bound address (useful with ":0" listens).
func (l *tcpListener) Addr() string { return l.l.Addr().String() }

// BoundAddr returns the listen address if l is a TCP listener.
func BoundAddr(l Listener) (string, bool) {
	if tl, ok := l.(*tcpListener); ok {
		return tl.Addr(), true
	}
	return "", false
}

// Send implements Conn. The length prefix and the body leave in one
// writev, so a frame costs one syscall and no allocation.
func (c *tcpConn) Send(env Env, msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.LittleEndian.PutUint32(c.sendHead[:], uint32(len(msg)))
	c.sendVec = [2][]byte{c.sendHead[:], msg}
	c.sendBufs = c.sendVec[:]
	_, err := c.sendBufs.WriteTo(c.c)
	c.sendVec = [2][]byte{} // hold no reference to msg after Send
	return err
}

// Recv implements Conn. The frame is freshly allocated and owned by
// the caller.
func (c *tcpConn) Recv(env Env) ([]byte, error) {
	return c.recv(nil, 0)
}

// RecvTimeout implements TimedConn via a socket read deadline. On
// ErrTimeout the stream may be mid-frame; the connection must be dropped.
func (c *tcpConn) RecvTimeout(env Env, d time.Duration) ([]byte, error) {
	return c.recv(nil, d)
}

// RecvInto implements BufConn: a frame that fits in cap(buf) is read
// into buf.
func (c *tcpConn) RecvInto(env Env, buf []byte, d time.Duration) ([]byte, error) {
	return c.recv(buf, d)
}

// recv reads one frame into buf when it fits (a fresh slice otherwise),
// under a read deadline when d > 0. The deadline is cleared before
// returning, so a later blocking receive cannot inherit it.
func (c *tcpConn) recv(buf []byte, d time.Duration) ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if d <= 0 {
		return c.recvFrame(buf)
	}
	c.c.SetReadDeadline(time.Now().Add(d))
	msg, err := c.recvFrame(buf)
	c.c.SetReadDeadline(time.Time{})
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, ErrTimeout
		}
		return nil, err
	}
	return msg, nil
}

func (c *tcpConn) recvFrame(buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(c.r, c.lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, ErrClosed
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	var msg []byte
	if int(n) <= cap(buf) {
		msg = buf[:n]
	} else {
		msg = make([]byte, n)
	}
	if _, err := io.ReadFull(c.r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// Close implements Conn.
func (c *tcpConn) Close() error { return c.c.Close() }
