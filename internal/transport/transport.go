// Package transport abstracts how the file system's clients and servers
// execute and communicate, so the same PVFS and MPI-IO code runs on:
//
//   - Mem: real goroutines, in-process message queues, no modeled time
//     (unit/integration tests, examples);
//   - Sim: vtime processes on a modeled cluster — NIC bandwidth/latency,
//     disk and CPU contention — producing deterministic virtual-time
//     performance numbers (the benchmark harness);
//   - TCP: real sockets (the cmd/pvfs-* daemons).
//
// Every blocking or costed call takes the caller's Env explicitly; this
// is how a goroutine identifies itself to the virtual-time kernel.
package transport

import (
	"errors"
	"sync"
	"time"
)

// Env is the execution environment of one logical thread of control.
type Env interface {
	// Go starts a sibling thread on the same node.
	Go(name string, fn func(env Env))
	// Sleep advances (modeled) time. No-op outside simulation.
	Sleep(d time.Duration)
	// Compute models CPU work on this node, contending with other
	// threads on the same node. No-op outside simulation.
	Compute(d time.Duration)
	// DiskUse models disk occupancy on this node. No-op outside
	// simulation.
	DiskUse(d time.Duration)
	// Overlap runs fn while cost() of CPU work proceeds concurrently on
	// this node (modeling pipelined processing overlapped with I/O); it
	// returns fn's error after both finish. Outside simulation it just
	// runs fn and never calls cost, so a cost that takes its own pass
	// over the data is paid only where CPU time is modeled.
	Overlap(cost func() time.Duration, fn func() error) error
	// OverlapDisk runs fn while d of disk occupancy proceeds concurrently
	// on this node (modeling the next flow segment being read or written
	// while the current one is on the wire); it returns fn's error after
	// both finish. Outside simulation it just runs fn.
	OverlapDisk(d time.Duration, fn func() error) error
	// Parallel runs the given functions as concurrent sibling threads on
	// this node and returns after all complete; the result is the first
	// non-nil error in argument order. Outside simulation the functions
	// run on real goroutines.
	Parallel(name string, fns ...func(env Env) error) error
	// Now reports elapsed (modeled or wall) time since the environment
	// started.
	Now() time.Duration
}

// Conn is a message-oriented, bidirectional, ordered connection.
// Send/Recv take the calling Env; distinct threads may concurrently use
// the two directions.
type Conn interface {
	Send(env Env, msg []byte) error
	Recv(env Env) ([]byte, error)
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept(env Env) (Conn, error)
	Close() error
}

// Network creates listeners and connections by address. Address syntax is
// network-specific; Mem and Sim use opaque strings like "server3".
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(env Env, addr string) (Conn, error)
}

// ErrClosed is returned by operations on closed connections or listeners.
var ErrClosed = errors.New("transport: closed")

// ErrTimeout is returned by RecvTimeout when the deadline passes with no
// message. After a timeout the connection should be considered suspect:
// the TCP transport may have consumed part of a frame, so the only safe
// recovery is to drop the connection and redial.
var ErrTimeout = errors.New("transport: receive timeout")

// TimedConn is implemented by connections that support a bounded-wait
// receive. All three in-repo transports implement it.
type TimedConn interface {
	Conn
	// RecvTimeout behaves like Recv but fails with ErrTimeout once d of
	// (modeled or wall) time passes without a message. d <= 0 means no
	// deadline.
	RecvTimeout(env Env, d time.Duration) ([]byte, error)
}

// RecvTimeout performs a timed receive when c supports it, falling back
// to a blocking Recv otherwise (or when d <= 0).
func RecvTimeout(env Env, c Conn, d time.Duration) ([]byte, error) {
	if tc, ok := c.(TimedConn); ok && d > 0 {
		return tc.RecvTimeout(env, d)
	}
	return c.Recv(env)
}

// BufConn is implemented by connections that can receive a frame into
// a caller-supplied buffer. Only the TCP transport implements it: the
// Mem and Sim transports already hand over the copy their Send made.
type BufConn interface {
	Conn
	// RecvInto behaves like RecvTimeout, except that a frame no longer
	// than cap(buf) is read into buf and the result aliases it: it is
	// valid only until buf is reused. A larger frame comes back in a
	// fresh slice.
	RecvInto(env Env, buf []byte, d time.Duration) ([]byte, error)
}

// RecvInto performs a buffer-reusing receive when c supports it,
// falling back to RecvTimeout (a fresh or sender-owned frame)
// otherwise. Only a caller that is done with the previous frame before
// it reuses buf may pass one; Recv and RecvTimeout never alias.
func RecvInto(env Env, c Conn, buf []byte, d time.Duration) ([]byte, error) {
	if bc, ok := c.(BufConn); ok {
		return bc.RecvInto(env, buf, d)
	}
	return RecvTimeout(env, c, d)
}

// PollConn is implemented by connections that support a non-blocking
// receive. The Mem and Sim transports implement it; TCP does not (a
// frame may arrive in pieces, so "is a message ready" has no cheap
// answer there).
type PollConn interface {
	Conn
	// TryRecv returns the next queued message without blocking. ok is
	// false when no message is ready. A closed connection reports
	// (nil, false, ErrClosed).
	TryRecv(env Env) (msg []byte, ok bool, err error)
}

// TryRecv performs a non-blocking receive when c supports it; on
// transports without polling it reports no message ready.
func TryRecv(env Env, c Conn) ([]byte, bool, error) {
	if pc, ok := c.(PollConn); ok {
		return pc.TryRecv(env)
	}
	return nil, false, nil
}

// RealEnv is the Env for ordinary goroutines: spawning is `go`, modeled
// costs are no-ops, Now is wall-clock.
type RealEnv struct {
	start time.Time
}

// NewRealEnv returns an Env backed by real goroutines and wall time.
func NewRealEnv() *RealEnv { return &RealEnv{start: time.Now()} }

// Go implements Env.
func (e *RealEnv) Go(name string, fn func(env Env)) { go fn(e) }

// Sleep implements Env (modeled time: no-op).
func (e *RealEnv) Sleep(d time.Duration) {}

// Compute implements Env (no-op).
func (e *RealEnv) Compute(d time.Duration) {}

// DiskUse implements Env (no-op).
func (e *RealEnv) DiskUse(d time.Duration) {}

// Overlap implements Env (no modeled cost: just runs fn).
func (e *RealEnv) Overlap(cost func() time.Duration, fn func() error) error { return fn() }

// OverlapDisk implements Env (no modeled cost: just runs fn).
func (e *RealEnv) OverlapDisk(d time.Duration, fn func() error) error { return fn() }

// Parallel implements Env: the functions run on real goroutines.
func (e *RealEnv) Parallel(name string, fns ...func(env Env) error) error {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0](e)
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func(env Env) error) {
			defer wg.Done()
			errs[i] = fn(e)
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Now implements Env.
func (e *RealEnv) Now() time.Duration { return time.Since(e.start) }

// queue is an unbounded FIFO of messages for the Mem network.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  [][]byte
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) put(m []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return nil
}

func (q *queue) get() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, ErrClosed
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, nil
}

// getTimeout is get with a wall-clock deadline. sync.Cond has no timed
// wait, so a timer briefly wakes all waiters at the deadline.
func (q *queue) getTimeout(d time.Duration) ([]byte, error) {
	deadline := time.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		rest := time.Until(deadline)
		if rest <= 0 {
			return nil, ErrTimeout
		}
		t := time.AfterFunc(rest, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		q.cond.Wait()
		t.Stop()
	}
	if len(q.items) == 0 {
		return nil, ErrClosed
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, nil
}

// tryGet pops the next message without blocking.
func (q *queue) tryGet() ([]byte, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		if q.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, true, nil
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// MemNetwork is an in-process Network with no modeled costs.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMemNetwork returns an empty in-process network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

type memListener struct {
	net     *MemNetwork
	addr    string
	backlog *queueAny
}

type memConn struct {
	in, out *queue
	once    sync.Once
}

// Listen implements Network.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, errors.New("transport: address in use: " + addr)
	}
	l := &memListener{net: n, addr: addr, backlog: newQueueAny()}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(env Env, addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, errors.New("transport: no listener at " + addr)
	}
	ab, ba := newQueue(), newQueue()
	client := &memConn{in: ba, out: ab}
	server := &memConn{in: ab, out: ba}
	if err := l.backlog.put(server); err != nil {
		return nil, err
	}
	return client, nil
}

func (l *memListener) Accept(env Env) (Conn, error) {
	v, err := l.backlog.get()
	if err != nil {
		return nil, err
	}
	return v.(*memConn), nil
}

func (l *memListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	l.backlog.close()
	return nil
}

func (c *memConn) Send(env Env, msg []byte) error {
	m := make([]byte, len(msg))
	copy(m, msg)
	return c.out.put(m)
}

func (c *memConn) Recv(env Env) ([]byte, error) {
	return c.in.get()
}

// RecvTimeout implements TimedConn over wall time.
func (c *memConn) RecvTimeout(env Env, d time.Duration) ([]byte, error) {
	if d <= 0 {
		return c.in.get()
	}
	return c.in.getTimeout(d)
}

// TryRecv implements PollConn.
func (c *memConn) TryRecv(env Env) ([]byte, bool, error) {
	return c.in.tryGet()
}

func (c *memConn) Close() error {
	c.once.Do(func() {
		c.in.close()
		c.out.close()
	})
	return nil
}

// queueAny is queue for arbitrary values (listener backlogs).
type queueAny struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	closed bool
}

func newQueueAny() *queueAny {
	q := &queueAny{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queueAny) put(v any) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return nil
}

func (q *queueAny) get() (any, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, ErrClosed
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, nil
}

func (q *queueAny) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
