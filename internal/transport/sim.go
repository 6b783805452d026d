package transport

import (
	"errors"
	"fmt"
	"time"

	"dtio/internal/vtime"
)

// SimConfig models the cluster hardware. The defaults (DefaultSimConfig)
// correspond to the paper's Chiba City testbed: 100 Mbit/s full-duplex
// fast ethernet, era-typical TCP latency, one commodity SCSI disk per
// server.
type SimConfig struct {
	// Bandwidth is NIC bandwidth per direction in bytes/second.
	Bandwidth float64
	// Latency is added once per message.
	Latency time.Duration
	// ChunkBytes is the flow-control segment size; a long transfer
	// occupies the NICs one chunk at a time so concurrent flows
	// interleave fairly.
	ChunkBytes int
	// FrameOverhead approximates per-message header bytes (ethernet +
	// IP + TCP + framing).
	FrameOverhead int
	// CPUSlots is the number of CPUs per node (Chiba City nodes were
	// dual Pentium III).
	CPUSlots int
}

// DefaultSimConfig returns the Chiba City model from DESIGN.md §4.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Bandwidth:     12.5e6, // 100 Mbit/s
		Latency:       120 * time.Microsecond,
		ChunkBytes:    64 * 1024,
		FrameOverhead: 60,
		CPUSlots:      2,
	}
}

// SimNet is a simulated cluster network on a vtime scheduler. Nodes are
// created up front; addresses are "n<node>/<service>" strings produced by
// Addr.
type SimNet struct {
	sched     *vtime.Scheduler
	cfg       SimConfig
	nodes     []*SimNode
	listeners map[string]*simListener
}

// SimNode is one machine: NIC transmit/receive directions, CPUs, a disk.
type SimNode struct {
	ID   int
	TX   *vtime.Resource
	RX   *vtime.Resource
	CPU  *vtime.Resource
	Disk *vtime.Resource
}

// NewSimNet creates a simulated network on sched.
func NewSimNet(sched *vtime.Scheduler, cfg SimConfig) *SimNet {
	if cfg.Bandwidth <= 0 || cfg.ChunkBytes <= 0 || cfg.CPUSlots <= 0 {
		panic("transport: invalid SimConfig")
	}
	return &SimNet{
		sched:     sched,
		cfg:       cfg,
		listeners: make(map[string]*simListener),
	}
}

// Scheduler returns the underlying vtime scheduler.
func (n *SimNet) Scheduler() *vtime.Scheduler { return n.sched }

// Config returns the hardware model.
func (n *SimNet) Config() SimConfig { return n.cfg }

// NewNode adds a machine to the cluster and returns it.
func (n *SimNet) NewNode() *SimNode {
	id := len(n.nodes)
	node := &SimNode{
		ID:   id,
		TX:   n.sched.NewResource(fmt.Sprintf("n%d.tx", id), 1),
		RX:   n.sched.NewResource(fmt.Sprintf("n%d.rx", id), 1),
		CPU:  n.sched.NewResource(fmt.Sprintf("n%d.cpu", id), n.cfg.CPUSlots),
		Disk: n.sched.NewResource(fmt.Sprintf("n%d.disk", id), 1),
	}
	n.nodes = append(n.nodes, node)
	return node
}

// Addr names a service on a node.
func Addr(node *SimNode, service string) string {
	return fmt.Sprintf("n%d/%s", node.ID, service)
}

// Spawn starts a root process on node and returns once it is registered.
// fn runs in the simulation; use the provided Env for all blocking calls.
func (n *SimNet) Spawn(name string, node *SimNode, fn func(env Env)) {
	n.sched.Go(name, func(p *vtime.Proc) {
		fn(&SimEnv{net: n, node: node, proc: p})
	})
}

// SimEnv is the Env of one simulated process.
type SimEnv struct {
	net  *SimNet
	node *SimNode
	proc *vtime.Proc
}

// Node returns the machine this process runs on.
func (e *SimEnv) Node() *SimNode { return e.node }

// Proc returns the vtime process (for advanced primitives).
func (e *SimEnv) Proc() *vtime.Proc { return e.proc }

// Go implements Env: the child runs on the same node.
func (e *SimEnv) Go(name string, fn func(env Env)) {
	e.net.sched.Go(name, func(p *vtime.Proc) {
		fn(&SimEnv{net: e.net, node: e.node, proc: p})
	})
}

// Sleep implements Env.
func (e *SimEnv) Sleep(d time.Duration) { e.proc.Sleep(d) }

// Compute implements Env: occupies one CPU slot of this node.
func (e *SimEnv) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	e.node.CPU.Use(e.proc, d)
}

// DiskUse implements Env: occupies this node's disk.
func (e *SimEnv) DiskUse(d time.Duration) {
	if d <= 0 {
		return
	}
	e.node.Disk.Use(e.proc, d)
}

// Overlap implements Env: cost() of CPU work runs in a sibling process
// while fn executes in this one; Overlap returns after both complete.
func (e *SimEnv) Overlap(cost func() time.Duration, fn func() error) error {
	d := cost()
	if d <= 0 {
		return fn()
	}
	wg := e.net.sched.NewWaitGroup()
	wg.Add(1)
	e.Go("overlap-cpu", func(env Env) {
		env.Compute(d)
		wg.Done()
	})
	err := fn()
	wg.Wait(e.proc)
	return err
}

// OverlapDisk implements Env: d of disk occupancy runs in a sibling
// process while fn executes in this one; it returns after both complete.
// This is the server-side pipelining primitive: segment k+1's disk time
// is charged while segment k is on the wire.
func (e *SimEnv) OverlapDisk(d time.Duration, fn func() error) error {
	if d <= 0 {
		return fn()
	}
	wg := e.net.sched.NewWaitGroup()
	wg.Add(1)
	e.Go("overlap-disk", func(env Env) {
		env.DiskUse(d)
		wg.Done()
	})
	err := fn()
	wg.Wait(e.proc)
	return err
}

// Parallel implements Env: each function runs as its own simulated
// process on this node (the scheduler interleaves them in virtual time).
func (e *SimEnv) Parallel(name string, fns ...func(env Env) error) error {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0](e)
	}
	errs := make([]error, len(fns))
	wg := e.net.sched.NewWaitGroup()
	wg.Add(len(fns))
	for i, fn := range fns {
		i, fn := i, fn
		e.Go(fmt.Sprintf("%s-%d", name, i), func(env Env) {
			errs[i] = fn(env)
			wg.Done()
		})
	}
	wg.Wait(e.proc)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Now implements Env.
func (e *SimEnv) Now() time.Duration { return e.proc.Now() }

type simListener struct {
	net     *SimNet
	addr    string
	node    *SimNode
	backlog *vtime.Mailbox
}

// chunkMsg is one flow-control segment in flight: its receive-side
// service time, plus (on the final chunk of a message) the delivery
// action.
type chunkMsg struct {
	d       time.Duration
	deliver func()
}

// startPump spawns the receive-side pump: it drains a chunk queue
// through node's RX resource in FIFO order, modeling switch buffering
// that decouples senders from receivers (so a busy receiver does not
// block the sender's NIC).
func (n *SimNet) startPump(name string, node *SimNode, q *vtime.Mailbox) {
	n.sched.Go(name, func(p *vtime.Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			c := v.(chunkMsg)
			node.RX.Use(p, c.d)
			if c.deliver != nil {
				c.deliver()
			}
		}
	})
}

// sendChunks serializes size payload bytes onto from's TX one chunk at a
// time and queues each chunk for the destination pump; deliver runs in
// the pump after the final chunk clears the receiver's NIC.
func (n *SimNet) sendChunks(e *SimEnv, from *SimNode, q *vtime.Mailbox, size int, deliver func()) {
	cfg := &n.cfg
	e.proc.Sleep(cfg.Latency)
	remaining := size + cfg.FrameOverhead
	for remaining > 0 {
		chunk := remaining
		if chunk > cfg.ChunkBytes {
			chunk = cfg.ChunkBytes
		}
		d := time.Duration(float64(chunk) / cfg.Bandwidth * float64(time.Second))
		from.TX.Use(e.proc, d)
		remaining -= chunk
		var dl func()
		if remaining <= 0 {
			dl = deliver
		}
		// The peer can tear the connection down while we hold the TX
		// (crash, reset, or an impatient retry): in-flight frames then
		// vanish, as on a real wire.
		if q.Closed() {
			return
		}
		q.Put(chunkMsg{d: d, deliver: dl})
	}
}

type simConn struct {
	net         *SimNet
	local, peer *SimNode
	inbox       *vtime.Mailbox // messages for this side
	peerInbox   *vtime.Mailbox // messages for the other side
	outQ        *vtime.Mailbox // chunks in flight to the peer
	inQ         *vtime.Mailbox // chunks in flight to this side
	closed      bool
	bytesOut    int64
	msgsOut     int64
}

// Listen implements Network. The node is parsed from the address, which
// must have been produced by Addr for a node of this network.
func (n *SimNet) Listen(addr string) (Listener, error) {
	node, err := n.nodeOf(addr)
	if err != nil {
		return nil, err
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, errors.New("transport: address in use: " + addr)
	}
	l := &simListener{
		net:     n,
		addr:    addr,
		node:    node,
		backlog: n.sched.NewMailbox("listen:" + addr),
	}
	n.listeners[addr] = l
	return l, nil
}

func (n *SimNet) nodeOf(addr string) (*SimNode, error) {
	var id int
	var svc string
	if _, err := fmt.Sscanf(addr, "n%d/%s", &id, &svc); err != nil {
		return nil, fmt.Errorf("transport: bad sim address %q", addr)
	}
	if id < 0 || id >= len(n.nodes) {
		return nil, fmt.Errorf("transport: no node %d", id)
	}
	return n.nodes[id], nil
}

// Dial implements Network. env must be a *SimEnv of this network.
func (n *SimNet) Dial(env Env, addr string) (Conn, error) {
	e, ok := env.(*SimEnv)
	if !ok || e.net != n {
		return nil, errors.New("transport: Dial with foreign env")
	}
	l, ok := n.listeners[addr]
	if !ok {
		return nil, errors.New("transport: no listener at " + addr)
	}
	toServer := n.sched.NewMailbox("c2s:" + addr)
	toClient := n.sched.NewMailbox("s2c:" + addr)
	qToServer := n.sched.NewMailbox("c2s-wire:" + addr)
	qToClient := n.sched.NewMailbox("s2c-wire:" + addr)
	client := &simConn{net: n, local: e.node, peer: l.node,
		inbox: toClient, peerInbox: toServer, outQ: qToServer, inQ: qToClient}
	server := &simConn{net: n, local: l.node, peer: e.node,
		inbox: toServer, peerInbox: toClient, outQ: qToClient, inQ: qToServer}
	n.startPump("pump:"+addr, l.node, qToServer)
	n.startPump("pump:"+addr, e.node, qToClient)
	// Connection setup costs one round trip.
	e.Sleep(2 * n.cfg.Latency)
	l.backlog.Put(server)
	return client, nil
}

func (l *simListener) Accept(env Env) (Conn, error) {
	e := env.(*SimEnv)
	v, ok := l.backlog.Get(e.proc)
	if !ok {
		return nil, ErrClosed
	}
	return v.(*simConn), nil
}

func (l *simListener) Close() error {
	delete(l.net.listeners, l.addr)
	l.backlog.Close()
	return nil
}

// Send implements Conn: the message is serialized onto the sender's TX
// one chunk at a time; a receive-side pump charges the receiver's RX and
// delivers. Send returns once the final chunk has left the sender
// (buffered-send semantics, as with TCP).
func (c *simConn) Send(env Env, msg []byte) error {
	e := env.(*SimEnv)
	if c.closed || c.peerInbox.Closed() {
		return ErrClosed
	}
	m := make([]byte, len(msg))
	copy(m, msg)
	inbox := c.peerInbox
	c.net.sendChunks(e, c.local, c.outQ, len(msg), func() {
		if !inbox.Closed() {
			inbox.Put(m)
		}
	})
	c.bytesOut += int64(len(msg))
	c.msgsOut++
	return nil
}

// Recv implements Conn.
func (c *simConn) Recv(env Env) ([]byte, error) {
	e := env.(*SimEnv)
	v, ok := c.inbox.Get(e.proc)
	if !ok {
		return nil, ErrClosed
	}
	return v.([]byte), nil
}

// RecvTimeout implements TimedConn in virtual time.
func (c *simConn) RecvTimeout(env Env, d time.Duration) ([]byte, error) {
	e := env.(*SimEnv)
	v, ok, timedOut := c.inbox.GetTimeout(e.proc, d)
	if timedOut {
		return nil, ErrTimeout
	}
	if !ok {
		return nil, ErrClosed
	}
	return v.([]byte), nil
}

// TryRecv implements PollConn: messages already delivered to the inbox
// are returned; anything still in flight on the modeled wire is not.
func (c *simConn) TryRecv(env Env) ([]byte, bool, error) {
	v, ok := c.inbox.TryGet()
	if !ok {
		if c.inbox.Closed() {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return v.([]byte), true, nil
}

// Close implements Conn: both directions see EOF and the wire pumps
// drain and exit.
func (c *simConn) Close() error {
	if !c.closed {
		c.closed = true
		c.inbox.Close()
		c.peerInbox.Close()
		c.outQ.Close()
		c.inQ.Close()
	}
	return nil
}
