package transport

import (
	"fmt"
	"time"

	"dtio/internal/vtime"
)

// Fabric is the message-passing substrate under the MPI layer: ordered,
// reliable point-to-point delivery between ranks. Messages between a pair
// of ranks are delivered in send order; tag matching is strict FIFO per
// source (the collectives in internal/mpi are written for this
// discipline, as are most MPI programs in practice).
type Fabric interface {
	// Send delivers data from rank src to rank dst with a tag. It does
	// not keep data after it returns: callers reuse their send buffers.
	Send(env Env, src, dst, tag int, data []byte)
	// Recv returns the next message from src addressed to dst.
	Recv(env Env, dst, src int) (tag int, data []byte)
}

type fabricMsg struct {
	tag  int
	data []byte
}

// MemFabric is an uncosted in-process Fabric.
type MemFabric struct {
	n int
	q []*queueAny // index src*n+dst
}

// NewMemFabric creates a fabric for n ranks.
func NewMemFabric(n int) *MemFabric {
	f := &MemFabric{n: n, q: make([]*queueAny, n*n)}
	for i := range f.q {
		f.q[i] = newQueueAny()
	}
	return f
}

// Send implements Fabric.
func (f *MemFabric) Send(env Env, src, dst, tag int, data []byte) {
	m := make([]byte, len(data))
	copy(m, data)
	f.q[src*f.n+dst].put(fabricMsg{tag: tag, data: m})
}

// Recv implements Fabric.
func (f *MemFabric) Recv(env Env, dst, src int) (int, []byte) {
	v, err := f.q[src*f.n+dst].get()
	if err != nil {
		panic("transport: fabric recv on closed queue")
	}
	m := v.(fabricMsg)
	return m.tag, m.data
}

// SimFabric is a costed Fabric: rank-to-rank traffic occupies the NICs of
// the nodes the ranks live on, sharing them with file-system traffic.
// Ranks colocated on one node exchange messages at memory speed (latency
// only, no NIC occupancy). Call Close from inside the simulation when the
// ranks are done, so the wire pumps exit.
type SimFabric struct {
	net      *SimNet
	rankNode []*SimNode
	box      []*vtime.Mailbox // index src*n+dst: delivered messages
	wire     []*vtime.Mailbox // index src*n+dst: chunks in flight (nil if same node)
	// LocalLatency is the cost of a same-node message.
	LocalLatency time.Duration
}

// NewSimFabric creates a fabric whose rank i runs on rankNode[i].
func NewSimFabric(net *SimNet, rankNode []*SimNode) *SimFabric {
	n := len(rankNode)
	f := &SimFabric{
		net:          net,
		rankNode:     rankNode,
		box:          make([]*vtime.Mailbox, n*n),
		wire:         make([]*vtime.Mailbox, n*n),
		LocalLatency: 5 * time.Microsecond,
	}
	for i := range f.box {
		f.box[i] = net.sched.NewMailbox(fmt.Sprintf("fabric%d", i))
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if rankNode[s] == rankNode[d] {
				continue
			}
			q := net.sched.NewMailbox(fmt.Sprintf("fabricwire%d-%d", s, d))
			f.wire[s*n+d] = q
			net.startPump(fmt.Sprintf("fabricpump%d-%d", s, d), rankNode[d], q)
		}
	}
	return f
}

// Close shuts down the wire pumps; call from inside the simulation once
// all ranks have finished communicating.
func (f *SimFabric) Close() {
	for _, q := range f.wire {
		if q != nil && !q.Closed() {
			q.Close()
		}
	}
}

// Send implements Fabric.
func (f *SimFabric) Send(env Env, src, dst, tag int, data []byte) {
	e := env.(*SimEnv)
	n := len(f.rankNode)
	m := make([]byte, len(data))
	copy(m, data)
	box := f.box[src*n+dst]
	if q := f.wire[src*n+dst]; q != nil {
		f.net.sendChunks(e, f.rankNode[src], q, len(data), func() {
			box.Put(fabricMsg{tag: tag, data: m})
		})
		return
	}
	e.proc.Sleep(f.LocalLatency)
	box.Put(fabricMsg{tag: tag, data: m})
}

// Recv implements Fabric.
func (f *SimFabric) Recv(env Env, dst, src int) (int, []byte) {
	e := env.(*SimEnv)
	n := len(f.rankNode)
	v, ok := f.box[src*n+dst].Get(e.proc)
	if !ok {
		panic("transport: fabric recv on closed mailbox")
	}
	m := v.(fabricMsg)
	return m.tag, m.data
}
