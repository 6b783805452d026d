package pvfs

import (
	"bytes"
	"testing"
	"time"

	"dtio/internal/fault"
	"dtio/internal/iostats"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// testRetryPolicy is tight enough to keep wall-clock tests fast: the
// Mem network delivers instantly, so a timeout only ever fires because
// a fault ate a frame or a server is stalled/down.
func testRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:   12,
		Timeout:    60 * time.Millisecond,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond,
	}
}

// faultyClient returns a stats-collecting retry client whose I/O-server
// connections (and only those — the metadata channel stays reliable)
// run through the injector.
func faultyClient(tc *testCluster, plan fault.Plan) (*Client, *fault.Injector) {
	in := fault.NewInjector(plan)
	net := in.WrapNetwork(tc.net, func(addr string) bool { return addr != "meta" })
	c := NewClient(net, "meta", tc.addrs, CostModel{})
	c.Stats = &iostats.Stats{}
	c.Retry = testRetryPolicy()
	return c, in
}

// TestRetryUnderLoss: with drops, duplicates, and resets injected on
// every I/O connection, reads and writes still complete with the right
// bytes, and the retry counters show the recovery machinery worked.
func TestRetryUnderLoss(t *testing.T) {
	tc := startCluster(t, 2)
	env := tc.env
	c, in := faultyClient(tc, fault.Plan{Seed: 11, DropProb: 0.08, DupProb: 0.03, ResetProb: 0.01})
	defer c.Close()
	c.StreamChunkBytes = 8 * 1024 // more frames per transfer = more faults met

	f, err := c.Create(env, "lossy.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200*1024)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	for round := 0; round < 3; round++ {
		if err := f.WriteContig(env, int64(round)*int64(len(data)), data); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
	}
	got := make([]byte, len(data))
	for round := 0; round < 3; round++ {
		if err := f.ReadContig(env, int64(round)*int64(len(data)), got); err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d read corrupted", round)
		}
	}
	// List I/O under the same fire.
	regions := []Region{{Off: 5, Len: 1000}, {Off: 100000, Len: 1000}}
	memR := []Region{{Off: 0, Len: 2000}}
	lgot := make([]byte, 2000)
	if err := f.ReadList(env, regions, memR, lgot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lgot[:1000], data[5:1005]) || !bytes.Equal(lgot[1000:], data[100000:101000]) {
		t.Fatal("list read corrupted")
	}

	st := in.Stats()
	if st.Dropped == 0 {
		t.Fatal("injector dropped nothing — the test exercised no faults")
	}
	snap := c.Stats.Snapshot()
	if snap.Retries == 0 {
		t.Fatalf("frames were dropped (%d) but the client never retried", st.Dropped)
	}
	if snap.ReplayedBytes == 0 {
		t.Fatal("write retries recorded no replayed payload bytes")
	}
}

// TestWriteDedupSuppressesReplay: a write retried after its response
// was lost must not re-apply once another client has overwritten the
// range — at-most-once semantics via the server's replay cache.
func TestWriteDedupSuppressesReplay(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c := tc.client()
	defer c.Close()
	f, err := c.Create(env, "dedup.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tc.net.Dial(env, "io0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqA := wire.EncodeContig(&wire.ContigReq{
		Tag: wire.ReqTag{Client: 77, Seq: 1}, Layout: f.wireLayout(0, 0),
		Off: 0, N: 4, Data: []byte("AAAA"),
	}, true)
	rawExchange := func() *wire.IOResp {
		t.Helper()
		if err := conn.Send(env, reqA); err != nil {
			t.Fatal(err)
		}
		raw, err := transport.RecvTimeout(env, conn, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, v, err := wire.DecodeMsg(raw)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := v.(*wire.IOResp)
		if !ok || !r.OK || r.Seq != 1 {
			t.Fatalf("bad write response %+v", v)
		}
		return r
	}
	rawExchange() // original write applies: file = AAAA

	// Another client overwrites the range.
	if err := f.WriteContig(env, 0, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}

	// The "lost response" retry: identical frame, same tag. The server
	// must answer from its replay cache without touching the object.
	rawExchange()
	got := make([]byte, 4)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "BBBB" {
		t.Fatalf("replayed write resurrected old bytes: %q", got)
	}
}

// TestStreamedWriteResumeAfterCrash drives the wire protocol by hand:
// half a streamed write, a server crash, then a resumed retry with
// StartSeg at the last acknowledged segment. The server must skip the
// already-durable prefix and the final bytes must be exactly the
// payload.
func TestStreamedWriteResumeAfterCrash(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c := tc.client()
	defer c.Close()
	f, err := c.Create(env, "resume.dat", 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	const seg, window, nseg = int64(1024), int64(2), int64(8)
	total := seg * nseg
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*3 + 1)
	}
	inner := wire.EncodeContig(&wire.ContigReq{
		Tag: wire.ReqTag{Client: 99, Seq: 5}, Layout: f.wireLayout(0, 0),
		Off: 0, N: total,
	}, true)

	sendSegs := func(conn transport.Conn, from, to int64) {
		t.Helper()
		for k := from; k < to; k++ {
			frame := wire.AppendStreamChunk(nil, uint32(k), "", payload[k*seg:(k+1)*seg])
			if err := conn.Send(env, frame); err != nil {
				t.Fatalf("segment %d: %v", k, err)
			}
		}
	}

	conn, err := tc.net.Dial(env, "io0")
	if err != nil {
		t.Fatal(err)
	}
	hdr := wire.EncodeWriteStreamHdr(&wire.WriteStreamHdr{
		Total: total, SegBytes: int32(seg), Window: int32(window),
		StartSeg: 0, Inner: inner,
	})
	if err := conn.Send(env, hdr); err != nil {
		t.Fatal(err)
	}
	sendSegs(conn, 0, 4)
	// Collect acks until segment 3 is acknowledged: segments 0..2 are
	// then durably flushed (the server flushes k before receiving k+1).
	lastAck, err := recvAckAtLeast(env, conn, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc.servers[0].Crash(20 * time.Millisecond)
	conn.Close()

	// Redial once the restarted incarnation is listening.
	var conn2 transport.Conn
	for i := 0; i < 2000; i++ {
		if conn2, err = tc.net.Dial(env, "io0"); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server did not restart: %v", err)
	}
	start := int64(lastAck)
	hdr2 := wire.EncodeWriteStreamHdr(&wire.WriteStreamHdr{
		Total: total, SegBytes: int32(seg), Window: int32(window),
		StartSeg: start, Inner: inner,
	})
	if err := conn2.Send(env, hdr2); err != nil {
		t.Fatal(err)
	}
	sendSegs(conn2, start, nseg)
	// Skip trailing acks; the tagged response ends the exchange.
	var resp *wire.IOResp
	for {
		raw, err := transport.RecvTimeout(env, conn2, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, v, err := wire.DecodeMsg(raw)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := v.(*wire.IOResp); ok {
			resp = r
			break
		}
	}
	if !resp.OK || resp.Seq != 5 {
		t.Fatalf("resumed write response %+v", resp)
	}
	conn2.Close()

	got := make([]byte, total)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("resumed streamed write corrupted data")
	}
}

// TestRetryAfterStall: a stalled server produces timeouts, not errors;
// the operation completes once the stall passes, and the stats show
// timeouts, retries, replayed bytes, and a failover duration.
func TestRetryAfterStall(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{}) // no message faults; just retries
	defer c.Close()
	c.Retry.Timeout = 40 * time.Millisecond
	f, err := c.Create(env, "stall.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	tc.servers[0].StallFor(env, 250*time.Millisecond)
	if err := f.WriteContig(env, 0, []byte("world")); err != nil {
		t.Fatalf("write through stall: %v", err)
	}
	got := make([]byte, 5)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "world" {
		t.Fatalf("got %q", got)
	}
	snap := c.Stats.Snapshot()
	if snap.Timeouts == 0 || snap.Retries == 0 {
		t.Fatalf("stall produced no timeouts/retries: %+v", snap)
	}
	if snap.ReplayedBytes < 5 {
		t.Fatalf("replayed bytes %d, want >= 5", snap.ReplayedBytes)
	}
	if snap.FailoverNs <= 0 {
		t.Fatal("no failover time recorded")
	}
}

// TestCrashRestartClientRecovers: a fail-stop crash mid-session. The
// client rides it out with redial retries; the server's objects (its
// "disk") survive the restart.
func TestCrashRestartClientRecovers(t *testing.T) {
	tc := startCluster(t, 2)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{})
	defer c.Close()
	f, err := c.Create(env, "crash.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32*1024)
	for i := range data {
		data[i] = byte(i % 131)
	}
	if err := f.WriteContig(env, 0, data); err != nil {
		t.Fatal(err)
	}
	tc.servers[0].Crash(80 * time.Millisecond)
	got := make([]byte, len(data))
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatalf("read across crash-restart: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across crash-restart")
	}
	snap := c.Stats.Snapshot()
	if snap.Retries == 0 {
		t.Fatal("crash recovery recorded no retries")
	}
	if snap.FailoverNs <= 0 {
		t.Fatal("crash recovery recorded no failover time")
	}
	// A write issued into a second outage is re-sent whole once the
	// server is back.
	for i := range data {
		data[i] ^= 0x5a
	}
	tc.servers[0].Crash(80 * time.Millisecond)
	if err := f.WriteContig(env, 0, data); err != nil {
		t.Fatalf("write across crash-restart: %v", err)
	}
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("write lost across crash-restart")
	}
	if c.Stats.Snapshot().ReplayedBytes == 0 {
		t.Fatal("write retry across the crash replayed no payload")
	}
}

// TestAdminOverWire: pvfsctl's stall/degrade/crash verbs go through
// Client.Admin and the wire AdminReq.
func TestAdminOverWire(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{})
	defer c.Close()
	f, err := c.Create(env, "admin.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Admin(env, 0, wire.AdminDegrade, 0, 400); err != nil {
		t.Fatal(err)
	}
	if got := tc.servers[0].diskScale.Load(); got != 400 {
		t.Fatalf("disk scale %d, want 400", got)
	}
	if err := c.Admin(env, 0, wire.AdminDegrade, 0, 100); err != nil {
		t.Fatal(err)
	}

	if err := c.Admin(env, 0, wire.AdminStall, 150*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	c.Retry.Timeout = 40 * time.Millisecond
	if err := f.WriteContig(env, 0, []byte("stalled")); err != nil {
		t.Fatal(err)
	}
	if snap := c.Stats.Snapshot(); snap.Timeouts == 0 {
		t.Fatal("admin stall produced no timeouts")
	}

	if err := c.Admin(env, 0, wire.AdminCrash, 60*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatalf("read after admin crash: %v", err)
	}
	if string(got) != "stalled" {
		t.Fatalf("got %q", got)
	}
}

// TestLeaseReclaimedOnClientDeath: a client that dies holding a lock —
// without its connection closing, so the disconnect path never fires —
// loses the lock to the metadata server's lease watchdog, and a second
// client's queued acquire is granted.
func TestLeaseReclaimedOnClientDeath(t *testing.T) {
	net := transport.NewMemNetwork()
	env := transport.NewRealEnv()
	meta := NewMetaServer(net, "meta", 1)
	meta.LeaseTimeout = 120 * time.Millisecond
	go meta.Serve(env)
	defer meta.Close()
	srv := NewServer(net, "io0", 0, CostModel{})
	go srv.Serve(env)
	defer srv.Close()

	c1 := NewClient(net, "meta", []string{"io0"}, CostModel{})
	var f1 *File
	var err error
	for i := 0; i < 2000; i++ {
		if f1, err = c1.Create(env, "lease.dat", 64, 0); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Lock(env, 0, 10, false); err != nil {
		t.Fatal(err)
	}
	// c1 "dies" here: never unlocks, never closes. The meta connection
	// stays open, so only the lease watchdog can free the range.

	c2 := NewClient(net, "meta", []string{"io0"}, CostModel{})
	defer c2.Close()
	f2, err := c2.Open(env, "lease.dat")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var lk2 *FileLock
	go func() {
		var e error
		lk2, e = f2.Lock(env, 0, 10, false)
		done <- e
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lock never reclaimed from dead client")
	}
	if err := f2.Unlock(env, lk2); err != nil {
		t.Fatal(err)
	}
}
