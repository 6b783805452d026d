package pvfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dtio/internal/fault"
	"dtio/internal/iostats"
	"dtio/internal/replica"
	"dtio/internal/transport"
	"dtio/internal/wire"
)

// replicatedCluster is an in-process cluster of groups*k I/O servers
// organized into replica groups of k consecutive members, with the
// metadata server striping over groups (DESIGN.md §16). tune (optional)
// adjusts each server before it starts serving.
type replicatedCluster struct {
	*testCluster
	k      int
	groups int
	srvIO  *iostats.Stats // shared by all servers (repair counters)
}

func startReplicatedCluster(t *testing.T, groups, k int, tune ...func(*Server)) *replicatedCluster {
	t.Helper()
	rc := &replicatedCluster{
		testCluster: &testCluster{
			net: transport.NewMemNetwork(),
			env: transport.NewRealEnv(),
		},
		k:      k,
		groups: groups,
		srvIO:  &iostats.Stats{},
	}
	tc := rc.testCluster
	tc.meta = NewMetaServer(tc.net, "meta", groups)
	go tc.meta.Serve(tc.env)
	for i := 0; i < groups*k; i++ {
		tc.addrs = append(tc.addrs, fmt.Sprintf("io%d", i))
	}
	placement := replica.NewMap(groups, k)
	for i := 0; i < groups*k; i++ {
		s := NewServer(tc.net, tc.addrs[i], i, CostModel{})
		s.Stats = rc.srvIO
		for _, p := range placement.Peers(i) {
			s.ReplicaPeers = append(s.ReplicaPeers, tc.addrs[p])
		}
		for _, fn := range tune {
			fn(s)
		}
		tc.servers = append(tc.servers, s)
		go s.Serve(tc.env)
	}
	t.Cleanup(func() {
		tc.meta.Close()
		for _, s := range tc.servers {
			s.Close()
		}
	})
	c := rc.client()
	defer c.Close()
	for i := 0; i < 2000; i++ {
		if f, err := c.Create(tc.env, "__probe__", 64, 0); err == nil {
			if _, err := f.Size(tc.env); err == nil {
				c.Remove(tc.env, "__probe__")
				return rc
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicated cluster did not come up")
	return nil
}

// client returns a retrying, stats-collecting client mounted with the
// cluster's replica geometry.
func (rc *replicatedCluster) client() *Client {
	c := NewClient(rc.net, "meta", rc.addrs, CostModel{})
	c.Replicas = rc.k
	c.Stats = &iostats.Stats{}
	c.Retry = testRetryPolicy()
	return c
}

// waitRepaired polls until server phys has restarted (its listener
// answers dials again) and finished rebuilding from its peers.
func (rc *replicatedCluster) waitRepaired(t *testing.T, phys int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	restarted := false
	for time.Now().Before(deadline) {
		if !restarted {
			if conn, err := rc.net.Dial(rc.env, rc.addrs[phys]); err == nil {
				conn.Close()
				restarted = true
			}
		}
		if restarted && !rc.servers[phys].StatsSnapshot().Repairing {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server %d never finished repairing", phys)
}

func repPattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13+i/257) ^ salt
	}
	return b
}

// TestReplicatedRoundTrip: with k=2 every write lands on both members
// (FanoutWrites counts the extra copies) and reads return the written
// bytes through every access path.
func TestReplicatedRoundTrip(t *testing.T) {
	rc := startReplicatedCluster(t, 2, 2)
	env := rc.env
	c := rc.client()
	defer c.Close()

	f, err := c.Create(env, "rep.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Layout().NServers != 2 {
		t.Fatalf("file striped over %d groups, want 2", f.Layout().NServers)
	}
	data := repPattern(64*1024, 0)
	if err := f.WriteContig(env, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replicated contig round trip corrupted")
	}
	// List I/O through the same fan-out.
	regions := []Region{{Off: 100, Len: 3000}, {Off: 40000, Len: 3000}}
	memR := []Region{{Off: 0, Len: 6000}}
	lbuf := repPattern(6000, 7)
	if err := f.WriteList(env, regions, memR, lbuf); err != nil {
		t.Fatal(err)
	}
	lgot := make([]byte, 6000)
	if err := f.ReadList(env, regions, memR, lgot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lgot, lbuf) {
		t.Fatal("replicated list round trip corrupted")
	}
	if sz, err := f.Size(env); err != nil || sz != int64(len(data)) {
		t.Fatalf("size %d err %v, want %d", sz, err, len(data))
	}
	snap := c.Stats.Snapshot()
	if snap.FanoutWrites == 0 {
		t.Fatal("k=2 writes recorded no fan-out copies")
	}
	if snap.DegradedReads != 0 || rc.srvIO.Snapshot().ReplicaRepairBytes != 0 {
		t.Fatalf("healthy group counted %d degraded reads, %d repair bytes",
			snap.DegradedReads, rc.srvIO.Snapshot().ReplicaRepairBytes)
	}
	// The second copies must be complete: kill member 0 of BOTH groups
	// (servers 0 and 2) and re-read everything off members 1 and 3.
	want := append([]byte(nil), data...)
	copy(want[100:], lbuf[:3000])
	copy(want[40000:], lbuf[3000:])
	rc.servers[0].Kill(10 * time.Second)
	rc.servers[2].Kill(10 * time.Second)
	surv := make([]byte, len(want))
	if err := f.ReadContig(env, 0, surv); err != nil {
		t.Fatalf("read with both first members dead: %v", err)
	}
	if !bytes.Equal(surv, want) {
		t.Fatal("surviving members hold different bytes than were written")
	}
}

// TestReplicatedReadFailover: killing one member mid-session leaves
// every byte readable from its surviving peer, with degraded reads
// counted; the wiped member rebuilds from the peer and can then serve
// alone.
func TestReplicatedReadFailover(t *testing.T) {
	rc := startReplicatedCluster(t, 2, 2)
	env := rc.env
	c := rc.client()
	defer c.Close()

	f, err := c.Create(env, "failover.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := repPattern(2*1024*1024, 3)
	if err := f.WriteContig(env, 0, data); err != nil {
		t.Fatal(err)
	}

	// Kill group 0 member 1, then read at every 64 KiB picker window:
	// rendezvous spreads preferences over both members, so some of
	// these reads must fail over (and be counted degraded).
	rc.servers[1].Kill(40 * time.Millisecond)
	got := make([]byte, 4096)
	for off := int64(0); off < int64(len(data)); off += 64 * 1024 {
		if err := f.ReadContig(env, off, got); err != nil {
			t.Fatalf("read at %d with a dead member: %v", off, err)
		}
		if !bytes.Equal(got, data[off:off+4096]) {
			t.Fatalf("degraded read at %d corrupted data", off)
		}
	}
	whole := make([]byte, len(data))
	if err := f.ReadContig(env, 0, whole); err != nil {
		t.Fatalf("full read with a dead member: %v", err)
	}
	if !bytes.Equal(whole, data) {
		t.Fatal("degraded full read corrupted data")
	}
	if snap := c.Stats.Snapshot(); snap.DegradedReads == 0 {
		t.Fatal("failover recorded no degraded reads")
	}

	// The wiped member restarts blank and re-replicates from its peer.
	rc.waitRepaired(t, 1)
	if rb := rc.srvIO.Snapshot().ReplicaRepairBytes; rb == 0 {
		t.Fatal("repair copied no bytes")
	}
	// Now the repaired member must serve alone: kill its peer.
	rc.servers[0].Kill(10 * time.Second)
	got2 := make([]byte, len(data))
	if err := f.ReadContig(env, 0, got2); err != nil {
		t.Fatalf("read from repaired member: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("repaired member served wrong bytes")
	}
}

// TestReplicatedWriteWithDeadMember: writes issued while one member is
// down land on the survivor and the group stays available; the wiped
// member's repair then folds those writes in (the written-since-restart
// mask protects post-restart client writes from stale peer bytes), so
// the rebuilt member can serve the final contents alone.
func TestReplicatedWriteWithDeadMember(t *testing.T) {
	rc := startReplicatedCluster(t, 1, 2)
	env := rc.env
	c := rc.client()
	defer c.Close()

	f, err := c.Create(env, "dead-writes.dat", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := repPattern(96*1024, 1)
	if err := f.WriteContig(env, 0, before); err != nil {
		t.Fatal(err)
	}

	// Down long enough to outlast the client's whole retry ladder, so
	// the write genuinely abandons the member rather than riding out a
	// short restart.
	rc.servers[1].Kill(500 * time.Millisecond)
	// Overwrite a slice of the file while member 1 is down: only member
	// 0 can ack it.
	during := repPattern(32*1024, 9)
	if err := f.WriteContig(env, 8192, during); err != nil {
		t.Fatalf("write with a dead member: %v", err)
	}
	want := append([]byte(nil), before...)
	copy(want[8192:], during)

	rc.waitRepaired(t, 1)
	// More writes after the repair completes, to both members again.
	after := repPattern(16*1024, 5)
	if err := f.WriteContig(env, 50000, after); err != nil {
		t.Fatal(err)
	}
	copy(want[50000:], after)

	// The rebuilt member must hold everything: kill the survivor.
	rc.servers[0].Kill(10 * time.Second)
	got := make([]byte, len(want))
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatalf("read from rebuilt member: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rebuilt member missed writes made while it was dead")
	}
}

// TestKillWipesUnreplicatedData documents the k=1 semantics: a kill is
// a dead machine replaced by a blank spare, and with no replica group
// to rebuild from, the restarted server serves holes (zeros).
func TestKillWipesUnreplicatedData(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{})
	defer c.Close()
	f, err := c.Create(env, "wiped.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 0, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	tc.servers[0].Kill(30 * time.Millisecond)
	got := make([]byte, 8)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatalf("read after kill-restart: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unreplicated kill preserved data %q, want zeros", got)
	}
}

// TestUnreplicatedSuspectKeepsFullLadder: an unreplicated file is a
// replica group of one, so its server's suspicion must not cut a write
// down to the single probe attempt a replicated member gets — there is
// no other copy to land on. A failed read marks the server suspect; a
// write into the same outage must still ride it out with retries.
func TestUnreplicatedSuspectKeepsFullLadder(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{})
	defer c.Close()
	f, err := c.Create(env, "suspect.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	tc.servers[0].Crash(60 * time.Millisecond)
	ladder := c.Retry
	c.Retry.Attempts = 1
	if err := f.ReadContig(env, 0, make([]byte, 6)); err == nil {
		t.Fatal("a one-attempt read of a crashed server succeeded")
	}
	if !c.isSuspect(env, 0) {
		t.Fatal("a failed read left the server unsuspected")
	}
	c.Retry = ladder
	if err := f.WriteContig(env, 0, []byte("after!")); err != nil {
		t.Fatalf("write to a suspected unreplicated server: %v", err)
	}
	got := make([]byte, 6)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "after!" {
		t.Fatalf("got %q, want %q", got, "after!")
	}
	if snap := c.Stats.Snapshot(); snap.Retries == 0 || snap.DegradedReads != 0 || snap.FanoutWrites != 0 {
		t.Fatalf("retries %d, degraded reads %d, fan-out writes %d; want >0, 0, 0",
			snap.Retries, snap.DegradedReads, snap.FanoutWrites)
	}
}

// TestLayoutAddressesGroupMember: the server accepts a request only at
// the physical index its (group, member) names, ServerIdx*k + Member,
// with an unreplicated layout (Replicas 0 or 1) read as groups of one.
func TestLayoutAddressesGroupMember(t *testing.T) {
	for _, tc := range []struct {
		index              int
		idx, n, reps, memb int32
		ok                 bool
	}{
		{index: 1, idx: 1, n: 2, reps: 0, memb: 0, ok: true},
		{index: 1, idx: 1, n: 2, reps: 1, memb: 0, ok: true},
		{index: 1, idx: 0, n: 2, reps: 1, memb: 0, ok: false},  // another server's request
		{index: 1, idx: 0, n: 2, reps: 1, memb: 1, ok: false},  // no member 1 in a group of one
		{index: 2, idx: 2, n: 2, reps: 1, memb: 0, ok: false},  // past the file's servers
		{index: 3, idx: 1, n: 2, reps: 2, memb: 1, ok: true},   // group 1 member 1
		{index: 2, idx: 1, n: 2, reps: 2, memb: 0, ok: true},   // group 1 member 0
		{index: 2, idx: 0, n: 2, reps: 2, memb: 2, ok: false},  // member out of range
		{index: 0, idx: 0, n: 2, reps: 2, memb: -1, ok: false}, // negative member
		{index: 4, idx: 2, n: 2, reps: 2, memb: 0, ok: false},  // group past the file's groups
	} {
		s := NewServer(nil, "", tc.index, CostModel{})
		_, err := s.layoutOf(wire.FileLayout{
			StripSize: 64, NServers: tc.n, ServerIdx: tc.idx, Replicas: tc.reps, Member: tc.memb,
		})
		if (err == nil) != tc.ok {
			t.Errorf("%+v: err %v, want ok=%v", tc, err, tc.ok)
		}
	}
}

// TestAdminKillOverWire: pvfsctl's kill verb goes through Client.Admin
// and wipes like a direct Kill.
func TestAdminKillOverWire(t *testing.T) {
	tc := startCluster(t, 1)
	env := tc.env
	c, _ := faultyClient(tc, fault.Plan{})
	defer c.Close()
	f, err := c.Create(env, "adminkill.dat", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteContig(env, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Admin(env, 0, wire.AdminKill, 30*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := f.ReadContig(env, 0, got); err != nil {
		t.Fatalf("read after admin kill: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 6)) {
		t.Fatalf("admin kill preserved data %q, want zeros", got)
	}
}
