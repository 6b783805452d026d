package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dtio/internal/vtime"
)

// exerciseNetwork runs a request/response exchange over any Network. The
// run function executes client logic in an appropriate environment and
// blocks until it (and the simulation, if any) completes.
func exerciseNetwork(t *testing.T, net Network, addr string, spawnServer func(fn func(env Env)), runClient func(fn func(env Env))) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	spawnServer(func(env Env) {
		for {
			conn, err := l.Accept(env)
			if err != nil {
				return
			}
			env.Go("handler", func(env Env) {
				for {
					msg, err := conn.Recv(env)
					if err != nil {
						return
					}
					reply := append([]byte("echo:"), msg...)
					if err := conn.Send(env, reply); err != nil {
						return
					}
				}
			})
		}
	})
	runClient(func(env Env) {
		conn, err := net.Dial(env, addr)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			msg := []byte(fmt.Sprintf("ping-%d", i))
			if err := conn.Send(env, msg); err != nil {
				t.Error(err)
				return
			}
			got, err := conn.Recv(env)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, append([]byte("echo:"), msg...)) {
				t.Errorf("got %q", got)
				return
			}
		}
		conn.Close()
		l.Close()
	})
}

func TestMemNetworkEcho(t *testing.T) {
	net := NewMemNetwork()
	env := NewRealEnv()
	done := make(chan struct{})
	exerciseNetwork(t, net, "svc",
		func(fn func(env Env)) { go fn(env) },
		func(fn func(env Env)) {
			go func() { fn(env); close(done) }()
			<-done
		})
}

func TestTCPNetworkEcho(t *testing.T) {
	net := NewTCPNetwork()
	env := NewRealEnv()
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := BoundAddr(l)
	if !ok {
		t.Fatal("no bound addr")
	}
	go func() {
		conn, err := l.Accept(env)
		if err != nil {
			return
		}
		msg, err := conn.Recv(env)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(env, append([]byte("echo:"), msg...))
	}()
	conn, err := net.Dial(env, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(env, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:hello" {
		t.Fatalf("got %q", got)
	}
	l.Close()
}

func TestTCPLargeFrame(t *testing.T) {
	net := NewTCPNetwork()
	env := NewRealEnv()
	l, _ := net.Listen("127.0.0.1:0")
	addr, _ := BoundAddr(l)
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i)
	}
	go func() {
		conn, err := l.Accept(env)
		if err != nil {
			return
		}
		msg, err := conn.Recv(env)
		if err != nil {
			return
		}
		conn.Send(env, msg)
	}()
	conn, err := net.Dial(env, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(env, big)
	got, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("round trip corrupted")
	}
	l.Close()
}

func TestSimNetworkEchoAndTiming(t *testing.T) {
	sched := vtime.New()
	cfg := DefaultSimConfig()
	net := NewSimNet(sched, cfg)
	server := net.NewNode()
	client := net.NewNode()
	addr := Addr(server, "echo")
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	net.Spawn("server", server, func(env Env) {
		conn, err := l.Accept(env)
		if err != nil {
			return
		}
		for {
			msg, err := conn.Recv(env)
			if err != nil {
				return
			}
			if err := conn.Send(env, msg); err != nil {
				return
			}
		}
	})
	net.Spawn("client", client, func(env Env) {
		conn, err := net.Dial(env, addr)
		if err != nil {
			t.Error(err)
			return
		}
		msg := make([]byte, 1<<20) // 1 MiB
		start := env.Now()
		if err := conn.Send(env, msg); err != nil {
			t.Error(err)
			return
		}
		got, err := conn.Recv(env)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(msg) {
			t.Errorf("len=%d", len(got))
		}
		elapsed = env.Now() - start
		conn.Close()
		l.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// Round-tripping 1 MiB at 12.5 MB/s each way: >= 2 * 80ms transfer.
	lo := 2 * time.Duration(float64(1<<20)/cfg.Bandwidth*float64(time.Second))
	if elapsed < lo || elapsed > lo*2 {
		t.Fatalf("elapsed %v, expected near %v", elapsed, lo)
	}
}

func TestSimNICContention(t *testing.T) {
	// Two clients streaming to one server share its RX: delivery of both
	// messages completes at ~2x a single stream (send completion only
	// reflects the sender's own TX, which is uncontended).
	sched := vtime.New()
	cfg := DefaultSimConfig()
	cfg.Latency = 0
	net := NewSimNet(sched, cfg)
	server := net.NewNode()
	c1, c2 := net.NewNode(), net.NewNode()
	addr := Addr(server, "sink")
	l, _ := net.Listen(addr)
	var delivered [2]time.Duration
	net.Spawn("server", server, func(env Env) {
		for i := 0; i < 2; i++ {
			i := i
			conn, err := l.Accept(env)
			if err != nil {
				return
			}
			env.Go("h", func(env Env) {
				for {
					if _, err := conn.Recv(env); err != nil {
						return
					}
					delivered[i] = env.Now()
				}
			})
		}
	})
	var sendDone [2]time.Duration
	mk := func(idx int, node *SimNode) {
		net.Spawn("client", node, func(env Env) {
			conn, err := net.Dial(env, addr)
			if err != nil {
				t.Error(err)
				return
			}
			conn.Send(env, make([]byte, 4<<20))
			sendDone[idx] = env.Now()
			env.Sleep(5 * time.Second) // keep conn open until delivery
			conn.Close()
		})
	}
	mk(0, c1)
	mk(1, c2)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	single := time.Duration(float64(4<<20) / cfg.Bandwidth * float64(time.Second))
	worst := delivered[0]
	if delivered[1] > worst {
		worst = delivered[1]
	}
	if worst < 2*single*9/10 || worst > 2*single*12/10 {
		t.Fatalf("contended delivery %v, expected ~%v", worst, 2*single)
	}
	// Sends themselves complete at single-stream speed (buffered).
	for i, d := range sendDone {
		if d > single*13/10 {
			t.Fatalf("send %d completed at %v, expected ~%v", i, d, single)
		}
	}
}

func TestSimComputeContention(t *testing.T) {
	// 4 threads of CPU work on a 2-slot node take 2x the single time.
	sched := vtime.New()
	net := NewSimNet(sched, DefaultSimConfig())
	node := net.NewNode()
	var last time.Duration
	for i := 0; i < 4; i++ {
		net.Spawn("w", node, func(env Env) {
			env.Compute(10 * time.Millisecond)
			if env.Now() > last {
				last = env.Now()
			}
		})
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 20*time.Millisecond {
		t.Fatalf("last=%v", last)
	}
}

func TestSimFabricLocalVsRemote(t *testing.T) {
	sched := vtime.New()
	cfg := DefaultSimConfig()
	net := NewSimNet(sched, cfg)
	n0, n1 := net.NewNode(), net.NewNode()
	// ranks 0,1 on node0; rank 2 on node1
	fab := NewSimFabric(net, []*SimNode{n0, n0, n1})
	wg := sched.NewWaitGroup()
	wg.Add(3)
	var localT, remoteT time.Duration
	net.Spawn("rank0", n0, func(env Env) {
		defer wg.Done()
		// One buffer for both sends: Send keeps none of it.
		buf := make([]byte, 1<<20)
		buf[0] = 7
		start := env.Now()
		fab.Send(env, 0, 1, 7, buf)
		localT = env.Now() - start
		buf[0] = 8
		start = env.Now()
		fab.Send(env, 0, 2, 8, buf)
		remoteT = env.Now() - start
		buf[0] = 0
	})
	net.Spawn("rank1", n0, func(env Env) {
		defer wg.Done()
		tag, data := fab.Recv(env, 1, 0)
		if tag != 7 || len(data) != 1<<20 || data[0] != 7 {
			t.Errorf("tag=%d len=%d data[0]=%d", tag, len(data), data[0])
		}
	})
	net.Spawn("rank2", n1, func(env Env) {
		defer wg.Done()
		tag, data := fab.Recv(env, 2, 0)
		if tag != 8 || len(data) != 1<<20 || data[0] != 8 {
			t.Errorf("tag=%d len=%d data[0]=%d", tag, len(data), data[0])
		}
	})
	net.Spawn("ctl", n0, func(env Env) {
		wg.Wait(env.(*SimEnv).Proc())
		fab.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if localT >= remoteT/100 {
		t.Fatalf("local %v not much cheaper than remote %v", localT, remoteT)
	}
}

func TestMemFabricOrder(t *testing.T) {
	fab := NewMemFabric(2)
	env := NewRealEnv()
	buf := make([]byte, 1) // reused: Send keeps none of it
	for i := 0; i < 10; i++ {
		buf[0] = byte(i)
		fab.Send(env, 0, 1, i, buf)
	}
	for i := 0; i < 10; i++ {
		tag, data := fab.Recv(env, 1, 0)
		if tag != i || data[0] != byte(i) {
			t.Fatalf("msg %d: tag=%d", i, tag)
		}
	}
}

func TestDialNoListener(t *testing.T) {
	net := NewMemNetwork()
	if _, err := net.Dial(NewRealEnv(), "nowhere"); err == nil {
		t.Fatal("dial succeeded with no listener")
	}
}

func TestSimDialForeignEnv(t *testing.T) {
	sched := vtime.New()
	net := NewSimNet(sched, DefaultSimConfig())
	node := net.NewNode()
	net.Listen(Addr(node, "x"))
	if _, err := net.Dial(NewRealEnv(), Addr(node, "x")); err == nil {
		t.Fatal("foreign env accepted")
	}
}

func TestSimOverlap(t *testing.T) {
	// Overlap(cpu, netWork) finishes at max(cpu, fn), not the sum.
	sched := vtime.New()
	net := NewSimNet(sched, DefaultSimConfig())
	node := net.NewNode()
	var elapsed time.Duration
	net.Spawn("w", node, func(env Env) {
		start := env.Now()
		err := env.Overlap(func() time.Duration { return 100 * time.Millisecond }, func() error {
			env.Sleep(60 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - start
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 100*time.Millisecond {
		t.Fatalf("elapsed %v, want 100ms (overlapped)", elapsed)
	}
}

func TestRealEnvOverlapRunsFn(t *testing.T) {
	// A real environment models no CPU time, so it never prices it.
	ran, priced := false, false
	err := NewRealEnv().Overlap(func() time.Duration { priced = true; return time.Hour },
		func() error { ran = true; return nil })
	if err != nil || !ran || priced {
		t.Fatalf("ran=%v priced=%v err=%v", ran, priced, err)
	}
}
