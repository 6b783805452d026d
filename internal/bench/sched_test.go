package bench

import (
	"fmt"
	"testing"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/workloads"
)

// TestZeroByteRequestsChargeNoDisk is the regression test for the
// zero-byte charging bug: a datatype request fans out to every server
// of the file, including ones that hold none of its bytes, and those
// servers used to pay DiskPerOp for doing nothing. With the scheduler,
// a request with no physical runs must leave the disk untouched.
func TestZeroByteRequestsChargeNoDisk(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.Servers = 4
	cfg.Discard = false
	cfg.StripSize = 1024
	c := NewCluster(cfg)
	_, _, err := c.Run(func(r *Rank) error {
		f, err := r.FS.Create(r.Env, "z.dat", cfg.StripSize, 0)
		if err != nil {
			return err
		}
		// 100 bytes entirely inside strip 0: servers 1-3 receive dtype
		// requests that expand to zero local bytes.
		mem := make([]byte, 100)
		for i := range mem {
			mem[i] = byte(i)
		}
		loop := dataloop.FromType(datatype.Bytes(100))
		if err := f.WriteDtype(r.Env, &pvfs.DtypeAccess{
			Mem: mem, MemLoop: loop, MemCount: 1, FileLoop: loop,
		}); err != nil {
			return err
		}
		got := make([]byte, 100)
		return f.ReadDtype(r.Env, &pvfs.DtypeAccess{
			Mem: got, MemLoop: loop, MemCount: 1, FileLoop: loop,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if busy := c.serverNodes[0].Disk.BusyTime(); busy <= 0 {
		t.Fatal("server 0 holds the bytes but charged no disk time")
	}
	for i, n := range c.serverNodes[1:] {
		if busy := n.Disk.BusyTime(); busy != 0 {
			t.Errorf("server %d holds no bytes but charged %v of disk time", i+1, busy)
		}
	}
}

// TestSimulatorReplaysCompiledPrograms: the paper-fidelity simulator
// runs with the loop cache off, so every dtype request pays the decode,
// yet the servers still expand it through a compiled run program — the
// same Program.Replay path the daemons take.
func TestSimulatorReplaysCompiledPrograms(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.Servers = 4
	cfg.Discard = false
	cfg.StripSize = 1024
	c := NewCluster(cfg)
	_, _, err := c.Run(func(r *Rank) error {
		f, err := r.FS.Create(r.Env, "c.dat", cfg.StripSize, 0)
		if err != nil {
			return err
		}
		mem := make([]byte, 64*8)
		a := &pvfs.DtypeAccess{
			Mem: mem, MemLoop: dataloop.FromType(datatype.Bytes(int64(len(mem)))), MemCount: 1,
			FileLoop: dataloop.FromType(datatype.Vector(64, 1, 3, datatype.Int64)),
		}
		if err := f.WriteDtype(r.Env, a); err != nil {
			return err
		}
		return f.ReadDtype(r.Env, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	var replays int64
	for _, s := range c.servers {
		if cs := s.LoopCacheStats(); cs.Hits+cs.Misses != 0 {
			t.Fatalf("loop cache consulted with LoopCache off: %+v", cs)
		}
		replays += s.CompiledReplays()
	}
	if replays == 0 {
		t.Fatal("no dtype request expanded through a compiled program")
	}
}

// TestDiskSchedCollapsesTileDtypeOps checks the headline effect: the
// tile reader's dtype and list requests present thousands of small
// physical runs across the servers, and the scheduler dispatches them
// as a small fraction of that many operations. The counts are exact:
// the simulator is deterministic, so any change to planning shows here.
func TestDiskSchedCollapsesTileDtypeOps(t *testing.T) {
	for _, tc := range []struct {
		m         mpiio.Method
		runs, ops int64
	}{
		{mpiio.DtypeIO, 5000, 97},
		{mpiio.ListIO, 4825, 601},
	} {
		r := TileRead(DefaultConfig(6, 1), workloads.DefaultTile(), tc.m, 1)
		if r.Err != nil {
			t.Fatalf("%v: %v", tc.m, r.Err)
		}
		if r.Disk.DiskOps != tc.runs || r.Disk.DiskOpsMerged != tc.ops {
			t.Errorf("%v: %d runs -> %d ops, want %d -> %d",
				tc.m, r.Disk.DiskOps, r.Disk.DiskOpsMerged, tc.runs, tc.ops)
		}
	}
}

// schedVariants are read gap-merge thresholds around the default;
// every one must produce byte-identical results.
func schedVariants() []struct {
	name string
	mut  func(*Config)
} {
	return []struct {
		name string
		mut  func(*Config)
	}{
		{"gap0", func(c *Config) { c.SieveGapBytes = 0 }},
		{"gap4k", func(c *Config) { c.SieveGapBytes = 4096 }},
		{"gap64k", func(c *Config) { c.SieveGapBytes = 64 * 1024 }},
		{"gap512k", func(c *Config) { c.SieveGapBytes = 512 * 1024 }},
	}
}

// TestSchedVariantsVerified runs the verified (data-checking) workloads
// under every scheduler variant and access method: the scheduler must
// never change the bytes, only the dispatch.
func TestSchedVariantsVerified(t *testing.T) {
	methods := []mpiio.Method{mpiio.Posix, mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO}
	for _, v := range schedVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, m := range methods {
				tileCfg := verifyCfg(6, 1)
				v.mut(&tileCfg)
				if res := TileRead(tileCfg, smallTile(), m, 2); res.Err != nil {
					t.Fatalf("tile read %v: %v", m, res.Err)
				}
				tileCfg = verifyCfg(6, 1)
				v.mut(&tileCfg)
				if res := TileWrite(tileCfg, smallTile(), m, 2); res.Err != nil {
					t.Fatalf("tile write %v: %v", m, res.Err)
				}
				b3cfg := verifyCfg(8, 2)
				v.mut(&b3cfg)
				b3 := workloads.Block3DConfig{N: 24, ElemSize: 4, Procs: 8}
				if res := Block3D(b3cfg, b3, m, false); res.Err != nil {
					t.Fatalf("block3d read %v: %v", m, res.Err)
				}
				b3cfg = verifyCfg(8, 2)
				v.mut(&b3cfg)
				if res := Block3D(b3cfg, b3, m, true); res.Err != nil {
					t.Fatalf("block3d write %v: %v", m, res.Err)
				}
				flCfg := verifyCfg(4, 2)
				v.mut(&flCfg)
				fc := workloads.FlashConfig{Blocks: 4, NB: 4, Guard: 2, Vars: 6, ElemSize: 8, Procs: 4}
				if res := Flash(flCfg, fc, m); res.Err != nil {
					t.Fatalf("flash %v: %v", m, res.Err)
				}
			}
		})
	}
}

// TestSendRecvParallelSmoke drives a multi-server contiguous exchange
// through the parallelized send/receive path on the simulated transport
// and checks the cost accounting stays consistent (one wire message per
// involved server).
func TestSendRecvParallelSmoke(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Servers = 4
	cfg.Discard = false
	cfg.StripSize = 1024
	c := NewCluster(cfg)
	_, per, err := c.Run(func(r *Rank) error {
		f, err := r.FS.Create(r.Env, fmt.Sprintf("p%d.dat", r.ID), cfg.StripSize, 0)
		if err != nil {
			return err
		}
		data := make([]byte, 4*cfg.StripSize) // exactly one strip per server
		for i := range data {
			data[i] = byte(i * 13)
		}
		if err := f.WriteContig(r.Env, 0, data); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if err := f.ReadContig(r.Env, 0, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != data[i] {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Write + read each fan out to 4 servers.
	if per.WireMsgs != 8 {
		t.Fatalf("wire messages per client = %d, want 8", per.WireMsgs)
	}
}
