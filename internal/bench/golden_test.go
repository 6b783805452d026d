package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dtio/internal/mpiio"
	"dtio/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_golden.json from this run")

const goldenPath = "testdata/paper_golden.json"

// goldenCell is one pinned simulator cell: the per-client characteristics
// columns of Tables 1-3, the disk scheduler's counters summed over
// servers, and the timed phase in virtual nanoseconds.
type goldenCell struct {
	Cell          string `json:"cell"`
	IOOps         int64  `json:"io_ops"`
	AccessedBytes int64  `json:"accessed_bytes"`
	ReqBytes      int64  `json:"req_bytes"`
	ResentBytes   int64  `json:"resent_bytes"`
	WireMsgs      int64  `json:"wire_msgs"`
	DiskOps       int64  `json:"disk_ops"`
	DiskOpsMerged int64  `json:"disk_ops_merged"`
	ElapsedNs     int64  `json:"elapsed_ns"`
}

func goldenOf(cell string, r Result) goldenCell {
	return goldenCell{
		Cell:          cell,
		IOOps:         r.PerClient.IOOps,
		AccessedBytes: r.PerClient.AccessedBytes,
		ReqBytes:      r.PerClient.ReqBytes,
		ResentBytes:   r.PerClient.ResentBytes,
		WireMsgs:      r.PerClient.WireMsgs,
		DiskOps:       r.Disk.DiskOps,
		DiskOpsMerged: r.Disk.DiskOpsMerged,
		ElapsedNs:     int64(r.Elapsed),
	}
}

// paperCells runs the trimmed E1-E3 grid on the paper-fidelity
// simulator (DefaultConfig), sized to cost a few seconds:
//   - E1: the tile reader at 6 clients and 1 frame, all five methods
//     (Table 1 exactly);
//   - E2: the 3-D block at 8 clients, read and write, on a 256^3 array
//     instead of the paper's 600^3 (the full array holds 864 MB of
//     client buffers);
//   - E3: the FLASH checkpoint at 2 clients (Table 3 exactly) and at 8
//     clients with 40 blocks per process instead of 80.
//
// POSIX runs only in E1: it is the slow-by-design baseline, and the
// tile cells already pin its path.
func paperCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	add := func(cell string, r Result) {
		if r.Err != nil {
			t.Fatalf("%s: %v", cell, r.Err)
		}
		cells = append(cells, goldenOf(cell, r))
	}
	tile := workloads.DefaultTile()
	for _, m := range []mpiio.Method{mpiio.Posix, mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO} {
		add(fmt.Sprintf("E1/tile/p6/%v", m), TileRead(DefaultConfig(6, 1), tile, m, 1))
	}
	b3 := workloads.Block3DConfig{N: 256, ElemSize: 4, Procs: 8}
	for _, write := range []bool{false, true} {
		mode := "read"
		if write {
			mode = "write"
		}
		for _, m := range []mpiio.Method{mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO} {
			add(fmt.Sprintf("E2/block3d-%s/p8/%v", mode, m), Block3D(DefaultConfig(8, 2), b3, m, write))
		}
	}
	flash8 := workloads.DefaultFlash(8)
	flash8.Blocks = 40
	for _, fc := range []workloads.FlashConfig{workloads.DefaultFlash(2), flash8} {
		for _, m := range []mpiio.Method{mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO} {
			add(fmt.Sprintf("E3/flash/p%d/%v", fc.Procs, m), Flash(DefaultConfig(fc.Procs, 2), fc, m))
		}
	}
	return cells
}

// TestPaperGolden pins the reproduction: every cell of the trimmed
// E1-E3 grid must match testdata/paper_golden.json exactly. Equality is
// the right bound because the simulator is deterministic
// (TestFaultRunDeterministic). A change that means to move a number
// regenerates the file with `go test ./internal/bench -run
// TestPaperGolden -update` and says why.
func TestPaperGolden(t *testing.T) {
	got := paperCells(t)
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(raw, enc) {
		return
	}
	var want []goldenCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byCell := make(map[string]goldenCell, len(want))
	for _, w := range want {
		byCell[w.Cell] = w
	}
	for _, g := range got {
		w, ok := byCell[g.Cell]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", g.Cell, goldenPath)
		case g != w:
			t.Errorf("%s:\n got  %+v\n want %+v", g.Cell, g, w)
		}
		delete(byCell, g.Cell)
	}
	for name := range byCell {
		t.Errorf("%s: in %s but no longer run", name, goldenPath)
	}
}
