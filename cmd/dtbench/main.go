// dtbench reproduces the paper's evaluation on the simulated Chiba City
// cluster: the characteristics tables (Tables 1-3) and bandwidth figures
// (Figures 8, 10, 12), plus the ablations from DESIGN.md.
//
// Usage:
//
//	dtbench -exp tile|block3d|flash|ablate-listcap|ablate-coalesce|ablate-sievebuf|ablate-loopcache|ablate-fullfeatured|all
//	dtbench -exp list
//
// Everything runs in virtual time; reported MB/s are deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dtio/internal/bench"
	"dtio/internal/mpiio"
	"dtio/internal/workloads"
)

var (
	expFlag    = flag.String("exp", "all", "experiment to run; `list` prints the catalog")
	frames     = flag.Int("frames", 3, "tile: frames per timed run")
	flashProcs = flag.String("flash-procs", "2,8,16,32,48,64,96,128", "flash: client counts")
	b3Procs    = flag.String("block3d-procs", "8,27,64", "block3d: client counts (perfect cubes)")
	noPosix    = flag.Bool("no-posix", false, "skip POSIX runs (they are slow by design)")
	verify     = flag.Bool("verify", false, "verify data (slower; uses real storage)")
)

// experiment is one catalog entry. The catalog drives both dispatch and
// the `-exp list` output, so an experiment cannot exist without a
// listing line.
type experiment struct {
	name string
	desc string
	run  func()
}

// experiments is the catalog, in presentation order.
func experiments() []experiment {
	return []experiment{
		{"tile", "E1 tile reader: Table 1 + Figure 8", runTile},
		{"block3d", "E2 ROMIO 3-D block: Table 2 + Figure 10", runBlock3D},
		{"flash", "E3 FLASH I/O checkpoint: Table 3 + Figure 12", runFlash},
		{"ablate-listcap", "A1: list I/O regions-per-request cap sweep", ablateListCap},
		{"ablate-coalesce", "A2: datatype region coalescing on/off", ablateCoalesce},
		{"ablate-sievebuf", "A3: data sieving buffer size sweep", ablateSieveBuf},
		{"ablate-loopcache", "A4: server-side dataloop cache (paper §5)", ablateLoopCache},
		{"ablate-fullfeatured", "A5: full-featured datatype I/O prediction", ablateFullFeatured},
		{"all", "E1-E3 plus every ablation", func() {
			runTile()
			runBlock3D()
			runFlash()
			ablateListCap()
			ablateCoalesce()
			ablateSieveBuf()
			ablateLoopCache()
			ablateFullFeatured()
		}},
	}
}

func listExperiments(w *os.File) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments() {
		fmt.Fprintf(w, "  %-20s %s\n", e.name, e.desc)
	}
}

func main() {
	flag.Parse()
	start := time.Now()
	if *expFlag == "list" {
		listExperiments(os.Stdout)
		return
	}
	for _, e := range experiments() {
		if e.name == *expFlag {
			e.run()
			fmt.Printf("\n(total wall time %v)\n", time.Since(start).Round(time.Second))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "dtbench: unknown experiment %q\n", *expFlag)
	listExperiments(os.Stderr)
	os.Exit(2)
}

func cfg(clients, procsPerNode int) bench.Config {
	c := bench.DefaultConfig(clients, procsPerNode)
	if *verify {
		c.Discard = false
		c.Verify = true
	}
	return c
}

func methods(includePosix bool, ms ...mpiio.Method) []mpiio.Method {
	if includePosix && !*noPosix {
		return append([]mpiio.Method{mpiio.Posix}, ms...)
	}
	return ms
}

// runTile regenerates Table 1 and Figure 8.
func runTile() {
	fmt.Println("=== E1: tile reader (paper §4.2, Table 1 + Figure 8) ===")
	tile := workloads.DefaultTile()
	fmt.Printf("frame %dx%d px = %.1f MB; 6 clients read %d frame(s); desired 2.25 MB/client/frame\n\n",
		tile.FrameW(), tile.FrameH(), float64(tile.FrameBytes())/1e6, *frames)
	var tableRs, figRs []bench.Result
	for _, m := range methods(true, mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO) {
		// Characteristics from a single frame; bandwidth from the run.
		t := bench.TileRead(cfg(6, 1), tile, m, 1)
		tableRs = append(tableRs, t)
		f := bench.TileRead(cfg(6, 1), tile, m, *frames)
		figRs = append(figRs, f)
	}
	fmt.Println(bench.CharacteristicsTable("Table 1: per-client I/O characteristics (per frame)", tableRs))
	fmt.Println(bench.BandwidthTable("Figure 8: tile read bandwidth", figRs))
	fmt.Println(bench.UtilizationTable("Bottlenecks", figRs))
	fmt.Println("paper values: POSIX 768 ops, sieve 5.56MB/2 ops, two-phase 1.70MB/1 op + 1.50MB resent,")
	fmt.Println("              list 12 ops, dtype 1 op; dtype ~37% faster than list I/O.")
	fmt.Println()
}

// runBlock3D regenerates Table 2 and Figure 10.
func runBlock3D() {
	fmt.Println("=== E2: ROMIO 3-D block (paper §4.3, Table 2 + Figure 10) ===")
	var readRs, writeRs []bench.Result
	for _, p := range parseInts(*b3Procs) {
		b3 := workloads.DefaultBlock3D(p)
		if err := b3.Validate(); err != nil {
			fmt.Printf("skipping p=%d: %v\n", p, err)
			continue
		}
		fmt.Printf("-- %d clients: %d^3 blocks, %.1f MB/client, view regions %d\n",
			p, b3.BlockEdge(), float64(b3.BlockBytes())/1e6, b3.View(0).NumRegions())
		var tbl []bench.Result
		for _, m := range methods(true, mpiio.Sieve, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO) {
			r := bench.Block3D(cfg(p, 2), b3, m, false)
			readRs = append(readRs, r)
			tbl = append(tbl, r)
			w := bench.Block3D(cfg(p, 2), b3, m, true)
			writeRs = append(writeRs, w)
		}
		fmt.Println(bench.CharacteristicsTable(
			fmt.Sprintf("Table 2 (%d clients): per-client I/O characteristics (read)", p), tbl))
	}
	fmt.Println(bench.BandwidthTable("Figure 10a: 3-D block read bandwidth", readRs))
	fmt.Println(bench.UtilizationTable("Bottlenecks (read)", readRs))
	fmt.Println(bench.BandwidthTable("Figure 10b: 3-D block write bandwidth", writeRs))
	fmt.Println("paper values (8 clients): POSIX 90,000 ops; sieve 412MB/103 ops; two-phase 26 ops + 77.2MB resent;")
	fmt.Println("              list 1408 ops; dtype 1 op. dtype read peak > 2x next best; read droops as p grows.")
	fmt.Println()
}

// runFlash regenerates Table 3 and Figure 12.
func runFlash() {
	fmt.Println("=== E3: FLASH I/O checkpoint (paper §4.4, Table 3 + Figure 12) ===")
	// Table at 2 clients (characteristics are per-client and
	// p-independent except two-phase resent = 7.5*(n-1)/n MB).
	fmt.Println("-- characteristics at 2 clients (POSIX included: 983,040 ops by design)")
	var tbl []bench.Result
	for _, m := range methods(true, mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO) {
		tbl = append(tbl, bench.Flash(cfg(2, 2), workloads.DefaultFlash(2), m))
	}
	fmt.Println(bench.CharacteristicsTable("Table 3: per-client I/O characteristics (write)", tbl))

	var figRs []bench.Result
	for _, p := range parseInts(*flashProcs) {
		fc := workloads.DefaultFlash(p)
		for _, m := range []mpiio.Method{mpiio.TwoPhase, mpiio.ListIO, mpiio.DtypeIO} {
			figRs = append(figRs, bench.Flash(cfg(p, 2), fc, m))
		}
		if !*noPosix && p <= 4 {
			figRs = append(figRs, bench.Flash(cfg(p, 2), fc, mpiio.Posix))
		}
	}
	fmt.Println(bench.BandwidthTable("Figure 12: FLASH write bandwidth", figRs))
	fmt.Println(bench.UtilizationTable("Bottlenecks", figRs))
	fmt.Println("paper values: POSIX 983,040 ops; two-phase 2 ops + 7.5*(n-1)/n MB resent; list 15,360 ops;")
	fmt.Println("              dtype 1 op. two-phase leads at small p; dtype crosses over, ~37% ahead by 96 procs")
	fmt.Println("              (~40 MB/s); list never overtakes two-phase.")
	fmt.Println()
}

// ablateListCap sweeps the regions-per-request bound of list I/O (A1).
func ablateListCap() {
	fmt.Println("=== A1: list I/O request cap (tile read, 64 is the paper's bound) ===")
	tile := workloads.DefaultTile()
	var rs []bench.Result
	for _, cap := range []int{8, 16, 64, 256, 1024} {
		c := cfg(6, 1)
		c.Hints.ListCap = cap
		r := bench.TileRead(c, tile, mpiio.ListIO, *frames)
		r.Name = fmt.Sprintf("cap=%d", cap)
		fmt.Printf("  cap %5d: %7.2f MB/s  (%d ops/client/frame, %s request payload)\n",
			cap, r.BandwidthMBs(), r.PerClient.IOOps/int64(*frames), fmtBytes(r.PerClient.ReqBytes/int64(*frames)))
		rs = append(rs, r)
	}
	fmt.Println()
}

// ablateCoalesce toggles adjacent-region coalescing in datatype I/O
// (A2): 4 clients each write+read 32768 adjacent 128 B blocks described
// block-by-block, as chunked high-level libraries do — without the
// paper's §3.2 coalescing the servers process one offset-length pair
// per block.
func ablateCoalesce() {
	fmt.Println("=== A2: datatype I/O region coalescing (32768 adjacent 128 B blocks/client) ===")
	for _, off := range []bool{false, true} {
		c := cfg(4, 2)
		r := bench.AdjacentBlocks(c, 32768, 128, off)
		label := "coalescing on (paper §3.2)"
		if off {
			label = "coalescing off"
		}
		fmt.Printf("  %-28s %7.2f MB/s  (%d pieces processed per client)\n",
			label, r.BandwidthMBs(), r.PerClient.Regions)
	}
	fmt.Println()
}

// ablateSieveBuf sweeps the data sieving buffer (A3; paper used 4 MB).
func ablateSieveBuf() {
	fmt.Println("=== A3: data sieving buffer size (tile read, paper used 4 MB) ===")
	tile := workloads.DefaultTile()
	for _, mb := range []int64{1, 2, 4, 8, 16} {
		c := cfg(6, 1)
		c.Hints.SieveBufSize = mb << 20
		r := bench.TileRead(c, tile, mpiio.Sieve, *frames)
		fmt.Printf("  buf %2d MB: %7.2f MB/s  (%d ops, %s accessed /client/frame)\n",
			mb, r.BandwidthMBs(), r.PerClient.IOOps/int64(*frames), fmtBytes(r.PerClient.AccessedBytes/int64(*frames)))
	}
	fmt.Println()
}

// ablateLoopCache enables the paper's §5 datatype-caching extension: a
// server-side cache of decoded dataloops, exercised by the 100-frame
// tile playback where every frame reuses the same view.
func ablateLoopCache() {
	fmt.Println("=== A4: server-side dataloop caching (paper §5 extension; tile, 20 frames) ===")
	tile := workloads.DefaultTile()
	for _, on := range []bool{false, true} {
		c := cfg(6, 1)
		c.LoopCache = on
		r := bench.TileRead(c, tile, mpiio.DtypeIO, 20)
		label := "prototype (decode per request)"
		if on {
			label = "with dataloop cache"
		}
		fmt.Printf("  %-32s %7.2f MB/s\n", label, r.BandwidthMBs())
	}
	fmt.Println()
}

// ablateFullFeatured models the paper's §5 prediction: the
// second-generation (PVFS2) datatype I/O "will remove the creation of
// the I/O lists on both client and server, further widening the
// performance gap". We approximate it by dropping the per-region
// list-building costs to plain memcpy levels and re-running the FLASH
// crossover points.
func ablateFullFeatured() {
	fmt.Println("=== A5: prototype vs full-featured datatype I/O (paper §5 prediction; FLASH) ===")
	for _, p := range []int{16, 48} {
		fc := workloads.DefaultFlash(p)
		proto := bench.Flash(cfg(p, 2), fc, mpiio.DtypeIO)
		full := cfg(p, 2)
		full.Cost.PerRegionClient = full.Cost.MemcpyPerPiece
		full.Cost.PerRegionServer = full.Cost.MemcpyPerPiece
		ff := bench.Flash(full, fc, mpiio.DtypeIO)
		two := bench.Flash(cfg(p, 2), fc, mpiio.TwoPhase)
		fmt.Printf("  p=%-3d prototype dtype %7.2f MB/s | full-featured dtype %7.2f MB/s | two-phase %7.2f MB/s\n",
			p, proto.BandwidthMBs(), ff.BandwidthMBs(), two.BandwidthMBs())
	}
	fmt.Println("  (the full-featured version overtakes two-phase at smaller client counts,")
	fmt.Println("   as the paper predicts for PVFS2)")
	fmt.Println()
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtbench: bad count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
