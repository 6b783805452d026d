// Command benchmark is the repository's wall-clock benchmark: four
// access-pattern workloads times the paper's five access methods on the
// daemon-default system (loopback TCP daemons, file-backed objects) in
// one process. See README.md for the protocol and the metric tables, and
// BENCHMARK.json at the repository root for the contract.
//
//	go run ./benchmark -workload tile_read -seed 1 -seconds 24 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"dtio/internal/trace"
)

var procStart = time.Now()

// e2eNames are the end-to-end metrics, in print order.
var e2eNames = []string{
	"setup_s", "posix_mbps", "sieve_mbps", "twophase_mbps", "listio_mbps", "dtype_mbps",
	"dtype_op_p50_ms", "dtype_op_p95_ms",
}

// sample is one end-to-end metric of one run with the spread the run
// itself saw (quartiles over its rounds, or its set-ups).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint is the environment every result carries.
type fingerprint struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	FS         string `json:"object_fs"`
	Servers    int    `json:"servers"`
	StripBytes int    `json:"strip_bytes"`
	Flush      string `json:"flush_policy"`
	Storage    string `json:"storage"`
}

// record is one run's full result, the line -json appends and -compare
// reads.
type record struct {
	Env       fingerprint `json:"env"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Rounds    int         `json:"timed_rounds"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	FailShare float64     `json:"op_fail_share"`
	Digests   []string    `json:"write_digests,omitempty"`
	WarmupS   float64     `json:"warmup_s"`
	// RoundRates are each method's MB/s in every timed round, in order.
	RoundRates map[string][]float64 `json:"round_mbps,omitempty"`
	EndToEnd   map[string]sample    `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric    `json:"per_layer,omitempty"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+" (default: all, one after another)")
		seed     = flag.Int64("seed", 1, "shuffles the operation order and masks the write payloads")
		seconds  = flag.Float64("seconds", 24, "time the timed rounds may take")
		traceOn  = flag.Int("trace", 0, "1: record spans and the layer replay, print the per-layer metrics")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
		workDir  = flag.String("work", filepath.Join("benchmark", ".work"), "directory for the daemons' object files (removed on exit)")
		jsonPath = flag.String("json", "", "append each run's full result to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -json files: benchmark -compare a.json b.json")
		corrupt  = flag.Bool("selftest-corrupt", false, "damage one byte before checking it; the run must report a failed operation")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: benchmark -compare a.json b.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fail(fmt.Sprintf("unexpected arguments %v", flag.Args()))
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	// The object files go on every exit path: the deferred call on a
	// return, this handler on a signal.
	defer os.RemoveAll(*workDir)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(*workDir)
		os.Exit(130)
	}()

	exit := 0
	for _, name := range names {
		cfg := runConfig{
			workload: name, seed: *seed, seconds: *seconds, minRounds: 3,
			trace: *traceOn != 0, sc: fullScale(), workDir: *workDir, outDir: *outDir,
			setups: 5, log: os.Stdout, corrupt: *corrupt,
		}
		rec, err := run(cfg)
		if err != nil {
			return fail(fmt.Sprintf("%s: %v", name, err))
		}
		if *jsonPath != "" {
			if err := appendJSON(*jsonPath, rec); err != nil {
				return fail(err.Error())
			}
		}
		if err := printRecord(os.Stdout, rec); err != nil {
			return fail(err.Error())
		}
		if *corrupt {
			// The self-test passes when the damage was caught.
			if rec.Failed == 0 {
				fmt.Println("selftest-corrupt: the damaged byte was NOT detected")
				exit = 1
			} else {
				fmt.Printf("selftest-corrupt: detected, op_fail_share %.6f\n", rec.FailShare)
			}
		} else if !rec.Correct {
			exit = 1
		}
	}
	return exit
}

// fail reports an error that is not a measurement and returns its exit code.
func fail(msg string) int {
	fmt.Fprintf(os.Stderr, "benchmark: %s\n", msg)
	return 2
}

// run measures one workload.
func run(cfg runConfig) (*record, error) {
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
	// Set the system up several times and keep the last; setup_s is the
	// median, so one slow bring-up does not set it.
	var setups []float64
	var b *bench
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.stop()
		}
		start := time.Now()
		if i == 0 {
			start = procStart // the first set-up also pays process start
		}
		var err error
		if b, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.stop()
	rec.Env = environment(b.tc.dir)
	if cfg.trace {
		b.tracer = trace.New()
	}

	// Untimed: the canonical pass (exact counts, write digests), then
	// one whole round so every method's path is warm.
	warm := time.Now()
	if err := b.canonical(); err != nil {
		return nil, err
	}
	if err := b.round(0, false, false); err != nil {
		return nil, err
	}
	rec.WarmupS = time.Since(warm).Seconds()

	budget := cfg.seconds
	if cfg.trace {
		budget *= 0.7 // the rest is the layer replay
	}
	rounds, err := b.timedRounds(budget)
	if err != nil {
		return nil, err
	}
	rec.Rounds = rounds
	rec.RoundRates = make(map[string][]float64)
	for _, c := range b.cells {
		rec.RoundRates[c.m.String()] = c.rates
	}
	rec.Digests = b.digests

	if cfg.trace {
		rec.PerLayer, err = b.layerMetrics()
		if err != nil {
			return nil, err
		}
		if err := b.writeTrace(); err != nil {
			return nil, err
		}
	} else {
		rec.EndToEnd = b.endToEnd(setups)
	}
	rec.Attempted, rec.Failed = b.attempted, b.failed
	rec.FailShare = ratio(float64(b.failed), float64(b.attempted))
	rec.Correct = b.failed == 0
	return rec, nil
}

// endToEnd computes the end-to-end metrics from the timed rounds.
func (b *bench) endToEnd(setups []float64) map[string]sample {
	out := make(map[string]sample)
	q1, med, q3 := quartiles(setups)
	out["setup_s"] = sample{med, "s", q1, q3, len(setups)}
	for _, c := range b.cells {
		q1, med, q3 := quartiles(c.rates)
		out[c.m.String()+"_mbps"] = sample{med, "MB/s", q1, q3, len(c.rates)}
	}
	// Latency over all timed datatype operations pooled; the quartiles
	// are those of the per-round percentiles.
	dt := b.cells[len(b.cells)-1]
	lat := dt.sortedLat()
	per := b.w.ops[dt.m]
	p50s, p95s := dt.roundPercentiles(per, 0.50), dt.roundPercentiles(per, 0.95)
	q1, _, q3 = quartiles(p50s)
	out["dtype_op_p50_ms"] = sample{ms(percentile(lat, 0.50)), "ms", q1, q3, len(lat)}
	q1, _, q3 = quartiles(p95s)
	out["dtype_op_p95_ms"] = sample{ms(percentile(lat, 0.95)), "ms", q1, q3, len(lat)}
	return out
}

func (b *bench) writeTrace() error {
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(b.cfg.outDir, "trace-"+b.w.name+".json"))
	if err != nil {
		return err
	}
	if err := b.tracer.WriteChromeSorted(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendJSON(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric by name and unit, then, as the last
// line, the result object the driver reads.
func printRecord(w io.Writer, rec *record) error {
	e := rec.Env
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v: %d timed rounds after 1 warm-up round (%.2f s)\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Rounds, rec.WarmupS)
	fmt.Fprintf(w, "# env commit %s %s GOMAXPROCS %d nproc %d kernel %s\n", e.Commit, e.Go, e.GOMAXPROCS, e.NProc, e.Kernel)
	fmt.Fprintf(w, "# system 1 metadata server + %d I/O servers on loopback TCP, %d-byte strips, %s on %s\n",
		e.Servers, e.StripBytes, e.Storage, e.FS)
	fmt.Fprintf(w, "# flush policy: %s; numbers are the software path over the page cache, not a device\n", e.Flush)
	if len(rec.Digests) > 0 {
		fmt.Fprintf(w, "# canonical write digest (fnv64a, equal across the five methods): %s\n", rec.Digests[0])
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]metric)}
	if rec.Trace {
		names := make([]string, 0, len(rec.PerLayer))
		for name := range rec.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := rec.PerLayer[name]
			fmt.Fprintf(w, "%-36s %14.4f %s\n", name, m.Value, m.Unit)
			out.Metrics[name] = m
		}
	} else {
		for _, name := range e2eNames {
			s := rec.EndToEnd[name]
			fmt.Fprintf(w, "%-36s %14.4f %-5s q1 %.4f q3 %.4f n %d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			out.Metrics[name] = metric{s.Value, s.Unit}
		}
	}
	fmt.Fprintf(w, "%-36s %14.6f ratio (%d failed of %d attempted)\n", "op_fail_share", rec.FailShare, rec.Failed, rec.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func environment(objectDir string) fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     kernelRelease(),
		FS:         fsType(objectDir),
		Servers:    nServers,
		StripBytes: stripSize,
		Flush:      flushPolicy,
		Storage:    "storage.OpenFile objects",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}
