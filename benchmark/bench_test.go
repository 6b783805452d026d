package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: seed, seconds: 0, minRounds: 2, trace: trace,
		sc: smokeScale(), workDir: t.TempDir(), outDir: t.TempDir(), setups: 1, log: io.Discard,
	}
}

// countMetric reports whether a per-layer metric is a count the
// program makes, which must repeat exactly from run to run and from
// seed to seed.
func countMetric(name string) bool {
	for _, p := range []string{
		"wire.msgs_per_op.", "wire.req_bytes_per_op.", "pvfs.sched.runs_in_per_op.",
		"pvfs.sched.ops_out_per_op.", "pvfs.client.ioops_per_op.", "pvfs.client.accessed_per_desired.",
		"flatten.file_regions_per_op", "flatten.mem_regions_per_op", "striping.pieces_per_op",
		"dataloop.wire_bytes", "mpi.resent_bytes_per_op", "pvfs.server.compiled_replays_per_op",
	} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// linesFor counts the printed lines that report metric name.
func linesFor(out, name string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			n++
		}
	}
	return n
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and holds the output to BENCHMARK.json: every metric printed exactly
// once with its unit, no failed operation, and the count metrics
// identical across two runs and across two seeds.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	if len(c.EndToEnd) != len(e2eNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(c.EndToEnd), len(e2eNames))
	}
	for _, m := range c.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in -compare", m.Name, m.Bound, b)
		}
		if (m.Better == "higher") != higherIsBetter(m.Name) {
			t.Errorf("%s: BENCHMARK.json says better=%s, -compare disagrees", m.Name, m.Better)
		}
	}

	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rec, err := run(smokeConfig(t, name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("untraced: %d of %d operations failed", rec.Failed, rec.Attempted)
			}
			var out bytes.Buffer
			if err := printRecord(&out, rec); err != nil {
				t.Fatal(err)
			}
			for _, m := range c.EndToEnd {
				got, ok := rec.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
				if n := linesFor(out.String(), m.Name); n != 1 {
					t.Errorf("end-to-end %s printed %d times", m.Name, n)
				}
			}
			if len(rec.EndToEnd) != len(c.EndToEnd) {
				t.Errorf("%d end-to-end metrics reported, BENCHMARK.json names %d", len(rec.EndToEnd), len(c.EndToEnd))
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(c.EndToEnd) {
				t.Errorf("result object %s lacks a key or a metric", lines[len(lines)-1])
			}

			// Traced: twice with one seed, once with another.
			var layers []map[string]metric
			for _, seed := range []int64{1, 1, 2} {
				cfg := smokeConfig(t, name, seed, true)
				rec, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Failed != 0 {
					t.Fatalf("traced seed %d: %d of %d operations failed", seed, rec.Failed, rec.Attempted)
				}
				if fi, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil || fi.Size() == 0 {
					t.Errorf("no span file written: %v", err)
				}
				layers = append(layers, rec.PerLayer)
				out.Reset()
				if err := printRecord(&out, rec); err != nil {
					t.Fatal(err)
				}
			}
			if len(layers[0]) != len(c.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json names %d", len(layers[0]), len(c.PerLayer))
			}
			for _, m := range c.PerLayer {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("per-layer name %q is not a contract name", m.Name)
				}
				got, ok := layers[2][m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
				if n := linesFor(out.String(), m.Name); n != 1 {
					t.Errorf("per-layer %s printed %d times", m.Name, n)
				}
				if countMetric(m.Name) {
					a, b, c := layers[0][m.Name].Value, layers[1][m.Name].Value, layers[2][m.Name].Value
					if a != b || a != c {
						t.Errorf("count %s does not repeat: %v, %v (same seed), %v (other seed)", m.Name, a, b, c)
					}
				}
			}
		})
	}
}

// TestCorruptionIsCaught proves the correctness checks are live: with
// one byte damaged before the check, a read workload and a write
// workload must each report a failed operation.
func TestCorruptionIsCaught(t *testing.T) {
	for _, name := range []string{"tile_read", "flash_write"} {
		cfg := smokeConfig(t, name, 1, false)
		cfg.corrupt = true
		rec, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed == 0 || rec.Correct || rec.FailShare <= 0 {
			t.Errorf("%s: damaged byte not detected (%d failed of %d)", name, rec.Failed, rec.Attempted)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// is [3.5, 24.0, 160.0].
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals map[string]float64, spread float64) *side {
		s := &side{runs: map[string]map[string][]sample{"tile_read": {}}, failed: map[string]float64{}}
		for name, v := range vals {
			s.runs["tile_read"][name] = []sample{{Value: v, Q1: v * (1 - spread/2), Q3: v * (1 + spread/2), N: 9}}
		}
		return s
	}
	base := map[string]float64{"dtype_mbps": 800, "posix_mbps": 100, "dtype_op_p50_ms": 2.5}
	slower := map[string]float64{"dtype_mbps": 500, "posix_mbps": 99, "dtype_op_p50_ms": 2.5}
	var out bytes.Buffer
	if code := compareSides(&out, mk(base, 0.02), mk(slower, 0.02)); code != 1 {
		t.Errorf("a 37%% loss of dtype_mbps exits %d, want 1", code)
	}
	for _, want := range []string{"dtype_mbps       regressed", "posix_mbps       unchanged", "dtype_op_p50_ms  unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareSides(&out, mk(base, 0.5), mk(base, 0.5)); code != 0 {
		t.Errorf("equal sides exit %d, want 0", code)
	}
	if !strings.Contains(out.String(), "dtype_mbps       unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out.String())
	}
	worse := mk(base, 0.02)
	worse.failed["tile_read"] = 0.001
	if code := compareSides(&out, mk(base, 0.02), worse); code != 1 {
		t.Errorf("a rise in op_fail_share exits %d, want 1", code)
	}
}
