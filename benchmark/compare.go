package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// bounds is how far each end-to-end metric may worsen, as a share of
// the first side's median, before -compare calls it a regression. They
// are the bounds of BENCHMARK.json (bench_test.go holds them equal).
var bounds = map[string]float64{
	"setup_s":         0.25,
	"posix_mbps":      0.25,
	"sieve_mbps":      0.25,
	"twophase_mbps":   0.25,
	"listio_mbps":     0.25,
	"dtype_mbps":      0.25,
	"dtype_op_p50_ms": 0.25,
	"dtype_op_p95_ms": 0.25,
}

// higherIsBetter reports the direction of an end-to-end metric.
func higherIsBetter(name string) bool { return strings.HasSuffix(name, "_mbps") }

// side is one -json file: per workload, the runs' samples per metric.
type side struct {
	runs   map[string]map[string][]sample
	failed map[string]float64 // worst op_fail_share per workload
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{runs: make(map[string]map[string][]sample), failed: make(map[string]float64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue // end-to-end metrics come from untraced runs only
		}
		if s.runs[rec.Workload] == nil {
			s.runs[rec.Workload] = make(map[string][]sample)
		}
		for name, v := range rec.EndToEnd {
			s.runs[rec.Workload][name] = append(s.runs[rec.Workload][name], v)
		}
		s.failed[rec.Workload] = max(s.failed[rec.Workload], rec.FailShare)
	}
	return s, sc.Err()
}

// summary is a side's median of a metric and its spread as a share of
// that median: between the quartiles of the runs when there are at
// least four, otherwise the widest spread a run saw within itself.
func summary(runs []sample) (med, spread float64) {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Value
	}
	q1, med, q3 := quartiles(vals)
	if len(runs) >= 4 {
		return med, ratio(q3-q1, med)
	}
	for _, r := range runs {
		spread = max(spread, ratio(r.Q3-r.Q1, r.Value))
	}
	return med, spread
}

// compareFiles applies the bounds to every (metric, workload) pair of
// two result files and prints a verdict for each: regressed (worse by
// more than the bound and by more than either side's own spread),
// unresolved (a side's spread is wider than the bound, so the pair
// cannot tell), or unchanged. It returns the exit code: 1 if anything
// regressed, 2 if the files could not be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readSide(pathA)
	if err == nil {
		var b *side
		if b, err = readSide(pathB); err == nil {
			return compareSides(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareSides(w io.Writer, a, b *side) int {
	code := 0
	for _, wl := range workloadNames {
		ra, rb := a.runs[wl], b.runs[wl]
		if ra == nil || rb == nil {
			continue
		}
		for _, name := range e2eNames {
			if len(ra[name]) == 0 || len(rb[name]) == 0 {
				continue
			}
			ma, sa := summary(ra[name])
			mb, sb := summary(rb[name])
			worse := ratio(mb-ma, ma)
			if higherIsBetter(name) {
				worse = -worse
			}
			spread, bound := max(sa, sb), bounds[name]
			verdict := "unchanged"
			switch {
			case worse > bound && worse > spread:
				verdict = "regressed"
				code = 1
			case spread > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-16s %-10s a %10.4f (n %d) b %10.4f (n %d) worse by %+6.2f%% spread %5.2f%% bound %4.1f%%\n",
				wl, name, verdict, ma, len(ra[name]), mb, len(rb[name]), 100*worse, 100*spread, 100*bound)
		}
		// Any rise in the share of failed operations is a regression.
		verdict := "unchanged"
		if b.failed[wl] > a.failed[wl] {
			verdict = "regressed"
			code = 1
		}
		fmt.Fprintf(w, "%-13s %-16s %-10s a %10.6f b %10.6f\n", wl, "op_fail_share", verdict, a.failed[wl], b.failed[wl])
	}
	return code
}
