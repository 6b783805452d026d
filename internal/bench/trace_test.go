package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dtio/internal/mpiio"
	"dtio/internal/trace"
)

// TestTracedRunLinksServerSpansToClientOps is the acceptance check for
// the observability tentpole: a traced benchmark run must produce
// server-side request spans whose parent links resolve — possibly
// through intermediate server spans — to client operation spans on a
// rank track, all stamped in virtual time.
func TestTracedRunLinksServerSpansToClientOps(t *testing.T) {
	tr := trace.New()
	cfg := verifyCfg(6, 1)
	cfg.Trace = tr
	res := TileRead(cfg, smallTile(), mpiio.DtypeIO, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[trace.SpanID]*trace.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	// Walk each server span's ancestry to its root.
	rootTrack := func(sp *trace.Span) string {
		for i := 0; i < len(spans); i++ {
			p, ok := byID[sp.Parent]
			if !ok {
				return sp.Track
			}
			sp = p
		}
		return sp.Track
	}
	var serverSpans, linkedToRank int
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Track, "io-server-") {
			continue
		}
		serverSpans++
		if sp.Parent == 0 {
			continue
		}
		root := rootTrack(sp)
		if !strings.HasPrefix(root, "rank") {
			t.Fatalf("server span %d (%s) roots at track %q, not a rank", sp.ID, sp.Name, root)
		}
		linkedToRank++
	}
	if serverSpans == 0 {
		t.Fatal("no server spans recorded")
	}
	if linkedToRank == 0 {
		t.Fatal("no server span links back to a client op span")
	}
	// Client op spans must exist on every rank's track and carry finish
	// times (virtual-time stamps, monotone per span).
	ranks := map[string]bool{}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Track, "rank") {
			ranks[sp.Track] = true
			if sp.Finish >= 0 && sp.Finish < sp.Start {
				t.Fatalf("span %d (%s) finishes before it starts", sp.ID, sp.Name)
			}
		}
	}
	if len(ranks) != 6 {
		t.Fatalf("op spans on %d rank tracks, want 6", len(ranks))
	}

	// The export must be valid JSON with the expected envelope.
	var buf bytes.Buffer
	if err := tr.WriteChromeSorted(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) <= len(spans) {
		t.Fatalf("export has %d events for %d spans (+track metadata)", len(doc.TraceEvents), len(spans))
	}
}

// TestResultLatencyHistograms checks that every experiment cell carries
// populated client and server latency distributions with monotone
// quantiles.
func TestResultLatencyHistograms(t *testing.T) {
	for _, m := range []mpiio.Method{mpiio.Posix, mpiio.Sieve, mpiio.DtypeIO} {
		res := TileRead(verifyCfg(6, 1), smallTile(), m, 2)
		if res.Err != nil {
			t.Fatalf("%v: %v", m, res.Err)
		}
		if res.Lat.Count == 0 {
			t.Fatalf("%v: empty client latency histogram", m)
		}
		if res.SrvLat.Count == 0 {
			t.Fatalf("%v: empty server latency histogram", m)
		}
		p50, p95, p99 := res.Lat.Quantiles()
		if p50 <= 0 || p95 < p50 || p99 < p95 {
			t.Fatalf("%v: bad quantiles %v/%v/%v", m, p50, p95, p99)
		}
		if p50, p95, p99 := res.SrvLat.Quantiles(); p95 < p50 || p99 < p95 {
			t.Fatalf("%v: non-monotone server quantiles %v/%v/%v", m, p50, p95, p99)
		}
	}
}

// TestTracingDoesNotChangeTiming locks in that observation is passive:
// the same workload with and without a tracer must report identical
// virtual elapsed time and I/O counters.
func TestTracingDoesNotChangeTiming(t *testing.T) {
	base := TileRead(verifyCfg(6, 1), smallTile(), mpiio.DtypeIO, 2)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	cfg := verifyCfg(6, 1)
	cfg.Trace = trace.New()
	traced := TileRead(cfg, smallTile(), mpiio.DtypeIO, 2)
	if traced.Err != nil {
		t.Fatal(traced.Err)
	}
	if base.Elapsed != traced.Elapsed {
		t.Fatalf("tracing changed virtual time: %v vs %v", base.Elapsed, traced.Elapsed)
	}
	if base.PerClient != traced.PerClient {
		t.Fatalf("tracing changed I/O counters:\n%+v\n%+v", base.PerClient, traced.PerClient)
	}
}
