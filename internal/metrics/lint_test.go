package metrics

import "testing"

func TestLintNameRules(t *testing.T) {
	cases := []struct {
		name, kind string
		clean      bool
	}{
		{"pvfs_server_io_ops", "gauge", true},
		{"pvfs_server_replays_total", "counter", true},
		{"lock_wait_seconds_total", "counter", true},
		{"cache_hit_ratio", "gauge", true},
		{"read_latency_seconds", "histogram", true},
		{"lock_wait_ns", "gauge", false},        // scaled duration unit
		{"failover_ms_total", "counter", false}, // scaled unit inside counter
		{"cache_hit_pct", "gauge", false},       // percent instead of ratio
		{"heap_kb", "gauge", false},             // scaled size unit
		{"replays", "counter", false},           // counter without _total
		{"io_ops_total", "gauge", false},        // _total on a non-counter
		{"read_latency", "histogram", false},    // histogram without _seconds
		{"read_latency_total", "histogram", false},
		{"Read_Latency_seconds", "histogram", false}, // uppercase
	}
	for _, c := range cases {
		probs := LintName(c.name, c.kind)
		if c.clean && len(probs) > 0 {
			t.Errorf("%s (%s): want clean, got %v", c.name, c.kind, probs)
		}
		if !c.clean && len(probs) == 0 {
			t.Errorf("%s (%s): want violation, lint passed it", c.name, c.kind)
		}
	}
}

// TestRegistryLintFindsAllKinds: Lint must walk every registration
// map, not just gauges.
func TestRegistryLintFindsAllKinds(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("bad_ns", "", func() int64 { return 0 })
	reg.GaugeF("bad_pct", "", func() float64 { return 0 })
	reg.Counter("bad_counter", "", func() float64 { return 0 })
	var h Histogram
	reg.Hist("bad_hist", "", &h)
	if got := len(reg.Lint()); got != 4 {
		t.Fatalf("want 4 violations (one per kind), got %d: %v", got, reg.Lint())
	}
}
