package bench

import (
	"testing"
	"time"

	"dtio/internal/fault"
	"dtio/internal/pvfs"
)

// healthSweep runs a replica-read sweep against an 8-server, k=2
// cluster with the health aggregator ticking at interval and the given
// fault plan, and returns the cluster for post-run inspection. The
// sweep makes `passes` full passes of one 4 KiB read per 64 KiB picker
// window, so every group's picker choice is sampled continuously for
// the whole run.
func healthSweep(t *testing.T, interval time.Duration, plan *fault.Plan, fileBytes int64, passes int) *Cluster {
	t.Helper()
	cfg := DefaultConfig(4, 1)
	cfg.Servers = 8
	cfg.Replicas = 2
	cfg.LeastLoadedReads = true
	cfg.HealthInterval = interval
	cfg.Fault = plan
	cfg.Retry = faultRetry()
	cl := NewCluster(cfg)
	_, _, err := cl.Run(func(r *Rank) error {
		var f *pvfs.File
		var err error
		if r.ID == 0 {
			f, err = r.FS.Create(r.Env, "health.dat", cfg.StripSize, 0)
			if err == nil {
				err = f.WriteContig(r.Env, fileBytes-1, []byte{0})
			}
		}
		r.Comm.Barrier(r.Env)
		if r.ID != 0 {
			f, err = r.FS.Open(r.Env, "health.dat")
		}
		if err != nil {
			return err
		}
		// Each rank starts its sweep a quarter of the file further along
		// and wraps: in lockstep from offset 0 every rank's first picks
		// pile onto the same cold member, which reads as a (real, but
		// uninteresting) startup straggler.
		const window = 64 * 1024
		windows := fileBytes / window
		buf := make([]byte, 4096)
		for p := 0; p < passes; p++ {
			for i := int64(0); i < windows; i++ {
				w := (i + int64(r.ID)*windows/4) % windows
				off := w * window
				if off+int64(len(buf)) > fileBytes {
					continue
				}
				if err := f.ReadContig(r.Env, off, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("health sweep: %v", err)
	}
	if cl.HealthTicks() == 0 {
		t.Fatal("aggregator never ticked; interval too long for the run")
	}
	return cl
}

// TestHealthFlagsDegradeWithinOneInterval: a disk degrade mid-run must
// be flagged by the very next aggregation tick (the Degraded state
// alone clears the straggler cutoff — no histogram evidence needed),
// and the health-fed pickers must shift reads onto the healthy group
// sibling for the rest of the run.
func TestHealthFlagsDegradeWithinOneInterval(t *testing.T) {
	const (
		// The interval must exceed the healthy service envelope (p99 runs
		// single-digit ms here), or "no completions this window" stops
		// meaning anything.
		interval  = 10 * time.Millisecond
		degradeAt = 50 * time.Millisecond
	)
	plan := &fault.Plan{Events: []fault.Event{
		{At: degradeAt, Server: 0, Kind: fault.Degrade, Factor: 800},
	}}
	cl := healthSweep(t, interval, plan, 8<<20, 4)

	at, ok := cl.StragglerFlaggedAt(0)
	if !ok {
		t.Fatal("degraded server 0 never flagged as straggler")
	}
	// Ticks land at multiples of the interval, so the first tick at or
	// after the event is at most one interval later.
	if at < degradeAt || at > degradeAt+interval {
		t.Fatalf("flagged at %v, want within one interval (%v) of degrade at %v", at, interval, degradeAt)
	}

	// Picker shift: group 0 is servers {0,1}; once server 0 carries the
	// straggler bias every window pick in the group lands on server 1.
	reads := cl.ServerReadCounts()
	if reads[0] >= reads[1] {
		t.Fatalf("reads did not shift off the straggler: server0=%d server1=%d (all: %v)",
			reads[0], reads[1], reads)
	}
	if share := float64(reads[0]) / float64(reads[0]+reads[1]); share >= 0.35 {
		t.Fatalf("straggler still served %.0f%% of its group's reads (%v)", 100*share, reads)
	}
	// Other groups stay balanced-ish: their members must all have served
	// reads (the bias only isolates the straggler, not healthy members).
	for s := 2; s < len(reads); s++ {
		if reads[s] == 0 {
			t.Fatalf("healthy server %d served nothing: %v", s, reads)
		}
	}
}

// TestHealthFlagsStall: a frozen server completes nothing, so its
// latency window is empty — silence, not a spike. The aggregator must
// still flag it, from queued requests with no completions, by the
// first tick whose window lies entirely inside the stall.
func TestHealthFlagsStall(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stallAt  = 50 * time.Millisecond
		stallDur = 80 * time.Millisecond
	)
	plan := &fault.Plan{Events: []fault.Event{
		{At: stallAt, Server: 0, Kind: fault.Stall, Dur: stallDur},
	}}
	cl := healthSweep(t, interval, plan, 8<<20, 4)

	at, ok := cl.StragglerFlaggedAt(0)
	if !ok {
		t.Fatal("stalled server 0 never flagged as straggler")
	}
	// The tick right after stallAt may still see pre-stall completions
	// in its window; the next one cannot, and the debounce adds one
	// more tick before the flag counts as a detection.
	if at < stallAt || at > stallAt+4*interval {
		t.Fatalf("flagged at %v, want within four intervals (%v) of stall at %v", at, interval, stallAt)
	}
}
