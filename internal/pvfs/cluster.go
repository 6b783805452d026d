// Cluster-wide observability: ClusterSnapshot merges every I/O
// server's AdminStats snapshot and every metadata shard's snapshot
// into one JSON document with a per-server health score, so one fetch
// answers "which server is the straggler" (DESIGN.md §17). The same
// scoring feeds the bench aggregator's live straggler detection and
// the replica read picker's load bias.

package pvfs

import (
	"fmt"
	"sort"
	"time"

	"dtio/internal/metrics"
	"dtio/internal/transport"
)

// StragglerScore is the health-score cutoff above which a server is
// flagged as a straggler. A healthy idle server scores ~1 (its p99
// tracks the cluster median and its queue is empty), so 2.0 means
// "twice the cluster's tail, or the equivalent in queue depth /
// degradation".
const StragglerScore = 2.0

// HealthScore folds one server's signals into a scalar: the ratio of
// its p99 service time to the cluster median (1.0 when it tracks the
// pack), a queue-depth term (every 4 queued requests add the weight
// of one median-p99 ratio), a stall penalty (requests are waiting but
// none completed in the observation window — a frozen disk shows
// silence, not a latency spike, until it unfreezes), and fixed
// penalties for a degraded disk and a live repair pass — states that
// predict slowness even before the histograms show it.
func HealthScore(p99, medianP99 time.Duration, inflight int64, degraded, repairing, stalled bool) float64 {
	ratio := 1.0
	if medianP99 > 0 {
		ratio = float64(p99) / float64(medianP99)
	}
	score := ratio + float64(inflight)/4
	if stalled {
		score += StragglerScore
	}
	if degraded {
		score += 2
	}
	if repairing {
		score += 3
	}
	return score
}

// ServerHealth is one server's row in the cluster health table.
type ServerHealth struct {
	Server    int   `json:"server"`
	P99Us     int64 `json:"p99_us"`
	InFlight  int64 `json:"inflight"`
	Degraded  bool  `json:"degraded,omitempty"`
	Repairing bool  `json:"repairing,omitempty"`
	// Stalled: requests were in flight but none completed in the
	// snapshot's observation window.
	Stalled   bool    `json:"stalled,omitempty"`
	Score     float64 `json:"score"`
	Straggler bool    `json:"straggler,omitempty"`
}

// ClusterSnapshot is the merged cluster view: every server's stats
// snapshot, every metadata shard's snapshot, the cluster-merged
// latency histogram, and the derived health table. It is the JSON
// document `pvfsctl stats -all` prints and `pvfsctl top` refreshes.
type ClusterSnapshot struct {
	Servers []ServerSnapshot `json:"servers"`
	Metas   []MetaSnapshot   `json:"metas,omitempty"`
	Health  []ServerHealth   `json:"health"`
	// Lat merges every server's service-time histogram; the quantiles
	// below are over it.
	Lat         metrics.HistSnapshot `json:"latency"`
	P50Us       int64                `json:"p50_us"`
	P95Us       int64                `json:"p95_us"`
	P99Us       int64                `json:"p99_us"`
	MedianP99Us int64                `json:"median_p99_us"`
	Stragglers  []int                `json:"stragglers,omitempty"`
	// Unreachable lists daemons that did not answer the fetch (empty
	// when the snapshot is complete).
	Unreachable []string `json:"unreachable,omitempty"`
}

// medianP99 is the middle per-server p99 (µs), over servers that have
// served at least one request. Zero when nothing has.
func medianP99(servers []ServerSnapshot) int64 {
	var p99s []int64
	for _, s := range servers {
		if s.Lat.Count > 0 {
			p99s = append(p99s, s.P99Us)
		}
	}
	if len(p99s) == 0 {
		return 0
	}
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	return p99s[len(p99s)/2]
}

// BuildClusterSnapshot derives the merged view and health table from
// already-fetched per-daemon snapshots (the aggregation is pure, so
// the simulated bench and the TCP control tool share it).
func BuildClusterSnapshot(servers []ServerSnapshot, metas []MetaSnapshot) ClusterSnapshot {
	cs := ClusterSnapshot{Servers: servers, Metas: metas}
	med := medianP99(servers)
	cs.MedianP99Us = med
	for _, s := range servers {
		cs.Lat = cs.Lat.Add(s.Lat)
		h := ServerHealth{
			Server:    s.Server,
			P99Us:     s.P99Us,
			InFlight:  s.InFlight,
			Degraded:  s.Degraded,
			Repairing: s.Repairing,
			// One waiting request is just an op in progress; several
			// waiting with zero completions is a pile-up. Sound when the
			// observation window exceeds the normal service envelope.
			Stalled: s.InFlight >= 2 && s.Lat.Count == 0,
		}
		h.Score = HealthScore(time.Duration(s.P99Us)*time.Microsecond,
			time.Duration(med)*time.Microsecond, s.InFlight, s.Degraded, s.Repairing, h.Stalled)
		h.Straggler = h.Score >= StragglerScore
		if h.Straggler {
			cs.Stragglers = append(cs.Stragglers, s.Server)
		}
		cs.Health = append(cs.Health, h)
	}
	p50, p95, p99 := cs.Lat.Quantiles()
	cs.P50Us = p50.Microseconds()
	cs.P95Us = p95.Microseconds()
	cs.P99Us = p99.Microseconds()
	return cs
}

// NServers reports how many I/O servers the client addresses.
func (c *Client) NServers() int { return len(c.serverAddrs) }

// FetchCluster assembles a ClusterSnapshot from every daemon the
// client addresses. Unreachable daemons are skipped and listed in the
// snapshot's Unreachable field; the returned error (non-nil whenever
// that list is non-empty) wraps the first failure, so callers can
// both show the partial view and exit nonzero.
func (c *Client) FetchCluster(env transport.Env) (*ClusterSnapshot, error) {
	var (
		servers     []ServerSnapshot
		metas       []MetaSnapshot
		unreachable []string
		firstErr    error
	)
	miss := func(what string, err error) {
		unreachable = append(unreachable, what)
		if firstErr == nil {
			firstErr = fmt.Errorf("pvfs: %s: %w", what, err)
		}
	}
	for s := 0; s < c.MetaShards(); s++ {
		snap, err := c.FetchMetaStats(env, s)
		if err != nil {
			miss(fmt.Sprintf("meta shard %d", s), err)
			continue
		}
		metas = append(metas, *snap)
	}
	for s := 0; s < c.NServers(); s++ {
		snap, err := c.FetchStats(env, s)
		if err != nil {
			miss(fmt.Sprintf("server %d", s), err)
			continue
		}
		servers = append(servers, *snap)
	}
	cs := BuildClusterSnapshot(servers, metas)
	cs.Unreachable = unreachable
	return &cs, firstErr
}
