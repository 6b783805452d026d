// Package iostats collects the per-client I/O characteristics the paper
// reports in Tables 1-3: desired data, data accessed, number of I/O
// operations, and resent (redistributed) data, plus request-payload
// accounting that motivates datatype I/O.
package iostats

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats accumulates one client's counters. All methods are safe for
// concurrent use.
type Stats struct {
	mu   sync.Mutex // guards base
	base Snapshot   // counters folded in by Reset; see Lifetime

	desired    atomic.Int64 // bytes the application asked for
	accessed   atomic.Int64 // bytes moved between client and file system
	ioOps      atomic.Int64 // logical file-system operations issued
	wireMsgs   atomic.Int64 // request messages actually sent to servers
	reqBytes   atomic.Int64 // request description payload (headers, lists, loops)
	resent     atomic.Int64 // bytes redistributed between clients (two-phase)
	lockWaits  atomic.Int64 // lock acquisitions (sieving writes, atomic mode)
	lockWaitNs atomic.Int64 // nanoseconds spent queued for locks
	regionsCPU atomic.Int64 // offset-length pairs processed locally
	diskOps    atomic.Int64 // physical runs presented to the disk scheduler
	diskMerged atomic.Int64 // disk operations dispatched after coalescing
	diskVec    atomic.Int64 // coalesced ops dispatched as one vectored call
	rmwOps     atomic.Int64 // dispatched writes that pre-read their extent (write sieving)
	rmwGap     atomic.Int64 // hole bytes those writes read and rewrote unchanged
	seekBytes  atomic.Int64 // head travel between dispatched operations
	retries    atomic.Int64 // request attempts beyond the first
	timeouts   atomic.Int64 // attempts that failed by receive timeout
	replayed   atomic.Int64 // payload bytes sent again on retries
	failoverNs atomic.Int64 // first failure to recovered, per recovered op
	cacheHits  atomic.Int64 // ops served entirely from the client cache
	cacheMiss  atomic.Int64 // ops that had to fill or bypass the cache
	flushOps   atomic.Int64 // write-back flushes issued
	flushBytes atomic.Int64 // dirty bytes written back by flushes
	invals     atomic.Int64 // cached chunks invalidated (revoke, expiry, bypass)
	degraded   atomic.Int64 // reads served by a non-preferred replica member
	fanout     atomic.Int64 // replica write copies beyond the first member
	repair     atomic.Int64 // bytes re-replicated onto a restarted member
	evDropped  atomic.Int64 // flight-recorder events overwritten before dump
}

// AddDesired records application-requested bytes.
func (s *Stats) AddDesired(n int64) { s.desired.Add(n) }

// AddAccessed records bytes transferred between this client and servers.
func (s *Stats) AddAccessed(n int64) { s.accessed.Add(n) }

// AddOps records logical file-system operations.
func (s *Stats) AddOps(n int64) { s.ioOps.Add(n) }

// AddWire records one request message carrying descBytes of description.
func (s *Stats) AddWire(descBytes int64) {
	s.wireMsgs.Add(1)
	s.reqBytes.Add(descBytes)
}

// AddResent records client-to-client redistribution traffic.
func (s *Stats) AddResent(n int64) { s.resent.Add(n) }

// AddLock records a lock acquisition.
func (s *Stats) AddLock() { s.lockWaits.Add(1) }

// AddLockWait records time spent queued before a lock was granted.
func (s *Stats) AddLockWait(ns int64) { s.lockWaitNs.Add(ns) }

// AddRegions records locally processed offset-length pairs.
func (s *Stats) AddRegions(n int64) { s.regionsCPU.Add(n) }

// AddDisk records one disk-scheduler batch: in physical runs collapsed
// into merged dispatched operations, with seek bytes of head travel
// between them (server-side counters; see DESIGN.md §10).
func (s *Stats) AddDisk(in, merged, seek int64) {
	s.diskOps.Add(in)
	s.diskMerged.Add(merged)
	s.seekBytes.Add(seek)
}

// AddVec records coalesced disk operations dispatched to storage as a
// single vectored (scatter-gather) call rather than through a staging
// copy.
func (s *Stats) AddVec(n int64) { s.diskVec.Add(n) }

// AddRMW records ops sieved writes, each a read-modify-write of its
// extent, rewriting gap bytes of holes between their runs. Every such
// op is already one of AddDisk's merged ops; this counts the pre-read
// traffic that count hides.
func (s *Stats) AddRMW(ops, gap int64) {
	s.rmwOps.Add(ops)
	s.rmwGap.Add(gap)
}

// AddRetry records one retried request attempt.
func (s *Stats) AddRetry() { s.retries.Add(1) }

// AddTimeout records an attempt that failed by receive timeout (as
// opposed to a closed or reset connection).
func (s *Stats) AddTimeout() { s.timeouts.Add(1) }

// AddReplayed records payload bytes that had to be sent again because
// an earlier attempt failed (inline write payloads in full, streamed
// writes from the resume segment on).
func (s *Stats) AddReplayed(n int64) { s.replayed.Add(n) }

// AddFailover records the time from an operation's first failure to its
// eventual success.
func (s *Stats) AddFailover(ns int64) { s.failoverNs.Add(ns) }

// AddCacheHit records an operation served entirely from the client cache.
func (s *Stats) AddCacheHit() { s.cacheHits.Add(1) }

// AddCacheMiss records an operation that filled or bypassed the cache.
func (s *Stats) AddCacheMiss() { s.cacheMiss.Add(1) }

// AddFlush records one write-back flush of n dirty bytes.
func (s *Stats) AddFlush(n int64) {
	s.flushOps.Add(1)
	s.flushBytes.Add(n)
}

// AddInvalidations records cached chunks dropped for coherence (lease
// revocation or expiry, or a bypassing operation on the same range).
func (s *Stats) AddInvalidations(n int64) { s.invals.Add(n) }

// AddDegradedRead records a read served by a replica member other than
// the picker's first choice (failover or a mid-repair refusal).
func (s *Stats) AddDegradedRead() { s.degraded.Add(1) }

// AddFanoutWrite records one replica write copy beyond the group's
// first member (k-1 per replicated write when all members are up).
func (s *Stats) AddFanoutWrite() { s.fanout.Add(1) }

// AddRepair records bytes copied onto a restarted member from its
// surviving group peers during background re-replication.
func (s *Stats) AddRepair(n int64) { s.repair.Add(n) }

// AddEventDropped records a flight-recorder event overwritten before
// it could be dumped (the ring lapped it).
func (s *Stats) AddEventDropped() { s.evDropped.Add(1) }

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	DesiredBytes  int64
	AccessedBytes int64
	IOOps         int64
	WireMsgs      int64
	ReqBytes      int64
	ResentBytes   int64
	LockWaits     int64
	LockWaitNs    int64
	Regions       int64
	DiskOps       int64 // physical runs presented to the disk scheduler
	DiskOpsMerged int64 // operations actually dispatched after coalescing
	DiskVecOps    int64 // coalesced ops dispatched as one vectored call
	SeekBytes     int64 // head travel between dispatched operations
	Retries       int64 // request attempts beyond the first
	Timeouts      int64 // attempts that failed by receive timeout
	ReplayedBytes int64 // payload bytes sent again on retries
	FailoverNs    int64 // first failure to recovered, per recovered op
	CacheHits     int64 // ops served entirely from the client cache
	CacheMisses   int64 // ops that had to fill or bypass the cache
	FlushOps      int64 // write-back flushes issued
	FlushBytes    int64 // dirty bytes written back by flushes
	Invalidations int64 // cached chunks invalidated
	DegradedReads int64 // reads served by a non-preferred replica member
	FanoutWrites  int64 // replica write copies beyond the first member
	// ReplicaRepairBytes counts bytes re-replicated onto a restarted
	// member (server-side counter; see DESIGN.md §16).
	ReplicaRepairBytes int64
	// EventsDropped counts flight-recorder events the ring overwrote
	// before a dump could read them (server-side; DESIGN.md §17).
	EventsDropped int64
	// DiskRMWOps counts dispatched writes that read their extent first
	// (server-side write sieving), and DiskRMWGapBytes the hole bytes
	// they read and rewrote unchanged (server-side; DESIGN.md §10).
	DiskRMWOps      int64
	DiskRMWGapBytes int64
}

// Snapshot copies the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		DesiredBytes:       s.desired.Load(),
		AccessedBytes:      s.accessed.Load(),
		IOOps:              s.ioOps.Load(),
		WireMsgs:           s.wireMsgs.Load(),
		ReqBytes:           s.reqBytes.Load(),
		ResentBytes:        s.resent.Load(),
		LockWaits:          s.lockWaits.Load(),
		LockWaitNs:         s.lockWaitNs.Load(),
		Regions:            s.regionsCPU.Load(),
		DiskOps:            s.diskOps.Load(),
		DiskOpsMerged:      s.diskMerged.Load(),
		DiskVecOps:         s.diskVec.Load(),
		DiskRMWOps:         s.rmwOps.Load(),
		DiskRMWGapBytes:    s.rmwGap.Load(),
		SeekBytes:          s.seekBytes.Load(),
		Retries:            s.retries.Load(),
		Timeouts:           s.timeouts.Load(),
		ReplayedBytes:      s.replayed.Load(),
		FailoverNs:         s.failoverNs.Load(),
		CacheHits:          s.cacheHits.Load(),
		CacheMisses:        s.cacheMiss.Load(),
		FlushOps:           s.flushOps.Load(),
		FlushBytes:         s.flushBytes.Load(),
		Invalidations:      s.invals.Load(),
		DegradedReads:      s.degraded.Load(),
		FanoutWrites:       s.fanout.Load(),
		ReplicaRepairBytes: s.repair.Load(),
		EventsDropped:      s.evDropped.Load(),
	}
}

// Reset zeroes all counters. The zeroed values are folded into the
// lifetime totals first, so benchmarks can scope Snapshot to a timed
// phase without losing whole-run accounting (Lifetime).
func (s *Stats) Reset() {
	s.mu.Lock()
	s.base = s.base.Add(Snapshot{
		DesiredBytes:       s.desired.Swap(0),
		AccessedBytes:      s.accessed.Swap(0),
		IOOps:              s.ioOps.Swap(0),
		WireMsgs:           s.wireMsgs.Swap(0),
		ReqBytes:           s.reqBytes.Swap(0),
		ResentBytes:        s.resent.Swap(0),
		LockWaits:          s.lockWaits.Swap(0),
		LockWaitNs:         s.lockWaitNs.Swap(0),
		Regions:            s.regionsCPU.Swap(0),
		DiskOps:            s.diskOps.Swap(0),
		DiskOpsMerged:      s.diskMerged.Swap(0),
		DiskVecOps:         s.diskVec.Swap(0),
		DiskRMWOps:         s.rmwOps.Swap(0),
		DiskRMWGapBytes:    s.rmwGap.Swap(0),
		SeekBytes:          s.seekBytes.Swap(0),
		Retries:            s.retries.Swap(0),
		Timeouts:           s.timeouts.Swap(0),
		ReplayedBytes:      s.replayed.Swap(0),
		FailoverNs:         s.failoverNs.Swap(0),
		CacheHits:          s.cacheHits.Swap(0),
		CacheMisses:        s.cacheMiss.Swap(0),
		FlushOps:           s.flushOps.Swap(0),
		FlushBytes:         s.flushBytes.Swap(0),
		Invalidations:      s.invals.Swap(0),
		DegradedReads:      s.degraded.Swap(0),
		FanoutWrites:       s.fanout.Swap(0),
		ReplicaRepairBytes: s.repair.Swap(0),
		EventsDropped:      s.evDropped.Swap(0),
	})
	s.mu.Unlock()
}

// Lifetime reports the counters accumulated since construction,
// including everything zeroed out of Snapshot by Reset calls.
func (s *Stats) Lifetime() Snapshot {
	s.mu.Lock()
	base := s.base
	s.mu.Unlock()
	return base.Add(s.Snapshot())
}

// Add accumulates another snapshot (for aggregating clients).
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		DesiredBytes:       a.DesiredBytes + b.DesiredBytes,
		AccessedBytes:      a.AccessedBytes + b.AccessedBytes,
		IOOps:              a.IOOps + b.IOOps,
		WireMsgs:           a.WireMsgs + b.WireMsgs,
		ReqBytes:           a.ReqBytes + b.ReqBytes,
		ResentBytes:        a.ResentBytes + b.ResentBytes,
		LockWaits:          a.LockWaits + b.LockWaits,
		LockWaitNs:         a.LockWaitNs + b.LockWaitNs,
		Regions:            a.Regions + b.Regions,
		DiskOps:            a.DiskOps + b.DiskOps,
		DiskOpsMerged:      a.DiskOpsMerged + b.DiskOpsMerged,
		DiskVecOps:         a.DiskVecOps + b.DiskVecOps,
		DiskRMWOps:         a.DiskRMWOps + b.DiskRMWOps,
		DiskRMWGapBytes:    a.DiskRMWGapBytes + b.DiskRMWGapBytes,
		SeekBytes:          a.SeekBytes + b.SeekBytes,
		Retries:            a.Retries + b.Retries,
		Timeouts:           a.Timeouts + b.Timeouts,
		ReplayedBytes:      a.ReplayedBytes + b.ReplayedBytes,
		FailoverNs:         a.FailoverNs + b.FailoverNs,
		CacheHits:          a.CacheHits + b.CacheHits,
		CacheMisses:        a.CacheMisses + b.CacheMisses,
		FlushOps:           a.FlushOps + b.FlushOps,
		FlushBytes:         a.FlushBytes + b.FlushBytes,
		Invalidations:      a.Invalidations + b.Invalidations,
		DegradedReads:      a.DegradedReads + b.DegradedReads,
		FanoutWrites:       a.FanoutWrites + b.FanoutWrites,
		ReplicaRepairBytes: a.ReplicaRepairBytes + b.ReplicaRepairBytes,
		EventsDropped:      a.EventsDropped + b.EventsDropped,
	}
}

// Div divides every counter by n (averaging across clients).
func (a Snapshot) Div(n int64) Snapshot {
	if n == 0 {
		return a
	}
	return Snapshot{
		DesiredBytes:       a.DesiredBytes / n,
		AccessedBytes:      a.AccessedBytes / n,
		IOOps:              a.IOOps / n,
		WireMsgs:           a.WireMsgs / n,
		ReqBytes:           a.ReqBytes / n,
		ResentBytes:        a.ResentBytes / n,
		LockWaits:          a.LockWaits / n,
		LockWaitNs:         a.LockWaitNs / n,
		Regions:            a.Regions / n,
		DiskOps:            a.DiskOps / n,
		DiskOpsMerged:      a.DiskOpsMerged / n,
		DiskVecOps:         a.DiskVecOps / n,
		DiskRMWOps:         a.DiskRMWOps / n,
		DiskRMWGapBytes:    a.DiskRMWGapBytes / n,
		SeekBytes:          a.SeekBytes / n,
		Retries:            a.Retries / n,
		Timeouts:           a.Timeouts / n,
		ReplayedBytes:      a.ReplayedBytes / n,
		FailoverNs:         a.FailoverNs / n,
		CacheHits:          a.CacheHits / n,
		CacheMisses:        a.CacheMisses / n,
		FlushOps:           a.FlushOps / n,
		FlushBytes:         a.FlushBytes / n,
		Invalidations:      a.Invalidations / n,
		DegradedReads:      a.DegradedReads / n,
		FanoutWrites:       a.FanoutWrites / n,
		ReplicaRepairBytes: a.ReplicaRepairBytes / n,
		EventsDropped:      a.EventsDropped / n,
	}
}

// MB formats a byte count the way the paper's tables do.
func MB(n int64) string {
	switch {
	case n == 0:
		return "—"
	case n < 1<<20:
		return fmt.Sprintf("%.2f KB", float64(n)/1024)
	default:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	}
}

// HitRatio reports cache hits as a fraction of cache-visible ops (0
// when the cache saw no traffic).
func (s Snapshot) HitRatio() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

func (s Snapshot) String() string {
	str := fmt.Sprintf("desired=%s accessed=%s ops=%d wire=%d req=%s resent=%s",
		MB(s.DesiredBytes), MB(s.AccessedBytes), s.IOOps, s.WireMsgs,
		MB(s.ReqBytes), MB(s.ResentBytes))
	// Subsystem counters print only when active, so seed-era workloads
	// keep their short table rows.
	if s.LockWaits != 0 || s.LockWaitNs != 0 {
		str += fmt.Sprintf(" lockwaits=%d lockwait=%s", s.LockWaits, time.Duration(s.LockWaitNs))
	}
	if s.DiskOps != 0 || s.DiskOpsMerged != 0 || s.SeekBytes != 0 {
		str += fmt.Sprintf(" diskops=%d merged=%d vec=%d seek=%s", s.DiskOps, s.DiskOpsMerged, s.DiskVecOps, MB(s.SeekBytes))
	}
	if s.DiskRMWOps != 0 {
		str += fmt.Sprintf(" rmw=%d rmwgap=%s", s.DiskRMWOps, MB(s.DiskRMWGapBytes))
	}
	if s.Retries != 0 || s.Timeouts != 0 || s.ReplayedBytes != 0 || s.FailoverNs != 0 {
		str += fmt.Sprintf(" retries=%d timeouts=%d replayed=%s failover=%s",
			s.Retries, s.Timeouts, MB(s.ReplayedBytes), time.Duration(s.FailoverNs))
	}
	if s.CacheHits != 0 || s.CacheMisses != 0 || s.FlushOps != 0 || s.Invalidations != 0 {
		str += fmt.Sprintf(" cachehits=%d misses=%d hitratio=%.0f%% flushes=%d flushed=%s inval=%d",
			s.CacheHits, s.CacheMisses, 100*s.HitRatio(), s.FlushOps, MB(s.FlushBytes), s.Invalidations)
	}
	if s.DegradedReads != 0 || s.FanoutWrites != 0 || s.ReplicaRepairBytes != 0 {
		str += fmt.Sprintf(" degraded=%d fanout=%d repaired=%s",
			s.DegradedReads, s.FanoutWrites, MB(s.ReplicaRepairBytes))
	}
	if s.EventsDropped != 0 {
		str += fmt.Sprintf(" evdropped=%d", s.EventsDropped)
	}
	return str
}
