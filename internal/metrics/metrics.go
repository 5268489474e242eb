// Package metrics collects the measurements reported in the paper's
// evaluation: throughput, commit rate, latency percentiles (p50/p90), and
// per-second time series for the failure-recovery experiment (Fig 11).
package metrics

import (
	"fmt"
	"slices"
	"time"
)

// Latency accumulates latency samples and answers percentile queries.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Grow ensures capacity for n further samples, so a run that knows its
// expected commit count up front (open-loop rate × duration × coordinators)
// records every sample without reallocating the buffer.
func (l *Latency) Grow(n int) {
	if n <= 0 || cap(l.samples)-len(l.samples) >= n {
		return
	}
	grown := make([]time.Duration, len(l.samples), len(l.samples)+n)
	copy(grown, l.samples)
	l.samples = grown
}

// Percentile returns the p-th percentile (p in [0,100]); 0 with no samples.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		slices.Sort(l.samples)
		l.sorted = true
	}
	idx := int(p / 100 * float64(len(l.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Counters tracks outcome counts for one run.
type Counters struct {
	Submitted int64
	Committed int64
	Aborted   int64
	FastPath  int64
	SlowPath  int64
	Rollbacks int64 // Tiga Case-3 revocations
	Retries   int64
	// LocalReads counts read-only transactions served from a nearby
	// replica at their snapshot timestamp instead of via the coordinator
	// path. They are included in Committed.
	LocalReads int64
	// Shed counts transactions refused by a coordinator admission gate
	// under overload. They are included in Aborted.
	Shed int64
}

// CommitRate returns committed/submitted as a percentage.
func (c *Counters) CommitRate() float64 {
	if c.Submitted == 0 {
		return 0
	}
	return 100 * float64(c.Committed) / float64(c.Submitted)
}

// Run aggregates the metrics for one experiment run, optionally keeping
// separate latency recorders per region (Figs 7, 8, 12, 14).
type Run struct {
	Counters Counters
	Lat      Latency
	ByRegion map[string]*Latency
	Start    time.Duration
	End      time.Duration
	// ReadLat samples end-to-end latency of read-only transactions on
	// whichever path served them (coordinator or local), so the two paths
	// compare like for like.
	ReadLat Latency
	// LocalWait samples the SAFETIME delay local reads spent blocked
	// behind a lagging replica watermark (zero when served immediately).
	LocalWait Latency
	// QueueLat samples the admission-queue wait of committed transactions
	// in open-loop runs; Lat then holds service latency (queue excluded),
	// so the two decompose end-to-end time.
	QueueLat Latency
	// Phase accumulates the critical-path latency decomposition of traced
	// committed transactions (internal/trace bucket order: wrtt, queue,
	// headroom, lockval, repl, other). Zero unless the run was traced.
	Phase PhaseLat
}

// PhaseLat sums per-bucket critical-path time over committed transactions.
// The array is indexed by trace.Bucket; metrics stays taxonomy-agnostic (the
// breakdown experiment names the columns) so the dependency points from the
// trace layer to metrics, never back.
type PhaseLat struct {
	NS    [6]time.Duration
	Count int64
}

// Add accumulates one transaction's bucket breakdown.
func (p *PhaseLat) Add(bd [6]time.Duration) {
	for i, d := range bd {
		p.NS[i] += d
	}
	p.Count++
}

// Mean returns the average per-transaction time in bucket i.
func (p *PhaseLat) Mean(i int) time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.NS[i] / time.Duration(p.Count)
}

// NewRun returns an initialized Run.
func NewRun() *Run {
	return &Run{ByRegion: make(map[string]*Latency)}
}

// RecordCommit records a commit with the given latency, attributed to a
// region label. The first argument, the virtual time the commit was observed
// at, is not kept: a run that needs commit times tracks samples (harness).
func (r *Run) RecordCommit(_, lat time.Duration, region string, fastPath bool) {
	r.Counters.Committed++
	if fastPath {
		r.Counters.FastPath++
	} else {
		r.Counters.SlowPath++
	}
	r.Lat.Add(lat)
	rl := r.ByRegion[region]
	if rl == nil {
		rl = &Latency{}
		r.ByRegion[region] = rl
	}
	rl.Add(lat)
}

// RecordLocalRead records a read-only transaction served from a nearby
// replica: it counts as a commit (local-read bucket), samples the read-path
// latency, and tracks the SAFETIME wait separately.
func (r *Run) RecordLocalRead(lat, waited time.Duration, region string) {
	r.RecordCommit(0, lat, region, true)
	r.Counters.LocalReads++
	r.ReadLat.Add(lat)
	r.LocalWait.Add(waited)
}

// Throughput returns committed transactions per second over the run window.
func (r *Run) Throughput() float64 {
	dur := (r.End - r.Start).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(r.Counters.Committed) / dur
}

// String summarizes the run with the figures the experiments actually
// report: the tail percentile (p99) alongside p50/p90, and the serving-layer
// outcomes (shed, local reads) next to the path split.
func (r *Run) String() string {
	return fmt.Sprintf("thpt=%.0f txn/s commit=%.1f%% p50=%s p90=%s p99=%s fast=%d slow=%d rollback=%d shed=%d local=%d",
		r.Throughput(), r.Counters.CommitRate(), r.Lat.Percentile(50), r.Lat.Percentile(90),
		r.Lat.Percentile(99), r.Counters.FastPath, r.Counters.SlowPath, r.Counters.Rollbacks,
		r.Counters.Shed, r.Counters.LocalReads)
}
