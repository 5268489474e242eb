package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"tiga/internal/harness"
	"tiga/internal/metrics"
	"tiga/internal/protocol"
	"tiga/internal/trace"
)

// drainTail is how long harness.RunLoad keeps the simulator running after
// the measurement window closes, so in-window submissions can complete.
const drainTail = 2 * time.Second

// pass selects what one repetition adds to the plain timed run. The timed
// repetitions that feed the end-to-end metrics use the zero value.
type pass struct {
	// probe drains the simulator's queue from inside an event scheduled at
	// time 0, with Sim.Step, counting and timing events; it also samples the
	// safe-time watermarks in the middle of the window.
	probe bool
	// trace arms the txn-lifecycle span recorder (LoadSpec.Trace).
	trace bool
	// check arms the history recording the checkers need (LoadSpec.Check).
	check bool
	// chaos names a fault plan to schedule before the load starts.
	chaos string
}

// pointResult is one experiment point of one repetition, taken entirely from
// outside: the harness's RunResult, the deployment's public counters, and
// the Go runtime's clock and allocator statistics around the call.
type pointResult struct {
	proto string

	// Simulated outcome: a pure function of the seed.
	counters  metrics.Counters
	window    time.Duration
	p50       time.Duration // mean over the client regions of the region's median
	p99       time.Duration // of all commits in the window
	samples   int
	sent      int64 // simnet messages over the whole run
	rollbacks int64 // Tiga Case-3 revocations over the whole run
	queueP99  time.Duration
	readP50   time.Duration
	readP99   time.Duration
	waitP50   time.Duration
	versions  int // leader store of shard 0 at the end of the run
	keys      int
	allKeys   int // keys over every shard's leader store
	phase     metrics.PhaseLat

	// Host cost.
	setup    time.Duration // EnsureGen + harness.Build
	run      time.Duration // harness.RunLoad
	mallocs  uint64
	bytes    uint64
	liveHeap uint64 // HeapAlloc after a forced GC, deployment and result reachable

	// Probe pass only.
	events     int64
	drainStart time.Time
	drain      time.Duration
	safeLagMs  float64
}

// fingerprint renders every simulated quantity of the point. Two runs of the
// same seed must produce the same string: determinism is a correctness check.
func (p *pointResult) fingerprint() string {
	return fmt.Sprintf("%s %+v p50=%d p99=%d n=%d sent=%d rb=%d q99=%d r50=%d r99=%d w50=%d ver=%d keys=%d",
		p.proto, p.counters, p.p50, p.p99, p.samples, p.sent, p.rollbacks,
		p.queueP99, p.readP50, p.readP99, p.waitP50, p.versions, p.allKeys)
}

// runPoint builds one deployment and drives its load, calling what
// harness.RunSpecs calls for one point — EnsureGen, Build, ApplyPlan, RunLoad
// — directly, so that the boundary between set-up and the measured run is
// the benchmark's own and nothing outlives the point (RunSpecs' parked pool
// worker keeps its last batch, results and deployments included, reachable
// until the next call). inspect, when non-nil, sees the result before it is
// dropped.
func runPoint(pt point, o pass, sp *spanLog, parent int,
	inspect func(*harness.RunResult)) pointResult {

	pr := pointResult{proto: pt.spec.Protocol}
	spec, load := pt.spec, pt.load
	load.Check = o.check
	if o.trace {
		load.Trace = &trace.Config{Seed: load.Seed}
	}
	var m0, m1, m2 runtime.MemStats

	begin := time.Now()
	if err := spec.EnsureGen(); err != nil {
		panic(err)
	}
	d := harness.Build(spec)
	built := time.Now()

	if o.chaos != "" {
		harness.ApplyPlan(d, spec, o.chaos)
	}
	if o.probe {
		installProbe(d, load.Warmup+load.Duration+drainTail, load.Warmup+load.Duration/2, &pr)
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	started := time.Now()
	res := harness.RunLoad(d, spec.Gen, load)
	end := time.Now()
	runtime.ReadMemStats(&m1)

	pr.setup = built.Sub(begin)
	pr.run = end.Sub(started)
	pr.mallocs = m1.Mallocs - m0.Mallocs
	pr.bytes = m1.TotalAlloc - m0.TotalAlloc
	sp.add("harness.Build "+pr.proto, parent, begin, built)
	runSpan := sp.add("harness.RunLoad "+pr.proto, parent, started, end)
	if o.probe {
		sp.add("simnet.Step drain "+pr.proto, runSpan, pr.drainStart, pr.drainStart.Add(pr.drain))
	}

	runtime.GC()
	runtime.ReadMemStats(&m2)
	pr.liveHeap = m2.HeapAlloc

	run := res.Run
	pr.counters = run.Counters
	pr.window = run.End - run.Start
	pr.p50, pr.p99, pr.samples = regionMedian(run), run.Lat.Percentile(99), run.Lat.Count()
	pr.queueP99 = run.QueueLat.Percentile(99)
	pr.readP50, pr.readP99 = run.ReadLat.Percentile(50), run.ReadLat.Percentile(99)
	pr.waitP50 = run.LocalWait.Percentile(50)
	pr.phase = run.Phase
	pr.sent = d.Net.Sent
	if rr, ok := d.Sys.(protocol.RollbackReporter); ok {
		pr.rollbacks = rr.TotalRollbacks()
	}
	if c, ok := d.Sys.(protocol.Checkable); ok {
		st := c.LeaderStore(0)
		pr.versions, pr.keys = st.Versions(), st.Len()
		for s := 0; s < spec.Shards; s++ {
			pr.allKeys += c.LeaderStore(s).Len()
		}
	}
	if inspect != nil {
		inspect(res)
	}
	runtime.KeepAlive(res)
	return pr
}

// regionMedian returns the mean over the client regions of each region's
// median commit latency. The whole-run median is not used: half the
// coordinators sit near the leaders and half far, so it lies on the jump
// between the two groups and flips from one to the other (±6 %) on a change
// that moves no transaction by 1 %. (The tail is the opposite case: the
// whole-run p99 is steady, while a region's own p99 sits on the edge of
// TPC-C's 1 % of restarted chains.)
func regionMedian(run *metrics.Run) time.Duration {
	if len(run.ByRegion) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range run.ByRegion {
		sum += l.Percentile(50)
	}
	return sum / time.Duration(len(run.ByRegion))
}

// installProbe schedules the event-counting drain. The probe event is the
// first thing RunLoad's own Sim.Run pops; from inside it the probe steps the
// simulator itself until a sentinel placed just past RunLoad's horizon fires,
// so the events run in exactly the order Sim.Run would have run them. The
// probe consumes no simulator randomness; the caller asserts that the pass's
// simulated outcome equals the timed run's.
func installProbe(d *harness.Deployment, until, mid time.Duration, pr *pointResult) {
	stop := false
	d.Sim.At(until+1, func() { stop = true })
	d.Sim.At(0, func() {
		pr.drainStart = time.Now()
		var n int64
		for !stop && d.Sim.Step() {
			n++
		}
		pr.drain = time.Since(pr.drainStart)
		pr.events = n - 1 // the sentinel is the benchmark's, not the run's
	})
	d.Sim.At(mid, func() {
		s, ok := d.Sys.(protocol.SnapshotReadable)
		if !ok {
			return
		}
		var lags []float64
		for _, w := range s.SafeTimes() {
			if w > 0 { // zero: the watermark machinery is off (local-reads knob)
				lags = append(lags, float64(d.Sim.Now()-w)/float64(time.Millisecond))
			}
		}
		if len(lags) > 0 {
			pr.safeLagMs = median(lags)
		}
	})
}

// repResult is one repetition of a workload: every point, in order.
type repResult struct{ points []pointResult }

// runRep runs every point of the workload once, each on a deployment of its
// own that is dropped (and collected) before the next is built.
func runRep(points []point, o pass, sp *spanLog, name string,
	inspect func(i int, res *harness.RunResult)) repResult {

	start := time.Now()
	id := sp.add(name, -1, start, start)
	var rep repResult
	for i, pt := range points {
		var in func(*harness.RunResult)
		if inspect != nil {
			i := i
			in = func(res *harness.RunResult) { inspect(i, res) }
		}
		rep.points = append(rep.points, runPoint(pt, o, sp, id, in))
		runtime.GC()
	}
	sp.end(id, time.Now())
	return rep
}

func (r repResult) fingerprint() string {
	var b strings.Builder
	for i := range r.points {
		b.WriteString(r.points[i].fingerprint())
		b.WriteByte('\n')
	}
	return b.String()
}

func (r repResult) sum(f func(*pointResult) float64) float64 {
	var s float64
	for i := range r.points {
		s += f(&r.points[i])
	}
	return s
}

// median is the median over the points: on sweep-nine, over the protocols.
// The mean would be set by the three protocols whose tail is a retry
// back-off (OCC+Paxos, Tapir, 2PL+Paxos: p99 of 1–2 s, ±10 % from one load
// seed to the next); the median protocol's latency is steady.
func (r repResult) median(f func(*pointResult) float64) float64 {
	xs := make([]float64, len(r.points))
	for i := range r.points {
		xs[i] = f(&r.points[i])
	}
	return median(xs)
}

func (r repResult) max(f func(*pointResult) float64) float64 {
	m := math.Inf(-1)
	for i := range r.points {
		m = math.Max(m, f(&r.points[i]))
	}
	return m
}

func (r repResult) committed() float64 {
	return r.sum(func(p *pointResult) float64 { return float64(p.counters.Committed) })
}

func (r repResult) submitted() float64 {
	return r.sum(func(p *pointResult) float64 { return float64(p.counters.Submitted) })
}

func (r repResult) runNs() float64 {
	return r.sum(func(p *pointResult) float64 { return float64(p.run) })
}

// find returns the point of the named protocol, or nil.
func (r repResult) find(proto string) *pointResult {
	for i := range r.points {
		if r.points[i].proto == proto {
			return &r.points[i]
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndOf derives the nine end-to-end metrics from the timed repetitions.
// Simulated metrics are identical on every repetition (checked by the
// caller) and read off the first; host metrics are the median over the
// repetitions, and each carries the repetitions' spread (see spread).
func endToEndOf(reps []repResult, extraSetups []float64) *metricSet {
	r0 := reps[0]
	window := r0.points[0].window.Seconds()
	out := newMetricSet(endToEnd)
	out.set("sim_thpt_tps", r0.committed()/window)
	out.set("sim_lat_p50_ms", r0.median(func(p *pointResult) float64 { return ms(p.p50) }))
	out.set("sim_lat_p99_ms", r0.median(func(p *pointResult) float64 { return ms(p.p99) }))
	out.set("sim_commit_pct", 100*r0.committed()/r0.submitted())
	host := func(name string, f func(repResult) float64) {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		out.setSpread(name, median(xs), spread(xs))
	}
	host("host_us_per_txn", func(r repResult) float64 { return r.runNs() / 1e3 / r.committed() })
	host("host_allocs_per_txn", func(r repResult) float64 {
		return r.sum(func(p *pointResult) float64 { return float64(p.mallocs) }) / r.committed()
	})
	host("host_bytes_per_txn", func(r repResult) float64 {
		return r.sum(func(p *pointResult) float64 { return float64(p.bytes) }) / r.committed()
	})
	host("host_live_heap_mb", func(r repResult) float64 {
		return r.max(func(p *pointResult) float64 { return float64(p.liveHeap) }) / (1 << 20)
	})
	setups := append([]float64(nil), extraSetups...)
	for _, r := range reps {
		setups = append(setups, r.sum(func(p *pointResult) float64 { return p.setup.Seconds() }))
	}
	out.setSpread("setup_s", median(setups), spread(setups))
	return out
}

// setupOnly builds every point's deployment the way a repetition does
// (EnsureGen + harness.Build) without running it, and returns the seconds it
// took. Each deployment is dropped and collected before the next is built.
func setupOnly(points []point) float64 {
	var total time.Duration
	for i := range points {
		spec := points[i].spec
		start := time.Now()
		if err := spec.EnsureGen(); err != nil {
			panic(err)
		}
		d := harness.Build(spec)
		total += time.Since(start)
		runtime.KeepAlive(d)
		d = nil
		runtime.GC()
	}
	return total.Seconds()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and the third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles(xs, n=4)
// takes them (the benchmark driver's measure of a metric's steadiness). With
// three values that is (max − min)/median; with the seven of setup_s it
// leaves out the lowest and the highest, so the first, cold build does not
// decide it.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64((n+1)*k) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}
