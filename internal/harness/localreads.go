package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/report"
)

// This file holds the local-snapshot-read experiment: read-only transactions
// served at 0 WRTT from the nearest replica of each shard, gated by
// per-replica safe-time watermarks (protocol.SnapshotReadable). The
// experiment contrasts the coordinator commit path against the local path
// across a read-staleness axis — staleness 0 is a strong read that waits out
// the replica's watermark lag; positive staleness trades bounded-stale data
// for near-zero SAFETIME waits — and reports each protocol's watermark lag
// per replica, which is the structural story: Tiga's leader watermark tracks
// its synchronized clock (lag ≈ queued headroom), while a 2PC/Paxos leader
// holds its watermark below every in-flight prepare (lag ≈ the prepare
// window) and followers everywhere trail by replication delay. A chaos-armed
// variant runs the same load through a WAN partition and validates with the
// snapshot-read checker that partitioned replicas delay reads but never
// serve a wrong version.

// localReadStalenesses is the experiment's staleness axis: strong reads,
// one jitter-scale bound, and one replication-scale bound.
var localReadStalenesses = []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond}

// localReadSpec prepares one cell's deployment: the classic WAN, YCSB-T
// (95% read-only transactions, moderate skew), and — on the local path —
// the protocol's "local-reads" knob plus the cell's staleness bound.
func (o Options) localReadSpec(proto string, staleness time.Duration, local bool) ClusterSpec {
	spec := ClusterSpec{
		Protocol: proto, Topology: o.classicTopology().Name,
		Workload: "ycsbt", WorkloadKeys: o.keys(),
		WorkloadParams: map[string]any{"skew": 0.7, "read-ratio": 0.95},
		Shards:         3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 2, Seed: o.Seed,
		CostScale: CPUScale, Knobs: copyKnobs(o.Knobs),
	}
	if local {
		spec.setKnobDefault(proto, "local-reads", true)
		spec.setKnobDefault(proto, "read-staleness", staleness)
	}
	return spec
}

func (o Options) localReadRate() float64 {
	if o.Quick {
		return 250
	}
	return 400
}

// snapshotProtocols filters the sweep's protocol list down to systems that
// implement protocol.SnapshotReadable, returning the excluded names for the
// report note.
func (o Options) snapshotProtocols() (in, out []string, remark string) {
	names, remark := o.sweepProtocols()
	for _, p := range names {
		if probeCaps(p).snapshot {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	return in, out, remark
}

// lagCapture is one mid-run snapshot of every replica's watermark, taken by
// a Setup-scheduled simulator callback so the lag is measured under load,
// not after the run has quiesced.
type lagCapture struct {
	at   time.Duration
	safe []time.Duration
}

// sampleAt returns a SpecRun.Setup hook that captures SafeTimes at the given
// simulated instant (the middle of the measurement window).
func (c *lagCapture) sampleAt(at time.Duration) func(d *Deployment) {
	return func(d *Deployment) {
		d.Sim.At(at, func() {
			if s, ok := d.Sys.(protocol.SnapshotReadable); ok {
				*c = lagCapture{at: d.Sim.Now(), safe: s.SafeTimes()}
			}
		})
	}
}

// lagStats folds one capture into min/median/max watermark lag across the
// deployment's replicas.
func (c lagCapture) lagStats() (min, med, max time.Duration) {
	if len(c.safe) == 0 {
		return 0, 0, 0
	}
	lags := make([]time.Duration, len(c.safe))
	for i, w := range c.safe {
		lags[i] = c.at - w
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return lags[0], lags[len(lags)/2], lags[len(lags)-1]
}

// snapReadStatus validates a run's local-read observations against its
// committed write history.
func snapReadStatus(res *RunResult) string {
	if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
		return "FAIL: " + err.Error()
	}
	return fmt.Sprintf("ok (%d local reads, %d read obs, %d writes)",
		res.Run.Counters.LocalReads, len(res.SnapReads), len(res.Writes))
}

// LocalReads sweeps every SnapshotReadable protocol across the read path
// (coordinator baseline vs nearest-replica local) and the staleness axis,
// reports each protocol's per-replica watermark lag sampled under load, and
// re-runs the local path through a WAN partition with the snapshot-read
// checker armed.
func LocalReads(o Options) *report.Report {
	const plan = "wan-partition"
	rep := report.New("localreads")
	names, excluded, remark := o.snapshotProtocols()
	if remark != "" {
		rep.AddNote(remark)
	}
	rate := o.localReadRate()
	rep.Add(&report.Table{
		ID: "localreads-banner", Gap: true,
		Title: fmt.Sprintf("Local snapshot reads — %d protocols, YCSB-T 95%% reads skew 0.7, %v/coord",
			len(names), rate),
	})
	if len(excluded) > 0 {
		rep.AddNote(fmt.Sprintf("(excluded by design — no safe-time watermarks: %s)",
			strings.Join(excluded, ", ")))
	}
	if len(names) == 0 {
		return rep
	}
	topo := o.classicTopology().Name
	warm, dur := o.durations()

	paths := rep.Add(&report.Table{
		ID: "localreads/paths", Gap: true,
		Title: "[read path × staleness] coordinator commit path vs nearest-replica snapshot reads",
		Columns: []report.Column{
			colProtocol,
			report.Col("path", "path", report.String, report.None, 6).AlignLeft(),
			report.Col("staleness", "staleness", report.Duration, report.Nanos, 10),
			colThpt, colCommit,
			report.Col("readp50", "read p50", report.Duration, report.Nanos, 12),
			report.Col("readp90", "read p90", report.Duration, report.Nanos, 12),
			report.Col("waitp50", "wait p50", report.Duration, report.Nanos, 12),
			report.Col("local", "Local", report.Float, report.None, 9).WithPrec(0),
		},
	})
	o.stamp(paths, topo, "ycsbt",
		"rate", fmt.Sprintf("%v", rate), "read-ratio", "0.95", "skew", "0.7",
		"clock", clocks.ModelChrony.String())
	lagTab := rep.Add(&report.Table{
		ID: "localreads/watermark-lag", Gap: true,
		Title: "[watermark lag] per-replica safe-time lag behind the sampling instant, mid-run under load",
		Columns: []report.Column{
			colProtocol,
			report.Col("min", "lag min", report.Duration, report.Nanos, 12),
			report.Col("med", "lag median", report.Duration, report.Nanos, 12),
			report.Col("max", "lag max", report.Duration, report.Nanos, 12),
		},
	})
	o.stamp(lagTab, topo, "ycsbt", "sampled-at", fmt.Sprintf("%v", warm+dur/2))
	lagTab.Note("(leader lag ≈ clock headroom for Tiga vs the in-flight prepare window for 2PC/Paxos; max is the slowest follower)")
	chaosTab, addPhases := o.phaseTable(rep, "localreads/"+plan,
		fmt.Sprintf("[chaos] local reads through %s, %v runs — partitioned replicas delay reads, never lie",
			plan, o.failureRunLength()),
		topo, "ycsbt", plan)

	// One baseline point plus one local point per staleness, per protocol;
	// the staleness-0 local point also samples watermark lag mid-run. The
	// chaos-armed points ride in the same batch.
	var sw sweep
	var checks, chaosChecks []string
	for _, p := range names {
		pathCell := func(path string, staleness time.Duration) {
			local := path == "local"
			cell := o.point(o.localReadSpec(p, staleness, local), rate, 21+int64(len(sw.runs)))
			cell.Load.Check = true
			cell.Load.LocalReads = local
			sampleLag := local && staleness == 0
			var lag lagCapture
			if sampleLag {
				cell.Setup = lag.sampleAt(warm + dur/2)
			}
			sw.add(cell, func(res *RunResult) {
				run := res.Run
				paths.AddRow(report.Str(p), report.Str(path), report.Dur(staleness),
					report.Num(run.Throughput()), report.Num(run.Counters.CommitRate()),
					report.Dur(run.ReadLat.Percentile(50)), report.Dur(run.ReadLat.Percentile(90)),
					report.Dur(run.LocalWait.Percentile(50)), report.Num(float64(run.Counters.LocalReads)))
				if local {
					checks = append(checks, fmt.Sprintf("%s@%v: %s", p, staleness, snapReadStatus(res)))
				}
				if sampleLag {
					min, med, max := lag.lagStats()
					lagTab.AddRow(report.Str(p), report.Dur(min), report.Dur(med), report.Dur(max))
				}
			})
		}
		pathCell("coord", 0)
		for _, st := range localReadStalenesses {
			pathCell("local", st)
		}
	}
	sw.then(func() { paths.Note("snapshot-read check — %s", strings.Join(checks, "; ")) })
	for i, p := range names {
		cell := o.faultRun(o.localReadSpec(p, 0, true), plan, OpPoint{Outstanding: 400}, LoadSpec{
			RatePerCoord: rate, Seed: o.Seed + 61 + int64(i), Check: true, LocalReads: true,
		})
		sw.add(cell, func(res *RunResult) {
			addPhases(p, res)
			chaosChecks = append(chaosChecks, fmt.Sprintf("%s: %s, %d retries",
				p, snapReadStatus(res), res.Run.Counters.Retries))
		})
	}
	sw.then(func() {
		chaosTab.Note("snapshot-read check under partition — %s", strings.Join(chaosChecks, "; "))
	})
	sw.run(o.Workers)
	return rep
}
