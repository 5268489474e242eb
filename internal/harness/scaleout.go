package harness

import (
	"fmt"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/report"
)

// This file holds the scale-out serving experiment: a shards × replication
// sweep over a fixed million-key dataset, driven open-loop (Poisson arrivals,
// LoadSpec.Arrival) at an offered rate that grows linearly with the shard
// count. Closed-loop saturation hides scale-out losses — a slow cell simply
// issues less — so this sweep keeps offering the linear-scaling load and lets
// each coordinator's admission gate shed what the cell cannot absorb. The
// figure of merit is scale-out efficiency: the throughput ratio over the
// smallest deployment, divided by the shard-count ratio (1.0 = perfectly
// linear). Queue wait is reported separately from service latency, so a cell
// that holds p99 by queueing (rather than by serving faster) is visible.

// scaleoutShards is the sweep's shard axis; the paper's WAN deploys 3 shards,
// so 3 is the efficiency baseline.
func (o Options) scaleoutShards() []int {
	if o.Quick {
		return []int{3, 6}
	}
	return []int{3, 6, 9}
}

// scaleoutReplication is the fault-tolerance axis (replicas per shard =
// 2F+1).
func (o Options) scaleoutReplication() []int {
	if o.Quick {
		return []int{1}
	}
	return []int{1, 2}
}

// scaleoutTotalKeys is the dataset size the sweep re-shards. Unlike the other
// experiments (where Options.Keys is a per-shard keyspace), scale-out fixes
// the TOTAL keyspace so every cell serves the same data: growing the shard
// count shrinks each shard's slice, which is what scaling out means. -keys
// overrides the total (CI smoke uses a reduced dataset).
func (o Options) scaleoutTotalKeys() int {
	if o.Keys > 0 {
		return o.Keys
	}
	if o.Quick {
		return 120_000
	}
	return 1_200_000
}

// admissionProtocols filters the sweep down to protocols whose schema
// declares the admission-control knobs (admit-cap). Open-loop overload
// without an admission gate is congestion collapse by construction — the
// backlog grows without bound and the measurement (and the simulator heap)
// with it — so gate-less protocols are excluded by design, not by omission.
func (o Options) admissionProtocols() (in, out []string, remark string) {
	names, remark := o.sweepProtocols()
	for _, p := range names {
		if _, found := must(protocol.Lookup(p)).Knobs.Find("admit-cap"); found {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	return in, out, remark
}

// ScaleOut sweeps shards × replication over a fixed total keyspace per
// admission-capable protocol, drives each cell open-loop at a linearly-scaled
// Poisson rate, and reports throughput, service/queue latency, shed rate, and
// scale-out efficiency against the 3-shard baseline.
func ScaleOut(o Options) *report.Report {
	rep := report.New("scaleout")
	names, excluded, remark := o.admissionProtocols()
	if remark != "" {
		rep.AddNote(remark)
	}
	topo := o.classicTopology()
	shards := o.scaleoutShards()
	totalKeys := o.scaleoutTotalKeys()
	rep.Add(&report.Table{
		ID: "scaleout-banner", Gap: true,
		Title: fmt.Sprintf("Scale-out serving — %d protocols, MicroBench %d keys total, open-loop Poisson arrivals",
			len(names), totalKeys),
	})
	if len(excluded) > 0 {
		rep.AddNote(fmt.Sprintf("(excluded by design — no admission gate, open-loop overload would collapse unbounded: %s)",
			strings.Join(excluded, ", ")))
	}
	if len(names) == 0 {
		return rep
	}
	tab := rep.Add(&report.Table{
		ID: "scaleout/cells", Gap: true,
		Title: "[shards × replication] open-loop serving over a fixed keyspace; efficiency vs linear scaling of the 3-shard cell",
		Columns: []report.Column{
			colProtocol,
			report.Col("shards", "shards", report.Float, report.None, 7).WithPrec(0),
			report.Col("f", "F", report.Float, report.None, 3).WithPrec(0),
			report.Col("keys", "keys/shard", report.Float, report.None, 11).WithPrec(0),
			report.Col("offered", "Offered(txn/s)", report.Float, report.Rate, 15),
			colThpt, colCommit,
			report.Col("shed", "Shed%", report.Float, report.Percent, 7).WithPrec(1),
			report.Col("p99", "svc p99", report.Duration, report.Nanos, 12),
			report.Col("qp99", "queue p99", report.Duration, report.Nanos, 12),
			report.Col("eff", "Eff", report.Float, report.None, 6).WithPrec(2),
		},
	})
	o.stamp(tab, topo.Name, "micro",
		"arrival", "poisson", "total-keys", fmt.Sprintf("%d", totalKeys),
		"clock", clocks.ModelChrony.String())

	var sw sweep
	for _, p := range names {
		for _, f := range o.scaleoutReplication() {
			// Efficiency baseline: the same protocol × F at the smallest
			// shard count, which the shard axis visits first.
			var baseThpt float64
			for _, n := range shards {
				spec := ClusterSpec{
					Protocol: p, Topology: topo.Name,
					Workload: "micro", WorkloadKeys: totalKeys / n,
					WorkloadParams: map[string]any{"skew": 0.5},
					Shards:         n, F: f, Clock: clocks.ModelChrony,
					CoordsPerRegion: 2, CoordsRemote: 2, Seed: o.Seed,
					CostScale: CPUScale, Knobs: copyKnobs(o.Knobs),
				}
				// Same overload hygiene as the saturation experiments: stretch Tiga's
				// retry timer so driving past capacity measures the protocol, not a
				// retransmission storm.
				spec.setKnobDefault("Tiga", "retry-timeout", 10*time.Second)
				load := o.window(101 + int64(len(sw.runs)))
				load.Arrival = "poisson"
				// The operating point of the 3-shard baseline cell: the
				// protocol's recorded saturation rate and outstanding cap when
				// given (-op), else the shared micro saturation point. Open
				// loop ignores the cap as such; it sizes the admission gate
				// (admit-cap, queue as deep as the cap), which is the
				// experiment's backpressure and so experiment-imposed
				// (setKnobDefault still lets an explicit -set win). Both the
				// offered load and the gate scale with the shard count: the
				// gate sizes to the capacity the cell is provisioned for, so it
				// sheds overload rather than becoming the bottleneck itself (a
				// fixed cap would pin every cell to the same Little's-law
				// ceiling and hide the scaling being measured).
				cell := o.cell(spec, OpPoint{SaturationRate: 3000, Outstanding: 300}, load)
				cell.Load.RatePerCoord = cell.Load.RatePerCoord * float64(n) / float64(shards[0])
				gate := cell.Load.Outstanding * n / shards[0]
				cell.Spec.setKnobDefault(p, "admit-cap", gate)
				cell.Spec.setKnobDefault(p, "admit-queue", gate)
				offered := cell.Load.RatePerCoord * float64(len(cell.Spec.CoordRegionList()))
				sw.add(cell, func(res *RunResult) {
					run := res.Run
					if n == shards[0] {
						baseThpt = run.Throughput()
					}
					shedPct := 0.0
					if run.Counters.Submitted > 0 {
						shedPct = 100 * float64(run.Counters.Shed) / float64(run.Counters.Submitted)
					}
					eff := 0.0
					if baseThpt > 0 {
						eff = (run.Throughput() / baseThpt) / (float64(n) / float64(shards[0]))
					}
					// Commit% is over admitted arrivals: shedding is the gate doing its
					// job and is reported on its own axis, not as protocol aborts.
					commit := 0.0
					if admitted := run.Counters.Submitted - run.Counters.Shed; admitted > 0 {
						commit = 100 * float64(run.Counters.Committed) / float64(admitted)
					}
					tab.AddRow(report.Str(p), report.Num(float64(n)), report.Num(float64(f)),
						report.Num(float64(totalKeys/n)), report.Num(offered),
						report.Num(run.Throughput()), report.Num(commit), report.Num(shedPct),
						report.Dur(run.Lat.Percentile(99)), report.Dur(run.QueueLat.Percentile(99)),
						report.Num(eff))
				})
			}
		}
	}
	tab.Note("(offered load scales linearly with shards; the admission gate — admit-cap/admit-queue at the protocol's outstanding point — sheds the excess, so Shed%% reads as headroom exhausted; svc p99 excludes queue wait)")
	sw.run(o.Workers)
	return rep
}
