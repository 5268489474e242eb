package harness

import (
	"fmt"

	"tiga/internal/clocks"
	"tiga/internal/report"
	"tiga/internal/simnet"
)

// This file holds the scenario-matrix experiment: the paper evaluates one
// WAN (geo4) and two workloads, but protocol rankings are known to flip as
// the WAN geometry, link quality, and mix change. With topologies and
// workloads lifted into registries, the matrix sweeps protocol × topology ×
// workload and reports one row per cell.
//
// Every cell defaults to one shared moderate rate, which under-drives the
// fast designs and over-drives the slow ones; the Options.Ops machinery
// (keyed protocol or protocol × topology, e.g. -op Tiga@us-eu3=2000) drives
// a cell at its own saturation operating point instead, so the matrix can
// report saturation rather than a compromise rate. Cells whose driving rate
// deviates from the shared rate are called out in a per-section note and in
// the table metadata.

// scenarioTopologies resolves the matrix's topology axis, panicking on
// unregistered names (the CLI validates first and exits 2).
func (o Options) scenarioTopologies() []string {
	o.mustValidate()
	if len(o.Topologies) == 0 {
		return simnet.TopologyNames()
	}
	return o.Topologies
}

// scenarioWorkloads resolves the matrix's workload axis. The default mix is
// MicroBench (the anchor against the classic experiments) plus the two
// scenario-layer generators; tpcc and uniform stay selectable via
// Options.Workloads / -workload.
func (o Options) scenarioWorkloads() []string {
	o.mustValidate()
	if len(o.Workloads) == 0 {
		return []string{"micro", "ycsbt", "hotwrite"}
	}
	return o.Workloads
}

// scenarioSpec prepares one matrix cell's deployment spec. The generator is
// resolved by name through the workload registry (EnsureGen, on the sweep
// driver), so each cell owns a private generator.
func (o Options) scenarioSpec(proto, topo, wl string) ClusterSpec {
	return ClusterSpec{
		Protocol: proto, Topology: topo, Workload: wl, WorkloadKeys: o.keys(),
		Shards: 3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 2, Seed: o.Seed,
		CostScale: CPUScale, Knobs: copyKnobs(o.Knobs),
	}
}

func (o Options) scenarioRate() float64 {
	if o.Quick {
		return 250
	}
	return 400
}

// ScenarioMatrix sweeps every selected protocol across the selected
// topologies and workloads, reporting per-cell throughput, commit rate, and
// p50/p99 latency. Each cell is driven at its resolved operating point — the
// protocol × topology key wins over the protocol-wide key, and the shared
// moderate rate is the fallback. All cells are independent points on the
// shared sweep driver, so the matrix parallelizes like any other experiment
// and is byte-identical across worker counts.
func ScenarioMatrix(o Options) *report.Report {
	rep := report.New("scenarios")
	topos := o.scenarioTopologies()
	wls := o.scenarioWorkloads()
	names, remark := o.sweepProtocols()
	if remark != "" {
		rep.AddNote(remark)
	}
	rate := o.scenarioRate()
	rep.Add(&report.Table{
		ID: "scenarios-banner", Gap: true,
		Title: fmt.Sprintf("Scenario matrix — %d protocols × %d topologies × %d workloads, %v/coord",
			len(names), len(topos), len(wls), rate),
	})
	var sw sweep
	for _, topo := range topos {
		for _, wl := range wls {
			tab := rep.Add(&report.Table{
				ID: fmt.Sprintf("scenarios/%s/%s", topo, wl), Gap: true,
				Title:   fmt.Sprintf("[topology=%s workload=%s]", topo, wl),
				Columns: []report.Column{colProtocol, colThpt, colCommit, latCol("p50"), latCol("p99")},
			})
			o.stamp(tab, topo, wl, "rate", fmt.Sprintf("%v", rate))
			var offShared []string
			for _, p := range names {
				cell := o.cell(o.scenarioSpec(p, topo, wl), OpPoint{SaturationRate: rate, Outstanding: 400}, o.window(12))
				if cell.Load.RatePerCoord != rate {
					offShared = append(offShared, fmt.Sprintf("%s=%v/coord", p, cell.Load.RatePerCoord))
				}
				sw.add(cell, func(res *RunResult) {
					run := res.Run
					tab.AddRow(report.Str(p), report.Num(run.Throughput()), report.Num(run.Counters.CommitRate()),
						report.Dur(run.Lat.Percentile(50)), report.Dur(run.Lat.Percentile(99)))
				})
			}
			noteCellRates(tab, offShared)
		}
	}
	sw.run(o.Workers)
	return rep
}
