package harness

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/metrics"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/simnet"
	"tiga/internal/tpcc"
	"tiga/internal/workload"
)

// This file regenerates every table and figure of the paper's evaluation
// (§5). The simulated testbed stands in for Google Cloud, so absolute
// throughput is scaled: per-operation CPU costs are multiplied by CPUScale,
// which divides all throughput numbers by roughly the same factor while
// preserving the protocols' relative ordering, the latency structure, and
// the crossover points. EXPERIMENTS.md records the paper-vs-measured values.
//
// Every experiment BUILDS a report.Report — named tables of typed cells —
// instead of printing: the text renderer reproduces the paper's presentation
// byte-for-byte on defaults (pinned by the golden tests), while the JSON and
// CSV emitters turn the same model into the machine-readable artifacts CI
// archives. Region labels come from the deployment's topology, never from
// literal geo4 names, so `-topo us-eu3 -exp fig7` reads naturally.
//
// An experiment is one function: it lays out its tables, declares every cell
// of its sweep together with the sink that turns the cell's result into rows
// (sweep.go), and runs the sweep. Sweeps enumerate the protocol registry
// (protocol.Names()) and execute their independent cells on the parallel
// driver (RunSpecs): every cell owns a private simulator, so the output is
// identical to a serial run while the wall clock scales down with the core
// count. The report's typed cells are the only form a result is held in.
const CPUScale = 10

// Options shapes an experiment run.
type Options struct {
	Seed int64
	// Quick shrinks sweeps and durations so the full suite runs in minutes
	// (used by the benchmark harness); the CLI default is a fuller run.
	Quick bool
	// Keys per shard for MicroBench (paper: 1M; default here 100k to bound
	// simulator memory across 9 replicated copies).
	Keys int
	// Workers caps the parallel sweep driver's pool (0 = all cores,
	// 1 = serial). The Keys memory bound holds per deployment; peak sweep
	// memory is roughly Workers times that, so cap the pool on machines
	// with many cores and little RAM.
	Workers int
	// Protocols restricts multi-protocol sweeps to a subset of
	// protocol.Names() (nil = every registered protocol).
	Protocols []string
	// Topologies selects the WAN(s): the classic experiments deploy on the
	// first entry (default: geo4, the paper's WAN), with region labels
	// resolved through the topology; the scenario matrix sweeps every entry
	// (nil = every registered topology).
	Topologies []string
	// Workloads restricts the scenario matrix's workload axis to a subset
	// of workload.Names() (nil = the default mix: micro plus the two
	// scenario-layer generators, ycsbt and hotwrite).
	Workloads []string
	// Plans restricts the chaos matrix's fault-plan axis to a subset of
	// chaos.Names() (nil = every registered plan).
	Plans []string
	// Knobs holds per-protocol knob overrides (protocol name -> knob name ->
	// value) applied to every spec the experiments construct. User overrides
	// win over experiment-imposed operating conditions (the saturation
	// retry-timeout stretch) but not over the parameters an experiment
	// exists to sweep (Fig 13's headroom, the ablation toggles).
	Knobs map[string]map[string]any
	// Ops overrides the driving operating point per protocol. The sweeps
	// otherwise share one saturation rate and outstanding cap across every
	// system, which under- or over-drives protocols whose capacity differs
	// by an order of magnitude (geo-distributed operating points are
	// inherently per-protocol). A key may also name a protocol × topology
	// pair ("Tiga@us-eu3"), which overlays the protocol-wide key on that
	// topology field by field (zero fields inherit) — the scenario matrix
	// uses this to drive each cell at its own saturation point.
	Ops map[string]OpPoint
}

// OpPoint is one protocol's driving operating point.
type OpPoint struct {
	// SaturationRate replaces the shared per-coordinator rate in the
	// maximum-throughput experiments (Tables 1 and 2) and in scenario-matrix
	// cells. 0 keeps the shared rate.
	SaturationRate float64
	// Outstanding replaces the shared in-flight cap per coordinator in
	// every experiment. 0 keeps the shared cap.
	Outstanding int
}

// copyKnobs deep-copies a knob override map so each spec owns its inner
// maps: experiments layer spec-specific knobs on top, and shared inner maps
// would leak one point's overrides into every other point of the sweep.
func copyKnobs(in map[string]map[string]any) map[string]map[string]any {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]map[string]any, len(in))
	for p, m := range in {
		mm := make(map[string]any, len(m))
		for k, v := range m {
			mm[k] = v
		}
		out[p] = mm
	}
	return out
}

func (o Options) keys() int {
	if o.Keys > 0 {
		return o.Keys
	}
	if o.Quick {
		return 20000
	}
	return 100000
}

func (o Options) durations() (warmup, dur time.Duration) {
	if o.Quick {
		return 400 * time.Millisecond, 1200 * time.Millisecond
	}
	return time.Second, 3 * time.Second
}

// classicTopology resolves the WAN the classic (paper) experiments deploy
// on: the first selected topology, defaulting to the paper's geo4. Region
// labels in titles, headers, and latency buckets all come from here, so a
// classic experiment on us-eu3 reports Virginia/Frankfurt instead of empty
// geo4 buckets.
func (o Options) classicTopology() *simnet.Topology {
	name := simnet.DefaultTopology
	if len(o.Topologies) > 0 {
		name = o.Topologies[0]
	}
	t, ok := simnet.LookupTopology(name)
	if !ok {
		panic(fmt.Sprintf("unknown topology %q (registered: %v)", name, simnet.TopologyNames()))
	}
	return t
}

// protocols returns the registered protocol names the sweeps enumerate, in
// the registry's canonical order, filtered by Options.Protocols.
func (o Options) protocols() []string {
	names := protocol.Names()
	if len(o.Protocols) == 0 {
		return names
	}
	keep := make(map[string]bool, len(o.Protocols))
	for _, p := range o.Protocols {
		keep[p] = true
	}
	var out []string
	for _, n := range names {
		if keep[n] {
			out = append(out, n)
		}
	}
	return out
}

// without filters the dropped names out of a protocol list.
func without(names []string, drop ...string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if !slices.Contains(drop, n) {
			out = append(out, n)
		}
	}
	return out
}

// sweepProtocols applies an experiment's by-design exclusions to the
// selected protocol list. The returned remark is non-empty exactly when
// nothing is left to run — e.g. -protocols Detock against a table that
// excludes Detock would otherwise render bare headers with no explanation;
// the experiment places it where the rows would have gone.
func (o Options) sweepProtocols(drop ...string) (names []string, remark string) {
	names = without(o.protocols(), drop...)
	if len(names) == 0 {
		remark = "(no rows: none of the selected protocols run in this experiment"
		if len(drop) > 0 {
			remark += "; excluded by design: " + strings.Join(drop, ", ")
		}
		remark += ")"
	}
	return names, remark
}

func (o Options) microSpec(protocol string, skew float64, rotated bool, clock clocks.Model) ClusterSpec {
	return ClusterSpec{
		Protocol: protocol, Topology: o.classicTopology().Name,
		Shards: 3, F: 1, Rotated: rotated, Clock: clock,
		CoordsPerRegion: 2, CoordsRemote: 2, Seed: o.Seed,
		Gen:       workload.NewMicroBench(3, o.keys(), skew),
		CostScale: CPUScale, Knobs: copyKnobs(o.Knobs),
	}
}

func (o Options) tpccSpec(protocol string) ClusterSpec {
	tg := tpcc.New(tpccConfig(o))
	return ClusterSpec{
		Protocol: protocol, Topology: o.classicTopology().Name,
		Shards: 6, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 2, CoordsRemote: 2, Seed: o.Seed, Gen: tg,
		CostScale: CPUScale, Knobs: copyKnobs(o.Knobs),
	}
}

// ---- report plumbing ----

// stamp records the self-describing metadata every data table carries into
// the JSON artifact: run seed, the WAN, the workload, experiment extras
// (protocol, clock, rates), and the user's knob / operating-point overrides.
func (o Options) stamp(t *report.Table, topo, workloadName string, kv ...string) *report.Table {
	t.SetMeta("seed", strconv.FormatInt(o.Seed, 10))
	t.SetMeta("topology", topo)
	if workloadName != "" {
		t.SetMeta("workload", workloadName)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		t.SetMeta(kv[i], kv[i+1])
	}
	if s := flattenKnobs(o.Knobs); s != "" {
		t.SetMeta("knobs", s)
	}
	if s := flattenOps(o.Ops); s != "" {
		t.SetMeta("ops", s)
	}
	return t
}

// flattenKnobs renders the user's knob overrides as one sorted
// "proto.knob=value" list for table metadata.
func flattenKnobs(knobs map[string]map[string]any) string {
	var parts []string
	for p, m := range knobs {
		for k, v := range m {
			parts = append(parts, fmt.Sprintf("%s.%s=%v", p, k, v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// flattenOps renders the operating-point overrides as one sorted
// "key=rate/outstanding" list for table metadata.
func flattenOps(ops map[string]OpPoint) string {
	var parts []string
	for k, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%v/%d", k, op.SaturationRate, op.Outstanding))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// noteCellRates calls out the cells of a table whose driving rate an
// operating point moved off the table's shared rate, as a note and in the
// table metadata.
func noteCellRates(t *report.Table, cells []string) {
	if len(cells) > 0 {
		t.Note("(per-cell operating points: %s)", strings.Join(cells, ", "))
		t.SetMeta("cell_rates", strings.Join(cells, ","))
	}
}

// The column families most tables share.
var (
	colProtocol = report.Col("protocol", "Protocol", report.String, report.None, 12).AlignLeft()
	colThpt     = report.Col("thpt", "Thpt(txn/s)", report.Float, report.Rate, 12)
	colCommit   = report.Col("commit", "Commit%", report.Float, report.Percent, 9).WithPrec(1)
)

// latCol is a latency-percentile column named after its header ("p50").
func latCol(name string) report.Column {
	return report.Col(name, name, report.Duration, report.Nanos, 12)
}

// regionP50Cols is the local / remote-coordinator-region median pair,
// headed by the topology's region codes (geo4: "SC p50", "HK p50").
func regionP50Cols(topo *simnet.Topology, width int) []report.Column {
	return []report.Column{
		report.Col("local_p50", topo.RegionCode(0)+" p50", report.Duration, report.Nanos, width),
		report.Col("remote_p50", topo.RegionCode(topo.RemoteCoordRegion)+" p50", report.Duration, report.Nanos, width),
	}
}

// regionP50 is the cell pair under regionP50Cols.
func regionP50(run *metrics.Run, topo *simnet.Topology) (local, remote report.Cell) {
	return report.Dur(regionLatency(run, topo.RegionName(0)).Percentile(50)),
		report.Dur(regionLatency(run, topo.RegionName(topo.RemoteCoordRegion)).Percentile(50))
}

func regionLatency(run *metrics.Run, region string) *metrics.Latency {
	if lat := run.ByRegion[region]; lat != nil {
		return lat
	}
	return &metrics.Latency{}
}

// sweepColumns is the shared six-column layout of the rate/skew sweeps.
func sweepColumns(xName, xHeader string, xUnit report.Unit) []report.Column {
	return []report.Column{
		colProtocol,
		report.Col(xName, xHeader, report.Float, xUnit, 10).WithPrec(2),
		colThpt, colCommit, latCol("p50"), latCol("p90"),
	}
}

// addSweepRow appends one sweep point — x is the rate or skew — with the
// latency percentiles of lat (all regions, or one region's bucket).
func addSweepRow(t *report.Table, protocol string, x float64, run *metrics.Run, lat *metrics.Latency) {
	t.AddRow(report.Str(protocol), report.Num(x), report.Num(run.Throughput()),
		report.Num(run.Counters.CommitRate()), report.Dur(lat.Percentile(50)), report.Dur(lat.Percentile(90)))
}

// Table1 reproduces Table 1: maximum throughput under MicroBench (skew 0.5)
// and TPC-C for every registered protocol.
func Table1(o Options) *report.Report {
	rep := report.New("table1")
	tab := rep.Add(&report.Table{
		ID:    "table1",
		Title: fmt.Sprintf("Table 1. Maximum throughput (txns/s, simulated testbed; paper numbers are ~%dx larger)", CPUScale),
		Columns: []report.Column{
			colProtocol,
			report.Col("micro", "MicroBench", report.Float, report.Rate, 12),
			report.Col("tpcc", "TPC-C", report.Float, report.Rate, 12),
		},
	})
	o.stamp(tab, o.classicTopology().Name, "micro+tpcc", "skew", "0.5", "clock", clocks.ModelChrony.String())
	// Table 1 reports NCC; NCC+ appears in Figs 7–8.
	names, remark := o.sweepProtocols("NCC+")
	if remark != "" {
		tab.Note("%s", remark)
	}
	var sw sweep
	for _, p := range names {
		var micro float64
		sw.add(o.saturate(o.microSpec(p, 0.5, false, clocks.ModelChrony), 3000), func(res *RunResult) {
			micro = res.Run.Throughput()
		})
		// TPC-C at saturation (6 shards per the paper's setup).
		sw.add(o.saturate(o.tpccSpec(p), 1000), func(res *RunResult) {
			tab.AddRow(report.Str(p), report.Num(micro), report.Num(res.Run.Throughput()))
		})
	}
	sw.run(o.Workers)
	return rep
}

func tpccConfig(o Options) tpcc.Config {
	cfg := tpcc.DefaultConfig(6)
	if o.Quick {
		cfg.Customers = 200
		cfg.Items = 2000
	} else {
		cfg.Customers = 500
		cfg.Items = 10000
	}
	return cfg
}

func (o Options) rates() []float64 {
	if o.Quick {
		return []float64{250, 1000, 2500}
	}
	return []float64{100, 250, 500, 1000, 1500, 2500}
}

// Fig7And8 reproduces Figures 7 and 8: MicroBench (skew 0.5) with varying
// per-coordinator rates; latency reported separately for the topology's
// local region (geo4: South Carolina, Fig 7) and its remote-coordinator
// region (geo4: Hong Kong, Fig 8).
func Fig7And8(o Options) *report.Report {
	rep := report.New("fig7")
	topo := o.classicTopology()
	figs := []struct {
		n            int
		kind, region string
		rows         *report.Table
	}{
		{n: 7, kind: "local", region: topo.RegionName(0)},
		{n: 8, kind: "remote", region: topo.RegionName(topo.RemoteCoordRegion)},
	}
	var banner *report.Table
	for _, f := range figs {
		banner = rep.Add(&report.Table{
			ID: fmt.Sprintf("fig%d-banner", f.n), Gap: true,
			Title: fmt.Sprintf("Fig %d (%s region: %s) — MicroBench skew 0.5, varying per-coordinator rate",
				f.n, f.kind, f.region),
			Columns: sweepColumns("rate", "rate/coord", report.Rate),
		})
	}
	names, remark := o.sweepProtocols()
	if remark != "" {
		banner.Note("%s", remark)
	}
	for i := range figs {
		f := &figs[i]
		f.rows = rep.Add(&report.Table{
			ID: fmt.Sprintf("fig%d", f.n), Gap: true,
			Title:   fmt.Sprintf("Fig %d rows (%s):", f.n, f.region),
			Columns: sweepColumns("rate", "rate/coord", report.Rate),
		})
		o.stamp(f.rows, topo.Name, "micro", "skew", "0.5", "clock", clocks.ModelChrony.String(), "region", f.region)
	}
	var sw sweep
	for _, p := range names {
		for _, rate := range o.rates() {
			sw.add(o.point(o.microSpec(p, 0.5, false, clocks.ModelChrony), rate, 2), func(res *RunResult) {
				for _, f := range figs {
					addSweepRow(f.rows, p, rate, res.Run, regionLatency(res.Run, f.region))
				}
			})
		}
	}
	sw.run(o.Workers)
	return rep
}

func (o Options) skews() []float64 {
	if o.Quick {
		return []float64{0.5, 0.9, 0.99}
	}
	return []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
}

// Fig9 reproduces Figure 9: MicroBench with fixed rate and varying skew.
func Fig9(o Options) *report.Report {
	rep := report.New("fig9")
	rate := 800.0
	if o.Quick {
		rate = 600
	}
	tab := rep.Add(&report.Table{
		ID: "fig9", Gap: true,
		Title:   "Fig 9 — MicroBench, fixed rate, varying skew factor (all regions)",
		Columns: sweepColumns("skew", "skew", report.None),
	})
	o.stamp(tab, o.classicTopology().Name, "micro", "rate", fmt.Sprintf("%v", rate), "clock", clocks.ModelChrony.String())
	names, remark := o.sweepProtocols()
	if remark != "" {
		tab.Note("%s", remark)
	}
	var sw sweep
	for _, p := range names {
		for _, skew := range o.skews() {
			sw.add(o.point(o.microSpec(p, skew, false, clocks.ModelChrony), rate, 3), func(res *RunResult) {
				addSweepRow(tab, p, skew, res.Run, &res.Run.Lat)
			})
		}
	}
	sw.run(o.Workers)
	return rep
}

// Fig10 reproduces Figure 10: TPC-C with varying rates (all regions).
func Fig10(o Options) *report.Report {
	rep := report.New("fig10")
	tab := rep.Add(&report.Table{
		ID: "fig10", Gap: true,
		Title:   "Fig 10 — TPC-C, varying per-coordinator rate (all regions)",
		Columns: sweepColumns("rate", "rate/coord", report.Rate),
	})
	o.stamp(tab, o.classicTopology().Name, "tpcc", "clock", clocks.ModelChrony.String())
	rates := []float64{50, 125, 250, 500}
	if o.Quick {
		rates = []float64{100, 400}
	}
	names, remark := o.sweepProtocols("NCC+")
	if remark != "" {
		tab.Note("%s", remark)
	}
	var sw sweep
	for _, p := range names {
		for _, rate := range rates {
			sw.add(o.point(o.tpccSpec(p), rate, 4), func(res *RunResult) {
				addSweepRow(tab, p, rate, res.Run, &res.Run.Lat)
			})
		}
	}
	sw.run(o.Workers)
	return rep
}

// Fig11 reproduces Figure 11: Tiga's throughput and remote-region median
// latency before and after killing one shard leader mid-run; the paper
// reports a ~3.8 s gap until throughput recovers. The crash arrives through
// the chaos layer's leader-kill plan (crash, no reboot: only Tiga's view
// change can restore service), so the schedule is shared with the chaos
// matrix instead of being this figure's private code.
func Fig11(o Options) *report.Report {
	const plan = "leader-kill"
	rep, tab, rate, _ := o.failover("fig11", "Tiga", plan, 1000,
		fmt.Sprintf("Fig 11 — Tiga leader failure at t=%v (paper: ~3.8 s recovery)", mustPlan(plan).Window.Start))
	tab.SetMeta("rate", fmt.Sprintf("%v", rate))
	return rep
}

// Fig11Baseline runs the Fig 11 failure scenario against a Paxos-backed
// baseline — the first non-Tiga recovery curve — through the chaos layer's
// leader-crash plan (crash at 5 s, reboot at 9 s; the reboot rebuilds the
// log from the surviving replicas). Unlike Tiga (whose view change elects a
// co-located replacement in ~3.8 s), the baseline has no leader election:
// throughput on transactions touching the dead shard stays depressed until
// the reboot.
func Fig11Baseline(o Options) *report.Report {
	const proto, plan = "2PL+Paxos", "leader-crash"
	win := mustPlan(plan).Window
	rep, _, _, _ := o.failover("fig11b", proto, plan, 300,
		fmt.Sprintf("Fig 11b — %s leader failure at t=%v, reboot at t=%v (no election: outage lasts until the reboot)",
			proto, win.Start, win.End))
	return rep
}

// Fig11NCC runs the Fig 11 failure scenario against NCC+ — the third
// recovery curve, on the same leader-crash plan as fig11b (crash at 5 s,
// reboot at 9 s rebuilding the store from the surviving Paxos followers'
// logs). NCC coordinators have no retry timer, so the curve differs from
// both Tiga (fig11) and 2PL+Paxos (fig11b): throughput hits a hard zero
// plateau once the in-flight window drains, pre-crash requests replayed
// from the survivor log re-reply at reboot with multi-second latencies, and
// transactions swallowed inside the outage window hang forever — each one
// permanently pinning an outstanding slot at its coordinator. That hang is
// the documented cost of the no-retry design, not a bug in the recovery
// path.
func Fig11NCC(o Options) *report.Report {
	const proto, plan = "NCC+", "leader-crash"
	win := mustPlan(plan).Window
	rep, tab, _, recovery := o.failover("fig11c", proto, plan, 300,
		fmt.Sprintf("Fig 11c — %s serving-replica failure at t=%v, reboot at t=%v (no retry timer: outage-window transactions hang)",
			proto, win.Start, win.End))
	if recovery < 0 {
		tab.Note("(no recovery to 80%% of the pre-crash rate: hung outage-window transactions pin their coordinators' outstanding slots)")
	}
	return rep
}

// failover is the one Fig 11-family experiment body: proto under the named
// chaos plan at the figure's operating point (rate and 600 outstanding,
// overridable via Options.Ops), sampled into the recovery timeline. The plan
// — not the figure — owns the fault schedule. The driving rate the run
// actually used and the recovery time come back with the table, for the
// figures that report them.
func (o Options) failover(name, proto, plan string, rate float64, title string) (rep *report.Report, tab *report.Table, drivenAt, recoverySec float64) {
	rep = report.New(name)
	run := o.faultRun(o.microSpec(proto, 0.5, false, clocks.ModelChrony), plan,
		OpPoint{SaturationRate: rate, Outstanding: 600}, LoadSpec{Seed: o.Seed + 5})
	var sw sweep
	sw.add(run, func(res *RunResult) {
		tab, recoverySec = o.recoveryTimeline(name, title, res, run.Load.Duration, mustPlan(plan).Window.Start)
		o.stamp(tab, o.classicTopology().Name, "micro", "protocol", proto, "chaos", plan)
		rep.Add(tab)
	})
	sw.run(o.Workers)
	return rep, tab, run.Load.RatePerCoord, recoverySec
}

// recoveryTimeline folds a sample stream into the Fig 11 presentation:
// per-second throughput, per-second remote-region median latency, and the
// recovery time (first bucket after the kill back at >= 80% of the
// pre-failure average; negative when throughput never gets there). The
// remote region — geo4's Hong Kong — is resolved from the run's topology.
func (o Options) recoveryTimeline(id, title string, res *RunResult, total, killAt time.Duration) (*report.Table, float64) {
	topo := o.classicTopology()
	remoteName := topo.RegionName(topo.RemoteCoordRegion)
	secs := int(total/time.Second) + 1
	thpt := make([]float64, secs)
	remote := make([][]time.Duration, secs)
	for _, s := range res.Samples {
		i := int(s.At / time.Second)
		if i >= secs {
			continue
		}
		thpt[i]++
		if s.Region == remoteName {
			remote[i] = append(remote[i], s.Lat)
		}
	}
	var pre float64
	kill := int(killAt / time.Second)
	for i := 1; i < kill; i++ {
		pre += thpt[i]
	}
	pre /= float64(kill - 1)
	rec := -1.0
	for i := kill; i < secs; i++ {
		if thpt[i] >= 0.8*pre {
			rec = float64(i) - killAt.Seconds()
			break
		}
	}
	tab := &report.Table{
		ID: id, Gap: true, Title: title,
		Columns: []report.Column{
			report.Col("sec", "sec", report.Int, report.Seconds, 5),
			report.Col("thpt", "thpt(txn/s)", report.Float, report.Rate, 12),
			report.Col("remote_p50", topo.RegionCode(topo.RemoteCoordRegion)+" p50", report.Duration, report.Nanos, 12),
		},
	}
	for i, ls := range remote {
		var p50 time.Duration
		if len(ls) > 0 {
			sort.Slice(ls, func(a, b int) bool { return ls[a] < ls[b] })
			p50 = ls[len(ls)/2]
		}
		tab.AddRow(report.CountOf(int64(i)), report.Num(thpt[i]), report.Dur(p50))
	}
	tab.Note("recovery time: %.1f s", rec)
	return tab, rec
}

// Table2 reproduces Table 2: maximum throughput and p50 latency after server
// rotation (leaders separated across regions), with deltas vs co-location.
// Detock is excluded as in the paper (its home directories are already
// spread across regions); NCC+ as in Table 1.
func Table2(o Options) *report.Report {
	rep := report.New("table2")
	tab := rep.Add(&report.Table{
		ID: "table2", Gap: true,
		Title: "Table 2 — server rotation (leaders separated)",
		Columns: []report.Column{
			colProtocol, colThpt,
			report.Col("dthpt", "Δthpt%", report.Float, report.Percent, 8).WithPrec(1).WithSign(),
			report.Col("p50", "p50(ms)", report.Float, report.Millis, 10),
			report.Col("dp50", "Δp50%", report.Float, report.Percent, 8).WithPrec(1).WithSign(),
		},
	})
	o.stamp(tab, o.classicTopology().Name, "micro", "skew", "0.5", "rotated", "true")
	names, remark := o.sweepProtocols("NCC+", "Detock")
	if remark != "" {
		tab.Note("%s", remark)
	}
	var sw sweep
	for _, p := range names {
		var base *metrics.Run
		sw.add(o.saturate(o.microSpec(p, 0.5, false, clocks.ModelChrony), 3000), func(res *RunResult) {
			base = res.Run
		})
		sw.add(o.saturate(o.microSpec(p, 0.5, true, clocks.ModelChrony), 3000), func(res *RunResult) {
			rot := res.Run
			dThpt := 100 * (rot.Throughput() - base.Throughput()) / base.Throughput()
			p50b := float64(base.Lat.Percentile(50)) / float64(time.Millisecond)
			p50r := float64(rot.Lat.Percentile(50)) / float64(time.Millisecond)
			dLat := 100 * (p50r - p50b) / p50b
			tab.AddRow(report.Str(p), report.Num(rot.Throughput()), report.Num(dThpt),
				report.Num(p50r), report.Num(dLat))
		})
	}
	sw.run(o.Workers)
	return rep
}

// Fig12 reproduces Figure 12: Tiga-Colocate vs Tiga-Separate p50 latency with
// varying skew, in the local and remote regions.
func Fig12(o Options) *report.Report {
	rep := report.New("fig12")
	topo := o.classicTopology()
	tab := rep.Add(&report.Table{
		ID: "fig12", Gap: true,
		Title: "Fig 12 — Tiga-Colocate vs Tiga-Separate, p50 vs skew",
		Columns: append([]report.Column{
			report.Col("variant", "Variant", report.String, report.None, 16).AlignLeft(),
			report.Col("skew", "skew", report.Float, report.None, 6).WithPrec(2),
		}, regionP50Cols(topo, 16)...),
	})
	o.stamp(tab, topo.Name, "micro", "protocol", "Tiga", "rate", "80")
	var sw sweep
	for _, variant := range []struct {
		name    string
		rotated bool
	}{{"Tiga-Colocate", false}, {"Tiga-Separate", true}} {
		for _, skew := range o.skews() {
			pt := o.pointCapped(o.microSpec("Tiga", skew, variant.rotated, clocks.ModelChrony), 80, 6, 100)
			sw.add(pt, func(res *RunResult) {
				local, remote := regionP50(res.Run, topo)
				tab.AddRow(report.Str(variant.name), report.Num(skew), local, remote)
			})
		}
	}
	sw.run(o.Workers)
	return rep
}

// Fig13 reproduces Figure 13: Tiga's latency and rollback rate with varying
// headroom deltas (plus the 0-Hdrm baseline), skew 0.99, leaders separated.
// The rollback counts come from the protocol.RollbackReporter capability.
func Fig13(o Options) *report.Report {
	rep := report.New("fig13")
	topo := o.classicTopology()
	cols := append([]report.Column{
		report.Col("delta", "delta(ms)", report.String, report.None, 10).AlignLeft(),
	}, regionP50Cols(topo, 14)...)
	tab := rep.Add(&report.Table{
		ID: "fig13", Gap: true,
		Title:   "Fig 13 — headroom sensitivity (skew 0.99, leaders separated)",
		Columns: append(cols, report.Col("rollback", "rollback%", report.Float, report.Percent, 12).WithPrec(1)),
	})
	o.stamp(tab, topo.Name, "micro", "protocol", "Tiga", "skew", "0.99", "rotated", "true")
	var sw sweep
	variant := func(label string, zero bool, deltaMs float64) {
		spec := o.microSpec("Tiga", 0.99, true, clocks.ModelChrony)
		spec.SetKnob("Tiga", "zero-headroom", zero)
		spec.SetKnob("Tiga", "headroom-delta", time.Duration(deltaMs*float64(time.Millisecond)))
		pt := o.pointCapped(spec, 20, 7, 100)
		pt.KeepDeployment = true // rollback counts are read post-run
		sw.add(pt, func(res *RunResult) {
			rb := 0.0
			if rr, ok := res.Deployment.Sys.(protocol.RollbackReporter); ok && res.Run.Counters.Committed > 0 {
				rb = 100 * float64(rr.TotalRollbacks()) / float64(res.Run.Counters.Committed)
			}
			local, remote := regionP50(res.Run, topo)
			tab.AddRow(report.Str(label), local, remote, report.Num(rb))
		})
	}
	variant("0-Hdrm", true, 0)
	deltas := []float64{-50, -25, 0, 25, 50}
	if o.Quick {
		deltas = []float64{-25, 0, 25}
	}
	for _, dm := range deltas {
		variant(fmt.Sprintf("%+.0f", dm), false, dm)
	}
	sw.run(o.Workers)
	return rep
}

// Table3 reproduces Table 3: Tiga throughput and measured clock error under
// ntpd, chrony, Huygens, and an unstable "bad clock" (skew 0.99).
func Table3(o Options) *report.Report {
	rep := report.New("table3")
	tab := rep.Add(&report.Table{
		ID: "table3", Gap: true,
		Title: "Table 3 — Tiga with different clocks (skew 0.99)",
		Columns: []report.Column{
			report.Col("clock", "Clock", report.String, report.None, 10).AlignLeft(),
			report.Col("thpt", "Thpt(txn/s)", report.Float, report.Rate, 14),
			report.Col("err", "clock err (ms)", report.Float, report.Millis, 16).WithPrec(3),
		},
	})
	o.stamp(tab, o.classicTopology().Name, "micro", "protocol", "Tiga", "skew", "0.99")
	var sw sweep
	for _, m := range []clocks.Model{clocks.ModelNtpd, clocks.ModelChrony, clocks.ModelHuygens, clocks.ModelBad} {
		sw.add(o.saturate(o.microSpec("Tiga", 0.99, false, m), 3000), func(res *RunResult) {
			// Measure the error the same way the paper does (a real-time clock
			// monitor): sample a population of this model's clocks.
			cf := clocks.NewFactory(m, time.Minute, o.Seed+9)
			cs := make([]clocks.Clock, 16)
			for j := range cs {
				cs[j] = cf.New()
			}
			errMs := float64(clocks.MeasureError(cs, time.Minute, 64)) / float64(time.Millisecond)
			tab.AddRow(report.Str(m.String()), report.Num(res.Run.Throughput()), report.Num(errMs))
		})
	}
	sw.run(o.Workers)
	return rep
}

// Fig14 reproduces Figure 14: Tiga p50 latency vs rate for each clock model,
// in the local and remote regions.
func Fig14(o Options) *report.Report {
	rep := report.New("fig14")
	topo := o.classicTopology()
	tab := rep.Add(&report.Table{
		ID: "fig14", Gap: true,
		Title: "Fig 14 — Tiga latency with different clocks",
		Columns: append([]report.Column{
			report.Col("clock", "Clock", report.String, report.None, 10).AlignLeft(),
			report.Col("rate", "rate", report.Float, report.Rate, 10),
		}, regionP50Cols(topo, 14)...),
	})
	o.stamp(tab, topo.Name, "micro", "protocol", "Tiga", "skew", "0.99")
	var sw sweep
	for _, m := range []clocks.Model{clocks.ModelNtpd, clocks.ModelChrony, clocks.ModelBad, clocks.ModelHuygens} {
		for _, rate := range o.rates() {
			sw.add(o.point(o.microSpec("Tiga", 0.99, false, m), rate, 8), func(res *RunResult) {
				local, remote := regionP50(res.Run, topo)
				tab.AddRow(report.Str(m.String()), report.Num(rate), local, remote)
			})
		}
	}
	sw.run(o.Workers)
	return rep
}

// Ablations bundles the extra ablations into one experiment report.
func Ablations(o Options) *report.Report {
	rep := report.New("ablations")
	var sw sweep
	o.ablationEpsilon(rep, &sw)
	o.ablationSlowReply(rep, &sw)
	sw.run(o.Workers)
	return rep
}

// ablationEpsilon exercises the §6 coordination-free mode: with a trusted
// error bound ε, leaders skip timestamp agreement and hold transactions for
// ts+ε instead.
func (o Options) ablationEpsilon(rep *report.Report, sw *sweep) {
	tab := rep.Add(&report.Table{
		ID: "ablation-epsilon", Gap: true,
		Title: "Ablation — coordination-free ε-bound mode (§6) vs timestamp agreement",
		Columns: []report.Column{
			report.Col("variant", "Variant", report.String, report.None, 22).AlignLeft(),
			colThpt, colCommit, latCol("p50"),
		},
	})
	o.stamp(tab, o.classicTopology().Name, "micro", "protocol", "Tiga", "clock", clocks.ModelHuygens.String())
	for _, eps := range []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond} {
		spec := o.microSpec("Tiga", 0.5, false, clocks.ModelHuygens)
		spec.SetKnob("Tiga", "epsilon-bound", eps)
		sw.add(o.point(spec, 800, 10), func(res *RunResult) {
			name := "agreement (ε=0)"
			if eps > 0 {
				name = fmt.Sprintf("coordination-free ε=%v", eps)
			}
			tab.AddRow(report.Str(name), report.Num(res.Run.Throughput()),
				report.Num(res.Run.Counters.CommitRate()), report.Dur(res.Run.Lat.Percentile(50)))
		})
	}
}

// ablationSlowReply compares per-entry slow replies against the Appendix E
// batched periodic-inquiry optimization.
func (o Options) ablationSlowReply(rep *report.Report, sw *sweep) {
	tab := rep.Add(&report.Table{
		ID: "ablation-slowreply", Gap: true,
		Title: "Ablation — per-entry slow replies vs Appendix E batched inquiries",
		Columns: []report.Column{
			report.Col("variant", "Variant", report.String, report.None, 12).AlignLeft(),
			colThpt, latCol("p50"),
			report.Col("msgs", "msgs sent", report.Int, report.Count, 14),
		},
	})
	o.stamp(tab, o.classicTopology().Name, "micro", "protocol", "Tiga")
	for _, variant := range []struct {
		name  string
		batch bool
	}{{"per-entry", false}, {"batched", true}} {
		spec := o.microSpec("Tiga", 0.5, false, clocks.ModelChrony)
		spec.SetKnob("Tiga", "batch-slow-replies", variant.batch)
		pt := o.point(spec, 800, 11)
		pt.KeepDeployment = true // message counts are read post-run
		sw.add(pt, func(res *RunResult) {
			tab.AddRow(report.Str(variant.name), report.Num(res.Run.Throughput()),
				report.Dur(res.Run.Lat.Percentile(50)), report.CountOf(res.Deployment.Net.Sent))
		})
	}
}
