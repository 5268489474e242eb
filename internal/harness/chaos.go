package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"tiga/internal/chaos"
	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/metrics"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/simnet"
)

// This file wires the declarative fault-plan model (internal/chaos) into the
// harness: ApplyPlan is the fault-event scheduler — it instantiates a
// registered plan against a built deployment and schedules every event on
// the deployment's simulator, dispatching each kind to the capability that
// implements it (protocol.Faultable for crashes, the simulated network for
// partitions and link faults, the clock factory's adjustable clocks for
// clock misbehavior). ChaosMatrix then sweeps protocol × plan and reports
// throughput, commit rate, and tail latency before, during, and after each
// plan's fault window — with the strict-serializability checker running
// under every plan, because "depends on clock synchronization for
// performance but not for correctness" is a testable claim.

// chaosSeedOffset separates the plan-instantiation rng from the simulator
// and workload seeds derived from the same spec seed.
const chaosSeedOffset = 1_000_003

// ApplyPlan instantiates the named fault plan for the deployment's shape
// and schedules its events on the simulator. It panics on an unregistered
// name (the CLI validates first and exits 2, mirroring -exp/-topo). Call it
// after Build and before driving load; the sweep driver does this for any
// SpecRun with a Chaos name.
func ApplyPlan(d *Deployment, spec ClusterSpec, planName string) {
	for _, e := range must(chaos.Lookup(planName)).Events(chaosEnv(d, spec)) {
		e := e
		d.Sim.At(e.At, func() { applyEvent(d, e) })
	}
}

// chaosEnv describes the deployment to a plan. The server grid comes from
// the system itself when it supports faults (protocol.Faultable.ServerGrid)
// and from the spec otherwise, so plans see the same shape the applier will
// address.
func chaosEnv(d *Deployment, spec ClusterSpec) chaos.Env {
	shards, replicas := spec.Shards, 2*spec.F+1
	if f, ok := d.Sys.(protocol.Faultable); ok {
		shards, replicas = f.ServerGrid()
	}
	seed := spec.Seed + chaosSeedOffset
	return chaos.Env{
		Seed:          seed,
		Shards:        shards,
		Replicas:      replicas,
		ServerRegions: d.Topology.ServerRegions,
		ServerRegion:  simnet.ServerPlacement(d.Topology.ServerRegions, spec.Rotated),
		Clocks:        len(d.Clocks.Adjustables()),
		Rand:          rand.New(rand.NewSource(seed)),
	}
}

// applyEvent dispatches one fault event to the deployment capability that
// implements it. Events a deployment cannot express are no-ops: crashes
// against a system without fault hooks (the matrix excludes those rows by
// design), clock faults against a system that never reads a clock.
func applyEvent(d *Deployment, e chaos.Event) {
	switch e.Op {
	case chaos.OpCrash, chaos.OpReboot:
		f, ok := d.Sys.(protocol.Faultable)
		if !ok {
			return
		}
		shards, replicas := f.ServerGrid()
		if e.Shard < 0 || e.Shard >= shards || e.Replica < 0 || e.Replica >= replicas {
			return
		}
		if e.Op == chaos.OpCrash {
			f.KillServer(e.Shard, e.Replica)
		} else {
			f.RestartServer(e.Shard, e.Replica)
		}
	case chaos.OpPartition:
		d.Net.PartitionRegions(toRegions(e.GroupA), toRegions(e.GroupB))
	case chaos.OpHeal:
		d.Net.HealRegions(toRegions(e.GroupA), toRegions(e.GroupB))
	case chaos.OpDegradeLink:
		d.Net.DegradeLink(simnet.Region(e.LinkA), simnet.Region(e.LinkB), simnet.LinkFault{
			Extra: simnet.Latency{Base: e.ExtraOWD, Jitter: e.ExtraJitter},
			Loss:  e.Loss,
		})
	case chaos.OpRestoreLink:
		d.Net.RestoreLink(simnet.Region(e.LinkA), simnet.Region(e.LinkB))
	case chaos.OpClockStep:
		for _, a := range clockTargets(d, e.Clock) {
			a.Step(e.Step)
		}
	case chaos.OpClockFreeze:
		for _, a := range clockTargets(d, e.Clock) {
			a.Freeze(d.Sim.Now())
		}
	case chaos.OpClockUnfreeze:
		for _, a := range clockTargets(d, e.Clock) {
			a.Unfreeze(d.Sim.Now())
		}
	}
}

func toRegions(ids []int) []simnet.Region {
	out := make([]simnet.Region, len(ids))
	for i, id := range ids {
		out[i] = simnet.Region(id)
	}
	return out
}

// clockTargets resolves a clock event's target set against the deployment's
// adjustable clocks (creation order; chaos.AllClocks = every clock).
func clockTargets(d *Deployment, idx int) []*clocks.Adjustable {
	all := d.Clocks.Adjustables()
	if idx == chaos.AllClocks {
		return all
	}
	if idx < 0 || idx >= len(all) {
		return nil
	}
	return all[idx : idx+1]
}

// ---- the chaos-matrix experiment ----

// chaosPlans resolves the matrix's plan axis, panicking on unregistered
// names (the CLI validates first and exits 2).
func (o Options) chaosPlans() []string {
	o.mustValidate()
	if len(o.Plans) == 0 {
		return chaos.Names()
	}
	return o.Plans
}

// failureRunLength is the Fig 11 family's driven duration: long enough that
// the canned 5 s – 9 s fault window leaves pre, fault, and post phases.
func (o Options) failureRunLength() time.Duration {
	if o.Quick {
		return 12 * time.Second
	}
	return 16 * time.Second
}

// protoCaps probes a protocol's optional capabilities by building a minimal
// throwaway deployment: whether its system accepts crash/reboot faults,
// whether its commits carry checkable serialization timestamps, and whether
// it maintains safe-time watermarks for local snapshot reads.
type protoCaps struct {
	faultable bool
	checkable bool
	snapshot  bool
}

func probeCaps(proto string) protoCaps {
	d := Build(ClusterSpec{Protocol: proto, Shards: 2, F: 1, CoordsPerRegion: 1, Seed: 1})
	_, f := d.Sys.(protocol.Faultable)
	_, c := d.Sys.(protocol.Checkable)
	_, s := d.Sys.(protocol.SnapshotReadable)
	return protoCaps{faultable: f, checkable: c, snapshot: s}
}

// phaseTable adds the pre/fault/post table of a run through the named plan
// to rep, stamped with the plan and its window, and returns it with the
// function that appends one protocol's three phase rows.
func (o Options) phaseTable(rep *report.Report, id, title, topo, workloadName, planName string, kv ...string) (*report.Table, func(protocol string, res *RunResult)) {
	win := must(chaos.Lookup(planName)).Window
	tab := rep.Add(&report.Table{
		ID: id, Gap: true, Title: title,
		Columns: []report.Column{
			colProtocol,
			report.Col("phase", "phase", report.String, report.None, 6).AlignLeft(),
			colThpt, colCommit, latCol("p99"),
		},
	})
	o.stamp(tab, topo, workloadName, append(kv,
		"chaos", planName, "window", fmt.Sprintf("%v-%v", win.Start, win.End))...)
	phases := []struct {
		name     string
		from, to time.Duration
	}{
		{"pre", 0, win.Start},
		{"fault", win.Start, win.End},
		{"post", win.End, o.failureRunLength()},
	}
	return tab, func(protocol string, res *RunResult) {
		for _, ph := range phases {
			thpt, commit, p99 := phaseStats(res, ph.from, ph.to)
			tab.AddRow(report.Str(protocol), report.Str(ph.name), report.Num(thpt),
				report.Num(commit), report.Dur(p99))
		}
	}
}

// phaseStats folds a run's commit/abort samples into one phase's throughput,
// commit rate, and p99 latency. Transactions that never complete (hung
// inside an outage — NCC+'s documented no-retry behavior) count in no phase.
func phaseStats(res *RunResult, from, to time.Duration) (thpt, commit float64, p99 time.Duration) {
	var lat metrics.Latency
	commits, aborts := 0, 0
	for _, s := range res.Samples {
		if s.At >= from && s.At < to {
			commits++
			lat.Add(s.Lat)
		}
	}
	for _, s := range res.Aborts {
		if s.At >= from && s.At < to {
			aborts++
		}
	}
	if sec := (to - from).Seconds(); sec > 0 {
		thpt = float64(commits) / sec
	}
	if commits+aborts > 0 {
		commit = 100 * float64(commits) / float64(commits+aborts)
	}
	return thpt, commit, lat.Percentile(99)
}

// checkStatus runs the strict-serializability and timestamp-uniqueness
// checks over a run's committed history.
func checkStatus(res *RunResult, caps protoCaps) string {
	if !caps.checkable {
		return "n/a (no agreed serialization timestamps)"
	}
	if err := checker.StrictSerializability(res.Commits); err != nil {
		return "FAIL: " + err.Error()
	}
	if err := checker.UniqueTimestamps(res.Commits); err != nil {
		return "FAIL: " + err.Error()
	}
	return fmt.Sprintf("ok (%d commits)", len(res.Commits))
}

// ChaosMatrix sweeps every selected protocol across the selected fault
// plans, reporting per-phase throughput, commit rate, and p99 latency —
// before the fault window, inside it, and after it — one table per plan.
// Every cell runs the fig11b/c deployment and operating point (MicroBench
// skew 0.5, 300 txns/s/coord, 600 outstanding — overridden per protocol or
// per protocol × topology by Options.Ops) with the serializability checker
// armed. Crash plans run only against systems implementing
// protocol.Faultable (the rest are excluded by design, with a note); network
// and clock plans run against everything. The strict-serializability checker
// runs under every plan for every checkable system: faults may only hurt
// performance, never correctness.
func ChaosMatrix(o Options) *report.Report {
	const sharedRate = 300
	rep := report.New("chaos")
	plans := o.chaosPlans()
	names, remark := o.sweepProtocols()
	classic := o.classicTopology().Name
	rep.Add(&report.Table{
		ID: "chaos-banner", Gap: true,
		Title: fmt.Sprintf("Chaos matrix — %d protocols × %d fault plans, %v runs, MicroBench skew 0.5, %d/coord",
			len(names), len(plans), o.failureRunLength(), sharedRate),
	})
	if remark != "" {
		rep.AddNote(remark)
	}
	caps := make(map[string]protoCaps, len(names))
	for _, p := range names {
		caps[p] = probeCaps(p)
	}
	var sw sweep
	// section declares one plan's table on one WAN: a cell per protocol the
	// plan can run against, each with the sink that renders its phase rows.
	// riderTopo, when set, replays the plan on that WAN instead of the
	// classic one.
	section := func(planName, riderTopo string) {
		plan := must(chaos.Lookup(planName))
		topo, label, title := classic, planName, fmt.Sprintf("[plan=%s] %s", planName, plan.Doc)
		if riderTopo != "" {
			topo, label = riderTopo, planName+"@"+riderTopo
			title = fmt.Sprintf("[plan=%s topology=%s] %s — asymmetric links: the healed path costs more one way than the other",
				planName, topo, plan.Doc)
		}
		tab, addPhases := o.phaseTable(rep, "chaos/"+label, title, topo, "micro", planName,
			"skew", "0.5", "clock", clocks.ModelChrony.String())
		var excluded, checks, offShared []string
		for _, p := range names {
			if plan.Crashes && !caps[p].faultable {
				excluded = append(excluded, p)
				continue
			}
			spec := o.microSpec(p, 0.5, false, clocks.ModelChrony)
			spec.Topology = topo
			cell := o.faultRun(spec, planName, OpPoint{SaturationRate: sharedRate, Outstanding: 600},
				LoadSpec{Seed: o.Seed + 5, Check: true})
			if cell.Load.RatePerCoord != sharedRate {
				offShared = append(offShared, fmt.Sprintf("%s=%v/coord", p, cell.Load.RatePerCoord))
			}
			sw.add(cell, func(res *RunResult) {
				addPhases(p, res)
				checks = append(checks, fmt.Sprintf("%s: %s", p, checkStatus(res, caps[p])))
			})
		}
		if len(excluded) > 0 {
			tab.Note("(crash plan: %s excluded by design — no protocol.Faultable hooks)",
				strings.Join(excluded, ", "))
		}
		sw.then(func() {
			tab.Note("serializability under %s — %s", label, strings.Join(checks, "; "))
			noteCellRates(tab, offShared)
		})
	}
	for _, planName := range plans {
		section(planName, "")
	}
	// Chaos × topology: replay the wan-partition plan on planet5's
	// asymmetric WAN — the severed region 0↔1 link's return path runs 15%
	// longer than its forward path, so replication reroutes through Tokyo at
	// a different cost in each direction. Rides along whenever wan-partition
	// is among the selected plans.
	if slices.Contains(plans, "wan-partition") {
		section("wan-partition", "planet5")
	}
	sw.run(o.Workers)
	return rep
}
