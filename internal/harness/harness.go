// Package harness assembles complete deployments of Tiga and every baseline
// protocol on the simulated WAN and drives them with the paper's evaluation
// method (§5.1): each coordinator submits transactions at a fixed rate with a
// cap on outstanding transactions — or, for the serving experiments, on an
// open-loop arrival curve — and the harness measures throughput, commit rate,
// and per-region latency percentiles.
//
// The harness knows no concrete protocol type: deployments are resolved
// through the protocol registry (see internal/protocol), which each protocol
// package joins via init-time self-registration. The blank imports below pull
// those registrations in; adding a protocol means writing a package with a
// protocol.Register call and listing it here (or importing it from the
// binary that needs it).
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/metrics"
	"tiga/internal/pool"
	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/trace"
	"tiga/internal/txn"
	"tiga/internal/workload"

	// Registered protocols. The harness never names a concrete protocol
	// type; the blank imports only pull in the init-time registrations.
	_ "tiga/internal/protocols/calvin"
	_ "tiga/internal/protocols/detock"
	_ "tiga/internal/protocols/janus"
	_ "tiga/internal/protocols/lockocc"
	_ "tiga/internal/protocols/ncc"
	_ "tiga/internal/protocols/tapir"
	_ "tiga/internal/tiga"
)

// ClusterSpec describes a deployment for one experiment run.
type ClusterSpec struct {
	// Protocol names a registered protocol (see protocol.Names()).
	Protocol string
	// Topology names a registered WAN layout (simnet.TopologyNames());
	// empty selects simnet.DefaultTopology, the paper's geo4. The topology
	// supplies the OWD matrix, region names, server-region count, and the
	// remote-coordinator region, so experiments pick a WAN by name.
	Topology string
	Shards   int
	F        int
	// Rotated separates leaders across regions (§5.5, Table 2).
	Rotated bool
	Clock   clocks.Model
	// Jitter and Loss override the topology's defaults when nonzero.
	Jitter time.Duration
	Loss   float64
	// CoordsPerRegion places this many coordinators in each server region;
	// CoordsRemote places coordinators in the topology's remote region
	// (Hong Kong under geo4, §5.1).
	CoordsPerRegion int
	CoordsRemote    int
	Seed            int64
	Horizon         time.Duration
	// Gen seeds the stores and generates load. When nil, EnsureGen resolves
	// Workload/WorkloadParams/WorkloadKeys through the workload registry; an
	// explicit Gen always wins (tests construct their own generators).
	Gen workload.Generator
	// Workload names a registered workload (workload.Names()), used by
	// EnsureGen when Gen is nil.
	Workload string
	// WorkloadParams are typed parameters for the named workload, validated
	// against its registered schema (workload.Lookup(name).Params).
	WorkloadParams map[string]any
	// WorkloadKeys is the per-shard keyspace handed to the named workload's
	// factory (0 = 2000, a unit-test-sized keyspace).
	WorkloadKeys int
	// Knobs holds per-protocol knob overrides, keyed by protocol name then
	// knob name (see protocol.Knobs for each protocol's schema). Only the
	// map under Knobs[Protocol] reaches the deployment being built; entries
	// for other protocols are inert, so one knob set can be shared across a
	// sweep's specs. Build panics (via the registry's validation) on unknown
	// knob names or type mismatches.
	//
	// This replaces the pre-knob `Tiga func(*tiga.Config)` field: the
	// harness no longer references any concrete protocol type.
	Knobs map[string]map[string]any
	// CostScale multiplies every CPU cost (message handling, execution,
	// graph work) by an integer factor. The experiment harness uses it to
	// shrink absolute throughput while preserving the protocols' relative
	// ordering (see EXPERIMENTS.md).
	CostScale int
}

// Deployment bundles a built system with its simulator and metadata. The
// system is protocol-agnostic; optional abilities are discovered by
// asserting d.Sys against the protocol capability interfaces
// (protocol.Checkable, protocol.Faultable, protocol.RollbackReporter).
type Deployment struct {
	Sim          *simnet.Sim
	Net          *simnet.Network
	Sys          protocol.System
	CoordRegions []simnet.Region
	// Protocol is the registered protocol name the deployment was built
	// for; trace labels and post-run reporting key on it.
	Protocol string
	// Topology is the resolved WAN layout the deployment runs on; it names
	// the regions latency metrics are bucketed under.
	Topology *simnet.Topology
	// Clocks is the factory every per-node clock came from; the chaos
	// applier addresses Clocks.Adjustables() (creation order) for clock
	// steps and freezes.
	Clocks *clocks.Factory
}

// SetKnob records a knob override for proto, allocating the maps as needed.
func (s *ClusterSpec) SetKnob(proto, knob string, v any) {
	if s.Knobs == nil {
		s.Knobs = make(map[string]map[string]any)
	}
	m := s.Knobs[proto]
	if m == nil {
		m = make(map[string]any)
		s.Knobs[proto] = m
	}
	m[knob] = v
}

// setKnobDefault records a knob override only when the caller has not set
// one, so experiment-imposed operating conditions (e.g. the saturation
// retry-timeout stretch) never clobber an explicit user override.
func (s *ClusterSpec) setKnobDefault(proto, knob string, v any) {
	if m := s.Knobs[proto]; m != nil {
		if _, ok := m[knob]; ok {
			return
		}
	}
	s.SetKnob(proto, knob, v)
}

// topology resolves the spec's WAN layout through the simnet registry,
// defaulting to the paper's geo4. It panics on unknown names (mirroring the
// protocol-registry validation in Build).
func (s ClusterSpec) topology() *simnet.Topology {
	name := s.Topology
	if name == "" {
		name = simnet.DefaultTopology
	}
	t, ok := simnet.LookupTopology(name)
	if !ok {
		panic(fmt.Sprintf("unknown topology %q (registered: %v)", name, simnet.TopologyNames()))
	}
	return t
}

// EnsureGen resolves Spec.Workload through the workload registry when Gen is
// nil, so the same generator instance both seeds the stores and drives the
// load. An explicit Gen always wins; a spec with neither is left alone
// (stores stay unseeded, as before).
func (s *ClusterSpec) EnsureGen() error {
	if s.Gen != nil || s.Workload == "" {
		return nil
	}
	keys := s.WorkloadKeys
	if keys == 0 {
		keys = 2000
	}
	gen, err := workload.Build(s.Workload, s.Shards, keys, s.WorkloadParams)
	if err != nil {
		return err
	}
	s.Gen = gen
	return nil
}

// CoordRegionList returns the coordinator placement: CoordsPerRegion
// coordinators in each of the topology's server regions, then CoordsRemote
// in its remote region (the paper's Hong Kong analogue).
func (s ClusterSpec) CoordRegionList() []simnet.Region {
	topo := s.topology()
	var out []simnet.Region
	for r := 0; r < topo.ServerRegions; r++ {
		for i := 0; i < s.CoordsPerRegion; i++ {
			out = append(out, simnet.Region(r))
		}
	}
	for i := 0; i < s.CoordsRemote; i++ {
		out = append(out, topo.RemoteCoordRegion)
	}
	return out
}

func (s ClusterSpec) serverRegion(shard, replica int) simnet.Region {
	n := s.topology().ServerRegions
	if s.Rotated {
		return simnet.Region((replica + shard) % n)
	}
	return simnet.Region(replica % n)
}

// Base CPU cost units: the per-piece execution budget and the auxiliary tick
// (graph work, PQ maintenance), calibrated once against Table 1's MicroBench
// saturation throughputs and scaled per-protocol by each CostProfile.
const (
	baseExecUnit = 1200 * time.Nanosecond
	baseTickUnit = 100 * time.Nanosecond
)

// Build constructs the deployment for the spec by dispatching through the
// protocol, topology, and workload registries. It panics on an unregistered
// name. Callers that rely on a named workload (Spec.Workload) and drive the
// load themselves should call EnsureGen first so they hold the same
// generator instance that seeded the stores; the sweep driver (RunSpecs)
// does this automatically.
func Build(spec ClusterSpec) *Deployment {
	if spec.Horizon == 0 {
		spec.Horizon = time.Minute
	}
	if err := spec.EnsureGen(); err != nil {
		panic(err)
	}
	scale := spec.CostScale
	if scale <= 0 {
		scale = 1
	}
	topo := spec.topology()
	sim := simnet.NewSim(spec.Seed)
	netCfg := topo.Config(spec.Jitter, spec.Loss)
	netCfg.DefaultCost = time.Duration(scale) * time.Microsecond
	net := simnet.NewNetwork(sim, netCfg)
	coords := spec.CoordRegionList()
	clockFactory := clocks.NewFactory(spec.Clock, spec.Horizon, spec.Seed+1)

	ctx := &protocol.BuildContext{
		Net:          net,
		Shards:       spec.Shards,
		F:            spec.F,
		Regions:      topo.ServerRegions,
		Rotated:      spec.Rotated,
		CoordRegions: coords,
		ServerRegion: spec.serverRegion,
		SeedStore: func(shard int, st *store.Store) {
			if spec.Gen != nil {
				spec.Gen.Seed(shard, st)
			}
		},
		Clocks: clockFactory,
		Knobs:  spec.Knobs[spec.Protocol],
	}
	sys, err := protocol.Build(spec.Protocol, ctx,
		time.Duration(scale)*baseExecUnit, time.Duration(scale)*baseTickUnit)
	if err != nil {
		panic(err)
	}
	return &Deployment{Sim: sim, Net: net, Sys: sys, CoordRegions: coords,
		Protocol: spec.Protocol, Topology: topo, Clocks: clockFactory}
}

// LoadSpec describes the load RunLoad offers.
type LoadSpec struct {
	RatePerCoord float64 // txns/s per coordinator
	Outstanding  int     // cap on in-flight transactions per coordinator
	Warmup       time.Duration
	Duration     time.Duration
	Seed         int64
	// MaxChainRestarts bounds interactive-transaction restarts.
	MaxChainRestarts int
	// Check enables the strict-serializability checker. It is ignored for
	// systems that do not implement protocol.Checkable (their results carry
	// no serialization timestamps).
	Check bool
	// TrackSamples records every commit as a (time, latency, region) sample
	// for time-series plots (Fig 11).
	TrackSamples bool
	// LocalReads routes read-only transactions down the local snapshot-read
	// path when the system implements protocol.SnapshotReadable (and was
	// built with its "local-reads" knob). Ignored otherwise. With Check set,
	// the run also gathers the observations the snapshot-read checker
	// validates (RunResult.SnapReads against RunResult.Writes).
	LocalReads bool
	// Arrival selects a registered open-loop arrival process
	// (workload.ArrivalNames: poisson, diurnal, flashcrowd, surge). When
	// set, jobs arrive on the process's rate curve with RatePerCoord as the
	// base rate, regardless of completions, and Outstanding is ignored —
	// backpressure belongs to the protocol's admission gate. Queueing
	// delay (Result.Queued) is then accounted in Run.QueueLat separately
	// from service latency in Run.Lat, and shed transactions count in
	// Counters.Shed (and Aborted). Empty selects the fixed-interval,
	// outstanding-capped closed loop.
	Arrival string
	// ArrivalParams are typed parameter overrides for the named arrival
	// process (validated against its registered schema).
	ArrivalParams map[string]any
	// Trace enables the txn-lifecycle span recorder for this run (see
	// internal/trace): every submission gets a trace whose phase breakdown
	// feeds Run.Phase and RunResult.Trace. Nil leaves tracing off (the
	// default, zero-allocation path) unless EnableTracing armed the
	// process-wide sink.
	Trace *trace.Config
}

// Sample is one commit observation.
type Sample struct {
	At     time.Duration
	Lat    time.Duration
	Region string
}

// RunResult bundles the metrics and checker state of one run.
type RunResult struct {
	Run     *metrics.Run
	Commits []checker.Commit
	Counter *checker.Counter
	Samples []Sample
	// Aborts records every client-visible abort as a (time, latency, region)
	// sample when TrackSamples is on, so fault-window experiments can report
	// a per-phase commit rate. Transactions that never complete (hung inside
	// an outage) appear in neither slice.
	Aborts []Sample
	// SnapReads and Writes feed checker.SnapshotReads when the run used the
	// local-read path with Check on: every version a local read observed,
	// and every committed write event (key, commit timestamp) from the
	// coordinator path.
	SnapReads []checker.SnapshotRead
	Writes    []checker.WriteEvent
	// Deployment is the deployment the run was driven against, for
	// post-run inspection (net counters, capability interfaces).
	Deployment *Deployment
	// Trace is the run's sealed trace summary (phase accumulators + tail
	// exemplars) when the run was traced; nil otherwise.
	Trace *trace.Summary
}

// loadState is one run's shared context: everything a job's completion needs
// that is not per-arrival.
type loadState struct {
	d          *Deployment
	spec       LoadSpec
	run        *metrics.Run
	res        *RunResult
	checkReads bool
	// jobs recycles envelopes. One pool per run, touched only from the run's
	// single-threaded simulator loop (see internal/pool).
	jobs *pool.Free[loadJob]
	// tracer is the run's span recorder; nil on untraced runs (the
	// default), making every per-job hook a pointer test.
	tracer *trace.Tracer
}

// loadJob is one submission's envelope: the submit-time facts its completion
// needs, plus the completion callbacks themselves. They are bound once per
// envelope lifetime (first get) and survive recycling — the fields are
// rewritten each arrival — so per-arrival closures are amortized down to the
// pool's high-water mark. An envelope whose transaction never completes (lost
// in an outage, or still in flight when the horizon ends) never returns to
// the pool.
type loadJob struct {
	st *loadState
	// outstanding is the closed loop's per-coordinator in-flight count,
	// which completion decrements; nil in open-loop runs.
	outstanding *int
	region      string
	start       time.Duration
	inWindow    bool
	t           *txn.Txn
	tr          *trace.T

	finish      func(txn.Result, *txn.Txn)
	finishSub   func(txn.Result)
	finishLocal func(txn.Result)
}

func (st *loadState) get() *loadJob {
	j := st.jobs.Get()
	if j.st == nil {
		j.st = st
		j.finish = func(r txn.Result, t *txn.Txn) { j.complete(r, t, false) }
		j.finishSub = func(r txn.Result) { j.complete(r, j.t, false) }
		j.finishLocal = func(r txn.Result) { j.complete(r, j.t, true) }
	}
	return j
}

// complete accounts one finished job. local marks a local snapshot read,
// which bypasses the commit protocol (and its admission gate) entirely: its
// result carries read observations instead of a serialization timestamp, so it
// is validated by the snapshot-read checker, not the strict-serializability
// one.
func (j *loadJob) complete(r txn.Result, t *txn.Txn, local bool) {
	st := j.st
	defer st.jobs.Put(j)
	if j.outstanding != nil {
		*j.outstanding--
	}
	run, res, spec := st.run, st.res, &st.spec
	// Open-loop runs split admission-queue wait (Run.QueueLat) from service
	// latency (Run.Lat) and count sheds; nothing else differs.
	open := spec.Arrival != ""
	now := st.d.Sim.Now()
	if j.tr != nil {
		// Seal the span record before the in-window early-outs, so every
		// trace is sealed exactly once; the breakdown of a committed
		// in-window transaction feeds Run.Phase.
		keep := r.OK && j.inWindow
		if t != nil {
			t.Trace = nil
		}
		bd := st.tracer.Finish(j.tr, now, keep)
		if keep {
			run.Phase.Add(bd)
		}
		j.tr = nil
	}
	if !j.inWindow {
		return
	}
	if open && r.Shed {
		run.Counters.Shed++
	}
	lat := now - j.start
	if !r.OK {
		run.Counters.Aborted++
		if spec.TrackSamples {
			res.Aborts = append(res.Aborts, Sample{At: now, Lat: lat, Region: j.region})
		}
		return
	}
	if open && !local {
		lat -= r.Queued
		run.QueueLat.Add(r.Queued)
	}
	if spec.TrackSamples {
		res.Samples = append(res.Samples, Sample{At: now, Lat: lat, Region: j.region})
	}
	run.Counters.Retries += int64(r.Retries)
	if local {
		run.RecordLocalRead(now, lat, r.Waited, j.region)
		if st.checkReads {
			for _, ro := range r.Reads {
				res.SnapReads = append(res.SnapReads, checker.SnapshotRead{
					Key: ro.Key, At: r.SnapshotAt, Saw: ro.TS,
				})
			}
		}
		return
	}
	run.RecordCommit(now, lat, j.region, r.FastPath)
	if t == nil {
		return
	}
	if t.ReadOnly {
		run.ReadLat.Add(lat)
	}
	if spec.Check {
		res.Counter.Committed(t)
		res.Commits = append(res.Commits, checker.Commit{
			ID: t.ID, TS: r.TS, Submit: j.start, Complete: now,
		})
	}
	if st.checkReads && !t.ReadOnly && !r.TS.IsZero() {
		for i := range t.Pieces {
			for _, k := range t.Pieces[i].WriteSet {
				res.Writes = append(res.Writes, checker.WriteEvent{Key: k, TS: r.TS})
			}
		}
	}
}

// RunLoad drives the workload against a built deployment and returns its
// metrics; the simulator is advanced to warmup+duration (plus a drain tail).
// Each coordinator runs one arrival loop, and the two load models differ only
// in its policy. Closed (spec.Arrival empty, the paper's §5.1 method): one
// arrival per fixed interval, skipped while Outstanding transactions are in
// flight, so a slow system is offered less. Open (spec.Arrival names a
// registered process): gaps are drawn from the process and completions never
// gate arrivals, so offered load is a property of the curve, not of the
// system under test. That is what makes overload measurable: a
// congestion-collapsing protocol keeps receiving work, and the coordinator
// admission gate (admit-cap/admit-queue knobs) is what turns the excess into
// bounded-latency shedding.
//
// Determinism: one rng per coordinator seeded from (Seed, coordinator index),
// all scheduling through the simulator, so a fixed seed is byte-identical
// across -workers.
func RunLoad(d *Deployment, gen workload.Generator, spec LoadSpec) *RunResult {
	open := spec.Arrival != ""
	if spec.Outstanding == 0 {
		spec.Outstanding = 1000
	}
	if spec.MaxChainRestarts == 0 {
		spec.MaxChainRestarts = 10
	}
	wantCheck := spec.Check
	if _, ok := d.Sys.(protocol.Checkable); !ok {
		spec.Check = false
	}
	snap, _ := d.Sys.(protocol.SnapshotReadable)
	useLocal := spec.LocalReads && snap != nil
	// checkReads gates the snapshot-read validation data (RunResult.SnapReads
	// and Writes). Unlike the strict-serializability checker it does not need
	// protocol.Checkable: the local-read machinery itself mints the commit
	// timestamps it relies on, so systems without checkable coordinator-path
	// timestamps (the layered baselines) still get their local reads audited.
	checkReads := wantCheck && useLocal
	d.Sys.Start()
	run := metrics.NewRun()
	run.Start = spec.Warmup
	run.End = spec.Warmup + spec.Duration
	res := &RunResult{Run: run, Counter: checker.NewCounter(), Deployment: d}
	tracer, publish := newRunTracer(d, &spec)
	st := &loadState{d: d, spec: spec, run: run, res: res, checkReads: checkReads,
		jobs: pool.New[loadJob](), tracer: tracer}

	// Pre-size the sample buffers: about rate × duration transactions per
	// coordinator arrive inside the measurement window (open-loop curves
	// swing around that base rate), so steady-state recording rarely
	// reallocates mid-run.
	if expected := int(spec.RatePerCoord*spec.Duration.Seconds()) * d.Sys.NumCoords(); expected > 0 {
		run.Lat.Grow(expected)
		if open {
			run.QueueLat.Grow(expected)
		}
		if spec.TrackSamples {
			res.Samples = make([]Sample, 0, expected)
		}
	}

	for ci := 0; ci < d.Sys.NumCoords(); ci++ {
		region := d.Topology.RegionName(d.CoordRegions[ci])
		rng := rand.New(rand.NewSource(spec.Seed + int64(ci)*7919))
		var (
			arr         workload.Arrival // open loop: the gap process
			gap         time.Duration    // closed loop: the fixed gap
			first       time.Duration
			outstanding *int
		)
		if open {
			var err error
			arr, err = workload.BuildArrival(spec.Arrival, spec.RatePerCoord,
				ci, d.Sys.NumCoords(), int(d.CoordRegions[ci]), spec.ArrivalParams)
			if err != nil {
				panic(fmt.Sprintf("open-loop load: %v", err))
			}
			// The first arrival is itself a draw from the process, so the
			// coordinators de-phase exactly like the steady state.
			first = arr.Next(0, rng)
		} else {
			gap = time.Duration(float64(time.Second) / spec.RatePerCoord)
			// Stagger coordinator start offsets deterministically.
			first = time.Duration(rng.Int63n(int64(gap) + 1))
			outstanding = new(int)
		}
		var tick func()
		tick = func() {
			if d.Sim.Now() >= run.End {
				return
			}
			// Schedule the next arrival before submitting: the gap draw
			// must not depend on what the submission does with rng.
			next := gap
			if open {
				next = arr.Next(d.Sim.Now(), rng)
			}
			d.Sim.After(next, tick)
			if !open {
				if *outstanding >= spec.Outstanding {
					return
				}
				*outstanding++
			}
			job := gen.Next(rng)
			j := st.get()
			j.outstanding = outstanding
			j.region = region
			j.start = d.Sim.Now()
			j.inWindow = j.start >= run.Start && j.start < run.End
			j.t = job.T
			j.tr = nil
			if st.tracer != nil && job.T != nil {
				j.tr = st.tracer.Begin(job.T.Label, j.start)
				job.T.Trace = j.tr
			}
			if j.inWindow {
				run.Counters.Submitted++
			}
			if job.T != nil {
				if useLocal && job.T.ReadOnly {
					snap.SubmitLocalRead(ci, job.T, j.finishLocal)
				} else {
					d.Sys.Submit(ci, job.T, j.finishSub)
				}
			} else {
				runChain(d, ci, job.I, spec.MaxChainRestarts, j.finish)
			}
		}
		d.Sim.After(first, tick)
	}
	d.Sim.Run(run.End + 2*time.Second) // drain tail completions
	sealTrace(res, tracer, publish)
	return res
}

// runChain drives a multi-shot (interactive) transaction: it submits the
// stages produced by Next in sequence, restarting the whole chain when a
// validation stage aborts (Appendix F).
func runChain(d *Deployment, coord int, ic *txn.Interactive, maxRestarts int, finish func(txn.Result, *txn.Txn)) {
	c := &chain{d: d, coord: coord, ic: ic, maxRestarts: maxRestarts, finish: finish}
	c.submitted = c.result
	c.step(nil)
}

// chain is one interactive transaction's state for as long as it runs. Its
// result method, bound once, is the Submit callback of every stage.
type chain struct {
	d           *Deployment
	coord       int
	ic          *txn.Interactive
	maxRestarts int
	finish      func(txn.Result, *txn.Txn)
	submitted   func(txn.Result)

	restarts int
	// stage is the stage in flight, retries the protocol retries of this
	// attempt's stages so far, and prev the last stage's result.
	stage, retries int
	prev           txn.Result
}

// step asks the chain for its next stage, given the previous stage's result
// (nil at stage 0), and submits it — or finishes the chain.
func (c *chain) step(prev *txn.Result) {
	t, done, abort := c.ic.Next(c.stage, prev)
	if abort {
		c.retry(c.retries)
		return
	}
	if done || t == nil {
		r := txn.Result{OK: true, Retries: c.retries + c.restarts}
		if prev != nil {
			r.PerShard = prev.PerShard
			r.FastPath = prev.FastPath
			r.TS = prev.TS
		}
		c.finish(r, nil)
		return
	}
	c.d.Sys.Submit(c.coord, t, c.submitted)
}

// result takes the outcome of the stage in flight.
func (c *chain) result(r txn.Result) {
	if !r.OK {
		c.retry(c.retries + r.Retries)
		return
	}
	c.stage++
	c.retries += r.Retries
	c.prev = r
	c.step(&c.prev)
}

// retry restarts the chain after a brief fixed backoff, or, when it has
// restarted maxRestarts times, finishes it aborted; retries is what the
// abandoned attempt reports.
func (c *chain) retry(retries int) {
	if c.restarts >= c.maxRestarts {
		c.finish(txn.Result{Aborted: true, Retries: retries}, nil)
		return
	}
	c.d.Sim.After(5*time.Millisecond, c.restart)
}

// restart runs the chain again from stage 0.
func (c *chain) restart() {
	c.restarts++
	c.stage, c.retries = 0, 0
	c.step(nil)
}
