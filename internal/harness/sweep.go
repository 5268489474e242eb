package harness

import "time"

// sweep is an experiment's run list. A cell is declared once, together with
// the code that consumes its result: run executes every cell on the parallel
// driver (RunSpecs, results in input order) and then walks the declared steps
// in order, so rows land in the order their cells were declared and no
// experiment ever locates a result by index.
type sweep struct {
	runs  []SpecRun
	steps []func(all []*RunResult)
}

// add declares one cell: the run, and the sink that receives its result.
func (s *sweep) add(run SpecRun, sink func(*RunResult)) {
	i := len(s.runs)
	s.runs = append(s.runs, run)
	s.steps = append(s.steps, func(all []*RunResult) { sink(all[i]) })
}

// then declares a step that runs after the sinks declared before it and
// before those declared after it — a table footer folding what the
// preceding sinks collected.
func (s *sweep) then(f func()) {
	s.steps = append(s.steps, func([]*RunResult) { f() })
}

// run executes the cells, at most workers at a time, then the steps.
func (s *sweep) run(workers int) {
	all := RunSpecs(s.runs, workers)
	for _, step := range s.steps {
		step(all)
	}
}

// opFor resolves the operating point spec is driven at: the experiment's
// defaults, overlaid field by field (zero fields inherit) by the protocol-
// wide -op entry and then by the protocol × topology entry ("Tiga@us-eu3"),
// so `-op 2PL+Paxos=250,200 -op 2PL+Paxos@us-eu3=300` keeps the 200
// outstanding cap on us-eu3. The topology is read off the spec, so the spec
// must already carry the WAN it will deploy on.
func (o Options) opFor(spec ClusterSpec, def OpPoint) OpPoint {
	for _, key := range []string{spec.Protocol, spec.Protocol + "@" + spec.topology().Name} {
		op := o.Ops[key]
		if op.SaturationRate > 0 {
			def.SaturationRate = op.SaturationRate
		}
		if op.Outstanding > 0 {
			def.Outstanding = op.Outstanding
		}
	}
	return def
}

// cell prepares one run of spec under load. Whatever load leaves zero of
// RatePerCoord and Outstanding is filled from the operating point (def,
// overridden by -op); an experiment whose X axis is the rate, or whose cap
// is part of its design, sets the field itself and it stays.
func (o Options) cell(spec ClusterSpec, def OpPoint, load LoadSpec) SpecRun {
	o.mustValidate() // opFor would skip an Ops key that names nothing
	spec.CostScale = CPUScale
	op := o.opFor(spec, def)
	if load.RatePerCoord == 0 {
		load.RatePerCoord = op.SaturationRate
	}
	if load.Outstanding == 0 {
		load.Outstanding = op.Outstanding
	}
	return SpecRun{Spec: spec, Load: load}
}

// window is the standard measurement window — warm-up, then the timed run —
// with the load seeded at the experiment's offset from the run seed.
func (o Options) window(seedOffset int64) LoadSpec {
	warm, dur := o.durations()
	return LoadSpec{Warmup: warm, Duration: dur, Seed: o.Seed + seedOffset}
}

// saturate prepares one maximum-throughput point: the system is driven at a
// saturating rate with Tiga's coordinator retry timer stretched so
// saturation does not trigger retransmission storms that would distort the
// measurement.
func (o Options) saturate(spec ClusterSpec, perCoordRate float64) SpecRun {
	spec.setKnobDefault("Tiga", "retry-timeout", 10*time.Second)
	return o.cell(spec, OpPoint{SaturationRate: perCoordRate, Outstanding: 300}, o.window(1))
}

// point prepares one fixed-rate sweep point with the standard outstanding
// cap (the rate is the sweep's X axis and stays shared).
func (o Options) point(spec ClusterSpec, rate float64, seedOffset int64) SpecRun {
	return o.pointCapped(spec, rate, seedOffset, 400)
}

// pointCapped is point for an experiment whose design sets its own default
// cap; -op still overrides it.
func (o Options) pointCapped(spec ClusterSpec, rate float64, seedOffset int64, outstanding int) SpecRun {
	load := o.window(seedOffset)
	load.RatePerCoord = rate
	return o.cell(spec, OpPoint{Outstanding: outstanding}, load)
}

// faultRun prepares one run through a fault plan's window: no warm-up, the
// failure-run length, every completion sampled for the per-phase and
// per-second folds. The lockocc family's vote-timeout knob is dialed down
// from its inert 10 s default so transactions stranded by the fault
// presume-abort and retry instead of holding locks (and pinning the
// safe-time watermark below their prepare) past the heal, and undelivered
// commit decisions are re-sent to a rebooted leader.
func (o Options) faultRun(spec ClusterSpec, plan string, def OpPoint, load LoadSpec) SpecRun {
	if p := spec.Protocol; p == "2PL+Paxos" || p == "OCC+Paxos" {
		spec.setKnobDefault(p, "vote-timeout", time.Second)
	}
	load.Duration = o.failureRunLength()
	load.TrackSamples = true
	run := o.cell(spec, def, load)
	run.Chaos = plan
	return run
}
