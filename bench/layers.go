package main

import "fmt"

// measureLayers produces every per-layer row for one workload. It runs the
// workload three times at the same seed — a plain timed repetition, a probe
// repetition (Sim.Step drain, safe-time sample) and a traced repetition
// (LoadSpec.Trace) — and requires all three to reach the same simulated
// outcome, which proves that neither the probe nor the tracer perturbed the
// schedule. Then the micro rows, which do not depend on the workload, and
// the verify pass. A row whose layer the workload does not exercise reads 0.
func measureLayers(w *workloadDef, cfg config) *workloadResult {
	res := &workloadResult{}
	sp := cfg.spans
	points := func() []point { return w.points(cfg.seed, cfg.scale) }
	timed := runRep(points(), pass{}, sp, "timed "+w.name, nil)
	probed := runRep(points(), pass{probe: true}, sp, "probe "+w.name, nil)
	traced := runRep(points(), pass{trace: true}, sp, "traced "+w.name, nil)
	for _, other := range []struct {
		name string
		rep  repResult
	}{{"probe", probed}, {"traced", traced}} {
		if a, b := timed.fingerprint(), other.rep.fingerprint(); a != b {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"the %s pass perturbed the simulated outcome:\n%s---\n%s", other.name, a, b))
		}
	}
	res.Attempted = int64(timed.submitted())
	res.Failed = int64(timed.sum(func(p *pointResult) float64 { return float64(p.counters.Aborted) }))

	set := newMetricSet(perLayer)
	micro := microRows(cfg, sp)
	for name, v := range micro {
		set.set(name, v)
	}
	workloadRows(set, w, timed, probed, traced, micro["simnet.send_ns"])

	if cfg.verify {
		chk := checkWorkload(w, cfg, sp)
		res.Problems = append(res.Problems, chk.problems...)
		set.set("checker.strictser_ns_per_commit", chk.strictNs)
		set.set("checker.snapread_ns_per_obs", chk.snapNs)
		ch := chaosPass(cfg, sp)
		res.Problems = append(res.Problems, ch.problems...)
		set.set("chaos.outage_ms", ch.outageMs)
		set.set("chaos.post_commit_pct", ch.postCommitPct)
	}
	set.fillZero()
	res.PerLayer = set.vals
	return res
}

// workloadRows fills the rows read off the workload's own runs: (W) rows
// from the timed repetition, (T) rows from the probe and traced ones.
func workloadRows(set *metricSet, w *workloadDef, timed, probed, traced repResult, sendNs float64) {
	commits := timed.committed()
	hostNsPerTxn := timed.runNs() / commits

	events := probed.sum(func(p *pointResult) float64 { return float64(p.events) })
	drain := probed.sum(func(p *pointResult) float64 { return float64(p.drain) })
	set.set("simnet.events_per_txn", events/commits)
	set.set("simnet.ns_per_event", drain/events)
	set.set("simnet.msgs_per_txn", timed.sum(func(p *pointResult) float64 { return float64(p.sent) })/commits)
	set.set("simnet.core_share_pct", 100*(events/commits)*sendNs/hostNsPerTxn)

	if w.closedRate > 0 {
		offered := w.closedRate * timed.points[0].window.Seconds() * numCoords * float64(len(timed.points))
		set.set("harness.tick_skip_pct", 100*(1-timed.submitted()/offered))
	}
	var buildNs, builtKeys float64
	for i := range timed.points {
		p := &timed.points[i]
		if p.allKeys > 0 {
			buildNs += float64(p.setup)
			builtKeys += float64(p.allKeys)
		}
		slug := "proto." + protoSlug(p.proto)
		c := float64(p.counters.Committed)
		set.set(slug+".host_us_per_txn", float64(p.run)/1e3/c)
		set.set(slug+".bytes_per_txn", float64(p.bytes)/c)
		set.set(slug+".msgs_per_txn", float64(p.sent)/c)
		set.set(slug+".sim_thpt_tps", c/p.window.Seconds())
		set.set(slug+".sim_lat_p50_ms", ms(p.p50))
	}
	if builtKeys > 0 {
		set.set("harness.build_ns_per_key", buildNs/builtKeys)
	}

	// The probe repetition does the timed one's work and runs right before
	// the traced one, so it is the baseline that shares its warm heap.
	set.set("trace.overhead_pct", 100*(traced.runNs()-probed.runNs())/probed.runNs())
	mallocs := func(r repResult) float64 {
		return r.sum(func(p *pointResult) float64 { return float64(p.mallocs) })
	}
	set.set("trace.allocs_per_txn_delta", (mallocs(traced)-mallocs(probed))/commits)

	// The Tiga rows come from the workload's Tiga point (on sweep-nine, one
	// point of nine).
	tp, pp, trp := timed.find("Tiga"), probed.find("Tiga"), traced.find("Tiga")
	if tp == nil {
		return
	}
	c := float64(tp.counters.Committed)
	kc := c / 1000
	local := float64(tp.counters.LocalReads) // recorded as fast-path commits by the driver
	set.set("tiga.fastpath_pct", 100*(float64(tp.counters.FastPath)-local)/(c-local))
	set.set("tiga.rollbacks_per_ktxn", float64(tp.rollbacks)/kc)
	// Counters.Retries sums protocol retries and interactive-chain restarts;
	// with the retry timer stretched to 10 s the TPC-C figure is restarts.
	if w.name == "tiga-tpcc-sat" {
		set.set("tpcc.restarts_per_ktxn", float64(tp.counters.Retries)/kc)
	} else {
		set.set("tiga.retries_per_ktxn", float64(tp.counters.Retries)/kc)
	}
	set.set("tiga.handler_ns_per_event", float64(pp.drain)/float64(pp.events)-sendNs)
	set.set("tiga.safetime_lag_ms", pp.safeLagMs)
	for i, name := range []string{"wrtt", "queue", "headroom", "lockval", "repl", "other"} {
		set.set("tiga.phase_"+name+"_ms", ms(trp.phase.Mean(i)))
	}
	set.set("store.versions_per_key", float64(tp.versions)/float64(tp.keys))
	set.set("admit.shed_pct", 100*float64(tp.counters.Shed)/float64(tp.counters.Submitted))
	set.set("admit.queue_p99_ms", ms(tp.queueP99))
	set.set("snapread.local_pct", 100*local/c)
	set.set("snapread.read_lat_p50_ms", ms(tp.readP50))
	set.set("snapread.read_lat_p99_ms", ms(tp.readP99))
	set.set("snapread.wait_p50_ms", ms(tp.waitP50))
}
