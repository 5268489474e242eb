package harness

import (
	"bytes"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/trace"
)

// traceTestSpec builds a small commit-path deployment for the tracing tests:
// the classic WAN, MicroBench, three shards.
func traceTestSpec(t *testing.T, proto string) ClusterSpec {
	t.Helper()
	spec := ClusterSpec{
		Protocol: proto, Workload: "micro", WorkloadKeys: 2000,
		Shards: 3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 42,
		CostScale: CPUScale,
	}
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTraceBreakdownExactness pins the trace model's core invariant at the
// harness level, per protocol: every committed transaction's phase breakdown
// sums EXACTLY to its end-to-end latency, so the run-level accumulators agree
// to the nanosecond with the independently recorded latency samples. This
// holds by construction (the clamped monotone walk in internal/trace), but
// the test also pins what the walk cannot guarantee alone — that the harness
// keeps exactly the in-window committed set (Count == samples) and seals
// traces at the same instant it samples latency.
func TestTraceBreakdownExactness(t *testing.T) {
	for _, proto := range []string{"Tiga", "2PL+Paxos", "OCC+Paxos"} {
		spec := traceTestSpec(t, proto)
		d := Build(spec)
		res := RunLoad(d, spec.Gen, LoadSpec{
			RatePerCoord: 150, Outstanding: 64,
			Warmup: 500 * time.Millisecond, Duration: 3 * time.Second,
			Seed: 17, TrackSamples: true,
			Trace: &trace.Config{Seed: 17},
		})
		s := res.Trace
		if s == nil || s.Count == 0 {
			t.Fatalf("%s: traced run produced no trace summary", proto)
		}
		if s.Count != len(res.Samples) {
			t.Errorf("%s: trace kept %d txns but the run sampled %d commits",
				proto, s.Count, len(res.Samples))
		}
		var want time.Duration
		for _, smp := range res.Samples {
			want += smp.Lat
		}
		if got := s.Phase.Total(); got != want {
			t.Errorf("%s: phase breakdown sums to %v, committed latency sums to %v (diff %v)",
				proto, got, want, got-want)
		}
		// The instrumentation actually attributes phases: every protocol
		// crosses the WAN, so flight time must be nonzero — an all-Other
		// breakdown would mean the marks never landed.
		if s.Phase[trace.BucketWRTT] == 0 {
			t.Errorf("%s: WRTT bucket is zero — no flight marks recorded", proto)
		}
		for _, ex := range s.Exemplars {
			bd := ex.Breakdown()
			if bd.Total() != ex.Latency() {
				t.Errorf("%s: exemplar idx=%d breakdown %v != latency %v",
					proto, ex.Idx, bd.Total(), ex.Latency())
			}
		}
	}
}

// TestTraceDeterminismAcrossWorkers pins the tracer to the simulator's core
// guarantee: with a fixed seed, the process-wide trace sink drains the same
// summaries — same accumulators, same retained exemplars, same Chrome
// trace-event bytes — whether the sweep points ran serially or on eight
// workers. Retention is hash-of-(seed,idx), never wall clock; the sink sorts
// by content-derived keys; and the double-free detector is armed so a pooled
// trace recycled across runs fails loudly.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full load windows; skipped under -short")
	}
	pool.Check = true
	defer func() { pool.Check = false }()

	chrome := func(workers int) []byte {
		EnableTracing(trace.Config{Seed: 5})
		defer DisableTracing()
		o := Options{Quick: true, Keys: 800, Seed: 42, Workers: workers}
		protos := []string{"Tiga", "2PL+Paxos", "OCC+Paxos", "Tiga"}
		runs := make([]SpecRun, 0, len(protos))
		for i, p := range protos {
			spec := o.microSpec(p, 0.5, false, clocks.ModelChrony)
			spec.CostScale = CPUScale
			runs = append(runs, SpecRun{Spec: spec, Load: LoadSpec{
				RatePerCoord: 150, Outstanding: 64,
				Warmup: 500 * time.Millisecond, Duration: 2 * time.Second,
				Seed: o.Seed + int64(i),
			}})
		}
		RunSpecs(runs, workers)
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, CollectTraces()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := chrome(1), chrome(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Chrome trace export differs between -workers 1 and 8\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
}
