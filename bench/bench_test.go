package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// testConfig runs everything at one fiftieth of the benchmark's size: the
// same code paths and the same metric names, in seconds.
func testConfig() config {
	return config{seed: 42, scale: 0.02, seconds: 0, microTime: 2 * time.Millisecond, verify: true}
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var man manifest
	if err := readJSON("../BENCHMARK.json", &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMatchesDeclarations pins BENCHMARK.json to the names and units
// the code emits, in order, and the workload list to the code's.
func TestManifestMatchesDeclarations(t *testing.T) {
	man := loadManifest(t)
	check := func(kind string, got []manifestMetric, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: malformed name %q", kind, d.name)
			}
			if b := got[i].Better; b != "higher" && b != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.name, b)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd)
	check("per_layer", man.PerLayer, perLayer)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, man.Workloads[i].Name, w.name)
		}
	}
}

// TestSweepCoversDeclaredProtocols: every registered protocol but the
// benchmark's null one is swept, and each has its proto.<slug>.* rows.
func TestSweepCoversDeclaredProtocols(t *testing.T) {
	protos := sweepProtocols()
	if len(protos) != 9 {
		t.Fatalf("sweep-nine runs %d protocols: %v", len(protos), protos)
	}
	declared := newMetricSet(perLayer)
	for _, p := range protos {
		if _, ok := declared.unit["proto."+protoSlug(p)+".host_us_per_txn"]; !ok {
			t.Errorf("protocol %s (slug %s) has no declared proto.* rows", p, protoSlug(p))
		}
	}
}

func assertComplete(t *testing.T, what string, decls []decl, set map[string]metric) {
	t.Helper()
	if len(set) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(set), len(decls))
	}
	for _, d := range decls {
		m, ok := set[d.name]
		if !ok {
			t.Errorf("%s: %s was not emitted", what, d.name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, d.name, m.Value)
		}
		if m.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.name, m.Unit, d.unit)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs all four workloads and every micro
// row, small: each declared name comes out exactly once per workload (the
// metric set panics on a second set), finite, with its declared unit; the
// three repetitions agree on the simulated outcome; the probe and the tracer
// do not perturb it; the verify pass holds.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	cfg := testConfig()
	cfg.spans = newSpanLog()
	layers := map[string]map[string]metric{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res := measureEndToEnd(w, cfg)
			for _, p := range res.Problems {
				t.Errorf("end to end: %s", p)
			}
			if res.Reps != minReps {
				t.Errorf("ran %d repetitions, want %d", res.Reps, minReps)
			}
			if res.Attempted < 1 {
				t.Errorf("attempted = %d", res.Attempted)
			}
			assertComplete(t, "end_to_end", endToEnd, res.EndToEnd)
			for _, name := range []string{"sim_thpt_tps", "sim_lat_p50_ms", "sim_lat_p99_ms", "sim_commit_pct",
				"host_us_per_txn", "host_allocs_per_txn", "host_bytes_per_txn", "host_live_heap_mb", "setup_s"} {
				if res.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.EndToEnd[name].Value)
				}
			}

			lay := measureLayers(w, cfg)
			for _, p := range lay.Problems {
				t.Errorf("per layer: %s", p)
			}
			assertComplete(t, "per_layer", perLayer, lay.PerLayer)
			layers[w.name] = lay.PerLayer
			for _, name := range []string{"simnet.events_per_txn", "simnet.ns_per_event", "simnet.send_ns",
				"store.exec_commit_ns", "harness.closed_ns_per_txn", "harness.open_ns_per_txn",
				"tiga.phase_wrtt_ms", "proto.tiga.host_us_per_txn", "checker.strictser_ns_per_commit",
				"chaos.outage_ms", "chaos.post_commit_pct", "paxos.msgs_per_commit"} {
				if lay.PerLayer[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, lay.PerLayer[name].Value)
				}
			}

			line, err := driverLine(res, res.EndToEnd)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("driver line is %s", line)
			}
		})
	}
	// A row whose layer a workload does not exercise reads 0 there, and not
	// on the workload that does.
	reads, micro := layers["tiga-reads-open"], layers["tiga-micro-sat"]
	for _, name := range []string{"snapread.local_pct", "snapread.read_lat_p50_ms", "tiga.safetime_lag_ms",
		"checker.snapread_ns_per_obs"} {
		if reads[name].Value <= 0 {
			t.Errorf("tiga-reads-open: %s = %v, want > 0", name, reads[name].Value)
		}
		if micro[name].Value != 0 {
			t.Errorf("tiga-micro-sat: %s = %v, want 0", name, micro[name].Value)
		}
	}
	if v := micro["proto.detock.host_us_per_txn"].Value; v != 0 {
		t.Errorf("tiga-micro-sat reports a Detock row: %v", v)
	}
	if v := layers["sweep-nine"]["proto.detock.host_us_per_txn"].Value; v <= 0 {
		t.Errorf("sweep-nine: proto.detock.host_us_per_txn = %v, want > 0", v)
	}

	// Spans: a root per repetition, Build and RunLoad under it, the Step
	// drain under its RunLoad, every micro row under "micro rows".
	parents := map[string]string{}
	for _, s := range cfg.spans.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		if s.Parent >= 0 {
			parents[s.Name] = cfg.spans.spans[s.Parent].Name
		}
	}
	for child, parent := range map[string]string{
		"harness.Build Tiga":        "verify chaos leader-crash",
		"simnet.Step drain Detock":  "harness.RunLoad Detock",
		"micro store.getat_ns":      "micro rows",
		"micro harness.closed":      "micro rows",
		"harness.RunLoad OCC+Paxos": "verify sweep-nine",
	} {
		if parents[child] != parent {
			t.Errorf("span %q has parent %q, want %q", child, parents[child], parent)
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to the driver's definition:
// statistics.quantiles(xs, n=4), (q3 − q1)/median.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{263, 287, 267}, (287.0 - 263.0) / 267.0},                         // quantiles: 263, 267, 287
		{[]float64{0.63, 0.23, 0.22, 0.24, 0.25, 0.23, 0.21}, (0.25 - 0.22) / 0.23}, // 0.22, 0.23, 0.25
		{[]float64{1, 2, 3, 4}, (3.75 - 1.25) / 2.5},                                // 1.25, 2.5, 3.75
		{[]float64{5}, 0},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "host_us_per_txn", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "sim_thpt_tps", Better: "higher", Bound: 0.02}
	for _, c := range []struct {
		m    manifestMetric
		a, b metric
		want string
	}{
		{lower, metric{Value: 100}, metric{Value: 105}, "unchanged"},
		{lower, metric{Value: 100}, metric{Value: 111}, "worse"},
		{lower, metric{Value: 100}, metric{Value: 80}, "improved"},
		{lower, metric{Value: 100, Spread: 0.2}, metric{Value: 150}, "unresolved"},
		{lower, metric{Value: 100}, metric{Value: 150, Spread: 0.2}, "unresolved"},
		{higher, metric{Value: 1000}, metric{Value: 970}, "worse"},
		{higher, metric{Value: 1000}, metric{Value: 1030}, "improved"},
		{higher, metric{Value: 1000}, metric{Value: 1000}, "unchanged"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
