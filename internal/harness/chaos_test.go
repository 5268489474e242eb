package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tiga/internal/chaos"
	"tiga/internal/report"
)

// TestApplyPlanPartitionLifecycle pins the partition semantics end to end:
// the wan-partition plan cuts server regions 0 and 1 at 5 s (messages across
// the cut are dropped) and heals them at 9 s (traffic flows again).
func TestApplyPlanPartitionLifecycle(t *testing.T) {
	spec := ClusterSpec{Protocol: "Tiga", Shards: 2, F: 1, CoordsPerRegion: 1, Seed: 7}
	d := Build(spec)
	ApplyPlan(d, spec, "wan-partition")
	if d.Net.Partitioned(0, 1) {
		t.Fatal("partition installed before its scheduled time")
	}
	d.Sim.Run(6 * time.Second)
	if !d.Net.Partitioned(0, 1) || !d.Net.Partitioned(1, 0) {
		t.Fatal("wan-partition did not cut regions 0<->1 (both directions)")
	}
	if d.Net.Partitioned(0, 2) || d.Net.Partitioned(2, 1) {
		t.Fatal("partition leaked onto region 2, which is on neither side")
	}
	dropped := d.Net.Dropped
	d.Net.Send(d.Net.Node(0).ID(), d.Net.Node(0).ID(), nil) // same region: flows
	d.Sim.Run(7 * time.Second)
	if d.Net.Dropped != dropped {
		t.Fatal("intra-region traffic dropped during the partition")
	}
	d.Sim.Run(10 * time.Second)
	if d.Net.Partitioned(0, 1) {
		t.Fatal("heal event did not remove the partition")
	}
}

// TestApplyPlanClockEvents: the clock-step plan steps the first deployment
// clock +60ms at 5 s and back at 9 s, addressed through the deployment's
// clock factory.
func TestApplyPlanClockEvents(t *testing.T) {
	spec := ClusterSpec{Protocol: "Tiga", Shards: 2, F: 1, CoordsPerRegion: 1, Seed: 7}
	d := Build(spec)
	if len(d.Clocks.Adjustables()) == 0 {
		t.Fatal("Tiga deployment created no adjustable clocks")
	}
	ApplyPlan(d, spec, "clock-step")
	d.Sim.Run(6 * time.Second)
	if off := d.Clocks.Adjustables()[0].Offset(); off != 60*time.Millisecond {
		t.Fatalf("after the step event: offset %v, want 60ms", off)
	}
	d.Sim.Run(10 * time.Second)
	if off := d.Clocks.Adjustables()[0].Offset(); off != 0 {
		t.Fatalf("after the step-back event: offset %v, want 0", off)
	}
}

// TestApplyPlanUnknownPanics: programmatic callers get the same fail-fast
// behavior the CLI turns into exit 2.
func TestApplyPlanUnknownPanics(t *testing.T) {
	spec := ClusterSpec{Protocol: "Tiga", Shards: 2, F: 1, CoordsPerRegion: 1, Seed: 7}
	d := Build(spec)
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyPlan accepted an unregistered plan")
		}
	}()
	ApplyPlan(d, spec, "nosuch-plan")
}

// TestChaosClockFaultsNoOpWithoutClocks: clock events against a protocol
// that never reads a clock must be inert, not crash the applier.
func TestChaosClockFaultsNoOpWithoutClocks(t *testing.T) {
	spec := ClusterSpec{Protocol: "2PL+Paxos", Shards: 2, F: 1, CoordsPerRegion: 1, Seed: 7}
	d := Build(spec)
	if n := len(d.Clocks.Adjustables()); n != 0 {
		t.Fatalf("2PL+Paxos created %d clocks; expected none", n)
	}
	ApplyPlan(d, spec, "ntp-insanity")
	d.Sim.Run(12 * time.Second) // all events fire against zero clocks
}

// TestChaosMatrixDeterministicAcrossWorkers: a fixed-seed chaos matrix
// encodes byte-identically (every typed cell, note and metadata stamp) no
// matter how the parallel driver schedules its cells — the same guarantee every other sweep carries, extended to runs
// with mid-flight faults.
func TestChaosMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (quick-mode) fault-window experiments; skipped under -short")
	}
	encode := func(workers int) []byte {
		o := Options{Quick: true, Keys: 800, Seed: 42, Workers: workers,
			Protocols: []string{"Tiga"}, Plans: []string{"leader-crash", "clock-step"},
			// Halve the driven rate to keep the double run affordable; the
			// off-default operating point is itself part of the encoded
			// bytes being compared.
			Ops: map[string]OpPoint{"Tiga": {SaturationRate: 150, Outstanding: 300}}}
		return encodeReport(t, ChaosMatrix(o))
	}
	serial, parallel := encode(1), encode(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("chaos matrix differs across -workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestChaosMatrixCheckerPassesEveryPlan is the acceptance pin for the
// paper's claim under chaos: across every registered plan — crashes,
// partitions, link faults, clock steps and freezes — Tiga's committed
// history stays strictly serializable with unique timestamps. Clock
// misbehavior may only hurt performance, never correctness.
func TestChaosMatrixCheckerPassesEveryPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one fault-window experiment per registered plan; skipped under -short")
	}
	o := Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"Tiga"},
		// A gentler operating point keeps 7 fault-window runs affordable;
		// the checker's verdict does not depend on the driving rate.
		Ops: map[string]OpPoint{"Tiga": {SaturationRate: 150, Outstanding: 300}}}
	rep := ChaosMatrix(o)
	var buf bytes.Buffer
	report.Render(&buf, rep)
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Fatalf("serializability check failed under a chaos plan:\n%s", out)
	}
	if !strings.Contains(out, "Tiga: ok (") {
		t.Fatalf("checker did not run for Tiga:\n%s", out)
	}
	rows := 0
	for _, tab := range rep.Tables {
		if !strings.HasPrefix(tab.ID, "chaos/") {
			continue
		}
		rows += len(tab.Rows)
		// Every plan's fault window must actually have driven load on each
		// side of it (pre phase commits for a working protocol).
		phase, thpt := tab.Column("phase"), tab.Column("thpt")
		for i := range phase {
			if phase[i].Str == "pre" && thpt[i].Float == 0 {
				t.Errorf("%s: no pre-fault throughput — the fault window ate the whole run", tab.ID)
			}
		}
	}
	// +1: whenever wan-partition is selected, the matrix replays it on
	// planet5's asymmetric WAN as an extra chaos × topology section.
	if want := 3 * (len(chaos.Names()) + 1); rows != want {
		t.Fatalf("matrix produced %d rows, want %d (3 phases × (%d plans + planet5 rider))",
			rows, want, len(chaos.Names()))
	}
}

// TestChaosRiderResolvesOpOnItsOwnTopology: the planet5 replay of
// wan-partition is driven at the operating point keyed to planet5 — not at
// the classic WAN's, which the -op overlay used to be resolved against
// before the topology was swapped in — and calls the off-shared rate out
// like every other table.
func TestChaosRiderResolvesOpOnItsOwnTopology(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"Tiga"},
		Plans: []string{"wan-partition"},
		Ops: map[string]OpPoint{
			"Tiga":         {SaturationRate: 100},
			"Tiga@planet5": {SaturationRate: 50},
		}}
	rep := ChaosMatrix(o)
	classic, rider := rep.Find("chaos/wan-partition"), rep.Find("chaos/wan-partition@planet5")
	if got := classic.Meta["cell_rates"]; got != "Tiga=100/coord" {
		t.Errorf("classic table driven at %q, want Tiga=100/coord", got)
	}
	if got := rider.Meta["cell_rates"]; got != "Tiga=50/coord" {
		t.Errorf("planet5 table driven at %q, want Tiga=50/coord", got)
	}
	pre, riderPre := classic.Column("thpt")[0].Float, rider.Column("thpt")[0].Float
	if riderPre <= 0 || riderPre > 0.75*pre {
		t.Errorf("planet5 pre-fault throughput %.0f vs classic %.0f: the half-rate operating point did not reach the run", riderPre, pre)
	}
}
