package harness

import (
	"bytes"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/report"
)

// TestScaleOutDeterministic is the open-loop determinism pin: a fixed-seed
// shards × replication sweep — Poisson arrivals, admission gates armed — is
// byte-identical across runs and across -workers settings. A regression here
// means rng state leaked between the arrival draw and the submission, or the
// admission gate picked up wall-clock state.
func TestScaleOutDeterministic(t *testing.T) {
	o := Options{Quick: true, Keys: 24_000, Seed: 42,
		Protocols: []string{"Tiga", "2PL+Paxos"},
		// Modest operating points keep the sweep fast; the production rates
		// are the experiment's business, not the determinism pin's.
		Ops: map[string]OpPoint{
			"Tiga":      {SaturationRate: 500, Outstanding: 150},
			"2PL+Paxos": {SaturationRate: 250, Outstanding: 100},
		},
	}
	run := func(workers int) *report.Report {
		oo := o
		oo.Workers = workers
		return ScaleOut(oo)
	}
	a, b := run(1), run(4)
	if !bytes.Equal(encodeReport(t, a), encodeReport(t, b)) {
		t.Fatalf("encoded report differs across -workers settings:\n%s\n%s", encodeReport(t, a), encodeReport(t, b))
	}
	cells := a.Find("scaleout/cells")
	if len(cells.Rows) != 4 { // 2 protocols × shards {3,6} × F {1}
		t.Fatalf("scale-out sweep produced %d rows, want 4", len(cells.Rows))
	}
	committed := 0
	for _, thpt := range cells.Column("thpt") {
		if thpt.Float > 0 {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no scale-out cell committed anything")
	}
}

// TestAdmissionShedsNotWedges drives OCC+Paxos — the recorded congestion
// collapser (saturation 250/coord, EXPERIMENTS.md operating points) — at 3×
// its saturation rate under open-loop Poisson arrival with the admission gate
// armed. The pin is the ISSUE's overload contract: the coordinator sheds the
// excess (Shed > 0) while the protocol keeps serving to the end of the run
// (commits in the last quarter of the window) at bounded service latency,
// instead of the unbounded-backlog collapse the no-fault control rows show.
func TestAdmissionShedsNotWedges(t *testing.T) {
	spec := ClusterSpec{
		Protocol: "OCC+Paxos", Workload: "micro", WorkloadKeys: 2000,
		WorkloadParams: map[string]any{"skew": 0.5},
		Shards:         3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 21,
	}
	spec.SetKnob("OCC+Paxos", "admit-cap", 200)
	spec.SetKnob("OCC+Paxos", "admit-queue", 200)
	spec.SetKnob("OCC+Paxos", "vote-timeout", time.Second)
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	d := Build(spec)
	dur := 8 * time.Second
	res := RunLoad(d, spec.Gen, LoadSpec{
		Arrival: "poisson", RatePerCoord: 750,
		Duration: dur, Seed: 22, TrackSamples: true,
	})
	run := res.Run
	if run.Counters.Shed == 0 {
		t.Fatal("3× saturation shed nothing — the admission gate is not engaging")
	}
	if run.Counters.Committed == 0 {
		t.Fatal("nothing committed under overload")
	}
	var lastQuarter int
	for _, s := range res.Samples {
		if s.At >= run.End-dur/4 {
			lastQuarter++
		}
	}
	if lastQuarter == 0 {
		t.Fatalf("no commits in the last quarter of the window — the system wedged (committed=%d shed=%d)",
			run.Counters.Committed, run.Counters.Shed)
	}
	if p99 := run.Lat.Percentile(99); p99 >= 5*time.Second {
		t.Errorf("service p99 = %v under shedding, want bounded (< 5s)", p99)
	}
	if qp99 := run.QueueLat.Percentile(99); qp99 >= 5*time.Second {
		t.Errorf("queue p99 = %v with a 200-deep queue, want bounded (< 5s)", qp99)
	}
	t.Logf("OCC+Paxos @3×: %s shed=%d queue-p99=%v",
		run, run.Counters.Shed, run.QueueLat.Percentile(99))
}

// TestFTwoPlacementWraps pins the replica→region wrap: F=2 puts 2F+1 = 5
// replicas per shard on geo4's 4 regions, so replica 4 must wrap back to
// region 0 instead of indexing past the topology's OWD matrix. The quick
// sweeps only exercise F=1, and the Tiga factory used to build its own
// unwrapped placement — the scale-out sweep's F=2 column panicked at Build.
func TestFTwoPlacementWraps(t *testing.T) {
	for _, proto := range []string{"Tiga", "2PL+Paxos"} {
		spec := ClusterSpec{
			Protocol: proto, Workload: "micro", WorkloadKeys: 1000,
			WorkloadParams: map[string]any{"skew": 0.5},
			Shards:         3, F: 2, Clock: clocks.ModelChrony,
			CoordsPerRegion: 1, CoordsRemote: 1, Seed: 3,
		}
		if proto == "2PL+Paxos" {
			spec.SetKnob(proto, "vote-timeout", time.Second)
		}
		if err := spec.EnsureGen(); err != nil {
			t.Fatal(err)
		}
		d := Build(spec)
		res := RunLoad(d, spec.Gen, LoadSpec{
			Arrival: "poisson", RatePerCoord: 100,
			Duration: 2 * time.Second, Seed: 4,
		})
		if res.Run.Counters.Committed == 0 {
			t.Errorf("%s: nothing committed at F=2 (5 replicas on 4 regions)", proto)
		}
	}
}

// versionCounter is the diagnostic both GC-capable systems expose: retained
// committed-version count summed across every replica store.
type versionCounter interface{ TotalVersions() int }

// gcPlateauRun drives one sustained write-heavy run with local reads on and
// version-gc per the flag, sampling the cluster-wide retained version count
// early (t1) and late (t2).
func gcPlateauRun(t *testing.T, proto string, gc bool, t1, t2 time.Duration) (v1, v2 int, res *RunResult) {
	t.Helper()
	spec := ClusterSpec{
		Protocol: proto, Workload: "ycsbt", WorkloadKeys: 150,
		WorkloadParams: map[string]any{"skew": 0.9, "read-ratio": 0.2},
		Shards:         3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 5,
	}
	spec.SetKnob(proto, "local-reads", true)
	spec.SetKnob(proto, "read-staleness", 50*time.Millisecond)
	spec.SetKnob(proto, "version-gc", gc)
	if proto == "2PL+Paxos" || proto == "OCC+Paxos" {
		spec.SetKnob(proto, "vote-timeout", time.Second)
	}
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	d := Build(spec)
	vc, ok := d.Sys.(versionCounter)
	if !ok {
		t.Fatalf("%s system has no TotalVersions diagnostic", proto)
	}
	d.Sim.At(t1, func() { v1 = vc.TotalVersions() })
	d.Sim.At(t2, func() { v2 = vc.TotalVersions() })
	res = RunLoad(d, spec.Gen, LoadSpec{
		RatePerCoord: 150, Outstanding: 200, Duration: t2 + time.Second,
		Seed: 9, Check: true, LocalReads: true,
	})
	return v1, v2, res
}

// TestVersionGCPlateau is the ISSUE's memory pin: with local reads and
// version-gc on, the retained version count plateaus under sustained write
// load (the GC horizon trails the replica watermarks by the staleness bound
// plus slack, so steady state retains a bounded window), while the GC-off
// control keeps growing. The snapshot-read checker stays armed on the GC run:
// every local read must still observe the newest committed version at-or-below
// its snapshot, i.e. pruning never changed a result a live read could see.
func TestVersionGCPlateau(t *testing.T) {
	const t1, t2 = 4 * time.Second, 11 * time.Second
	for _, proto := range []string{"Tiga", "2PL+Paxos"} {
		v1, v2, res := gcPlateauRun(t, proto, true, t1, t2)
		if v1 == 0 {
			t.Fatalf("%s: no versions retained by %v — the multi-version store is not engaged", proto, t1)
		}
		if float64(v2) > 1.25*float64(v1) {
			t.Errorf("%s: versions grew %d -> %d over %v of sustained writes with GC on, want plateau (≤ 1.25×)",
				proto, v1, v2, t2-t1)
		}
		if res.Run.Counters.LocalReads == 0 {
			t.Fatalf("%s: no local reads issued — the GC-safety check is vacuous", proto)
		}
		if len(res.SnapReads) == 0 {
			t.Fatalf("%s: no snapshot-read observations collected", proto)
		}
		if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
			t.Errorf("%s: GC changed a live read's result: %v", proto, err)
		}

		c1, c2, _ := gcPlateauRun(t, proto, false, t1, t2)
		if float64(c2) < 1.8*float64(c1) {
			t.Errorf("%s control: versions %d -> %d with GC off, want unbounded growth (≥ 1.8×) — the plateau assertion above is not measuring GC",
				proto, c1, c2)
		}
		t.Logf("%s: gc on %d -> %d, gc off %d -> %d", proto, v1, v2, c1, c2)
	}
}
