package harness

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/report"
	"tiga/internal/simnet"
	"tiga/internal/workload"
)

// TestTopologyReachesDeployment verifies the ClusterSpec.Topology plumbing:
// a named topology shapes the coordinator placement, the region labels, and
// the WAN the deployment runs on; the default stays geo4.
func TestTopologyReachesDeployment(t *testing.T) {
	spec, gen := microSpec("Tiga", 42)
	d := Build(spec)
	if d.Topology == nil || d.Topology.Name != simnet.DefaultTopology {
		t.Fatalf("default deployment topology = %v, want geo4", d.Topology)
	}

	spec2, gen2 := microSpec("Tiga", 42)
	spec2.Topology = "us-eu3"
	d2 := Build(spec2)
	if d2.Topology.Name != "us-eu3" {
		t.Fatalf("topology = %q, want us-eu3", d2.Topology.Name)
	}
	// Remote coordinators land in the topology's remote region (Frankfurt),
	// not geo4's Hong Kong.
	last := d2.CoordRegions[len(d2.CoordRegions)-1]
	if name := d2.Topology.RegionName(last); name != "Frankfurt" {
		t.Fatalf("remote coordinator in %q, want Frankfurt", name)
	}
	// And the latency buckets use the topology's names.
	res := RunLoad(d2, gen2, LoadSpec{RatePerCoord: 20, Warmup: 500 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 5})
	if res.Run.Counters.Committed == 0 {
		t.Fatal("us-eu3 deployment committed nothing")
	}
	for region := range res.Run.ByRegion {
		switch region {
		case "Virginia", "Oregon", "Frankfurt":
		default:
			t.Fatalf("unexpected region bucket %q under us-eu3", region)
		}
	}
	// Same spec on geo4 must differ — the WAN is part of the result.
	res1 := RunLoad(d, gen, LoadSpec{RatePerCoord: 20, Warmup: 500 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 5})
	if res1.Run.Lat.Percentile(50) == res.Run.Lat.Percentile(50) {
		t.Log("note: geo4 and us-eu3 p50 coincide (possible but unlikely)")
	}
}

// TestUnknownTopologyPanics pins the failure mode, mirroring unknown
// protocols: Build fails fast naming the registered topologies.
func TestUnknownTopologyPanics(t *testing.T) {
	spec, _ := microSpec("Tiga", 42)
	spec.Topology = "nosuch"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build accepted an unknown topology")
		}
		if s, _ := r.(string); !strings.Contains(s, "geo4") {
			t.Fatalf("panic %v does not list the registered topologies", r)
		}
	}()
	Build(spec)
}

// TestEnsureGenResolvesWorkload verifies the ClusterSpec.Workload plumbing:
// a named workload resolves through the registry exactly once (the same
// generator seeds the stores and drives the load), typed parameters reach
// the generator, an explicit Gen wins, and unknown names error with the
// valid list.
func TestEnsureGenResolvesWorkload(t *testing.T) {
	spec := ClusterSpec{
		Protocol: "Tiga", Shards: 3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, Seed: 42,
		Workload: "micro", WorkloadKeys: 500,
		WorkloadParams: map[string]any{"skew": 0.9},
	}
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.Gen.(*workload.Synthetic); !ok {
		t.Fatalf("workload %q resolved to %T", spec.Workload, spec.Gen)
	}
	// The params reached the generator: it draws what a MicroBench of 500
	// keys at skew 0.9 draws.
	same := workload.NewMicroBench(3, 500, 0.9)
	a, b := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got, want := spec.Gen.Next(a), same.Next(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: %+v, want %+v", i, got.T.Pieces, want.T.Pieces)
		}
	}

	explicit := workload.NewMicroBench(3, 100, 0.5)
	spec2 := spec
	spec2.Gen = explicit
	if err := spec2.EnsureGen(); err != nil || spec2.Gen != explicit {
		t.Fatal("explicit Gen did not win over the named workload")
	}

	spec3 := spec
	spec3.Gen, spec3.Workload = nil, "nosuch"
	if err := spec3.EnsureGen(); err == nil || !strings.Contains(err.Error(), "micro") {
		t.Fatalf("unknown workload error %v does not list the registered names", err)
	}

	spec4 := spec
	spec4.Gen, spec4.WorkloadParams = nil, map[string]any{"nosuch": 1}
	if err := spec4.EnsureGen(); err == nil {
		t.Fatal("unknown workload parameter accepted")
	}
}

// TestScenarioMatrixDeterministic is the scenario-layer determinism pin: a
// fixed-seed matrix cell over non-default topologies and the new workloads
// is byte-identical across two runs and across -workers settings. A
// regression here means shared mutable state leaked into the registries or
// the resolved generators.
func TestScenarioMatrixDeterministic(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42,
		Protocols:  []string{"Tiga", "Janus"},
		Topologies: []string{"us-eu3", "planet5"},
		Workloads:  []string{"ycsbt", "hotwrite"},
	}
	run := func(workers int) *report.Report {
		oo := o
		oo.Workers = workers
		return ScenarioMatrix(oo)
	}
	a, b := run(1), run(4) // two runs, different -workers settings
	if !bytes.Equal(encodeReport(t, a), encodeReport(t, b)) {
		t.Fatalf("encoded report differs across runs/-workers settings:\n%s\n%s", encodeReport(t, a), encodeReport(t, b))
	}
	rows, committed := 0, 0
	for _, tab := range a.Tables {
		if !strings.HasPrefix(tab.ID, "scenarios/") {
			continue
		}
		rows += len(tab.Rows)
		for _, thpt := range tab.Column("thpt") {
			if thpt.Float > 0 {
				committed++
			}
		}
	}
	if rows != 8 {
		t.Fatalf("matrix produced %d rows, want 8 (2 protocols × 2 topologies × 2 workloads)", rows)
	}
	if committed == 0 {
		t.Fatal("no matrix cell committed anything")
	}
}

// TestScenarioMatrixPanicsOnUnknownAxis pins the programmatic failure mode
// (the CLI validates first and exits 2).
func TestScenarioMatrixPanicsOnUnknownAxis(t *testing.T) {
	for _, o := range []Options{
		{Quick: true, Topologies: []string{"nosuch"}},
		{Quick: true, Workloads: []string{"nosuch"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ScenarioMatrix accepted an unknown axis name")
				}
			}()
			ScenarioMatrix(o)
		}()
	}
}

// TestValidateRejectsUnknownNames: Options.Validate names every kind of
// unknown name, and an experiment handed an unknown protocol panics instead
// of rendering without it.
func TestValidateRejectsUnknownNames(t *testing.T) {
	valid := Options{Protocols: []string{"Tiga", "Janus"}, Topologies: []string{"us-eu3"},
		Workloads: []string{"ycsbt"}, Plans: []string{"leader-crash"},
		Knobs: map[string]map[string]any{"Tiga": {"delta": time.Millisecond}},
		Ops:   map[string]OpPoint{"Janus": {SaturationRate: 1}, "Tiga@planet5": {SaturationRate: 1}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, c := range []struct {
		want string
		edit func(o *Options)
	}{
		{`unknown protocol "Tgia"`, func(o *Options) { o.Protocols = []string{"Tiga", "Tgia"} }},
		{`unknown protocol "Tgia"`, func(o *Options) { o.Knobs = map[string]map[string]any{"Tgia": {"delta": 1}} }},
		{`unknown protocol "Tgia"`, func(o *Options) { o.Ops = map[string]OpPoint{"Tgia": {SaturationRate: 1}} }},
		{`unknown protocol "Tgia"`, func(o *Options) { o.Ops = map[string]OpPoint{"Tgia@us-eu3": {SaturationRate: 1}} }},
		{`unknown topology "mars"`, func(o *Options) { o.Ops = map[string]OpPoint{"Tiga@mars": {SaturationRate: 1}} }},
		{`unknown topology "mars"`, func(o *Options) { o.Topologies = []string{"mars"} }},
		{`unknown workload "mars"`, func(o *Options) { o.Workloads = []string{"mars"} }},
		{`unknown chaos plan "mars"`, func(o *Options) { o.Plans = []string{"mars"} }},
	} {
		o := valid
		c.edit(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate() = %v, want %s", err, c.want)
		}
	}

	// Table 2 selects no protocol and Fig 11 drives one fixed protocol, so
	// neither would otherwise look the name up.
	for _, c := range []struct {
		name string
		run  func(Options) *report.Report
		o    Options
	}{
		{"table2", Table2, Options{Quick: true, Protocols: []string{"Tgia"}}},
		{"fig11", Fig11, Options{Quick: true, Ops: map[string]OpPoint{"Tgia": {SaturationRate: 1}}}},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, `unknown protocol "Tgia"`) {
					t.Errorf("%s with an unknown protocol panicked with %q", c.name, r)
				}
			}()
			rep := c.run(c.o)
			t.Errorf("%s with an unknown protocol rendered %d tables", c.name, len(rep.Tables))
		}()
	}
}

// TestCellOperatingPointResolution pins the matrix operating-point lookup
// order without running any simulation: the protocol × topology key wins
// over the protocol-wide key, which wins over the shared rate; outstanding
// caps resolve the same way, and the overlay reads the spec's own topology.
func TestCellOperatingPointResolution(t *testing.T) {
	o := Options{Quick: true, Keys: 500, Seed: 42, Ops: map[string]OpPoint{
		"Tiga":          {SaturationRate: 900, Outstanding: 150},
		"Tiga@us-eu3":   {SaturationRate: 2000},
		"Janus@planet5": {SaturationRate: 700, Outstanding: 50},
	}}
	cases := []struct {
		proto, topo string
		wantRate    float64
		wantOut     int
	}{
		{"Tiga", "us-eu3", 2000, 150}, // cell key overlays: rate from the cell, cap inherited from the protocol-wide key
		{"Tiga", "planet5", 900, 150}, // falls back to the protocol-wide key
		{"Janus", "planet5", 700, 50}, // cell key, both fields
		{"Janus", "us-eu3", 250, 400}, // no key at all: shared quick rate + default cap
		{"Detock", "geo4", 250, 400},  // untouched protocol
	}
	for _, tc := range cases {
		pt := o.cell(o.scenarioSpec(tc.proto, tc.topo, "micro"),
			OpPoint{SaturationRate: o.scenarioRate(), Outstanding: 400}, LoadSpec{})
		if pt.Load.RatePerCoord != tc.wantRate || pt.Load.Outstanding != tc.wantOut {
			t.Errorf("%s@%s: rate/outstanding = %v/%d, want %v/%d",
				tc.proto, tc.topo, pt.Load.RatePerCoord, pt.Load.Outstanding, tc.wantRate, tc.wantOut)
		}
	}
}

// TestClassicTopologySelection pins the classic experiments' WAN choice: the
// first selected topology wins, the default is geo4, and the region labels
// the experiments print come from the topology.
func TestClassicTopologySelection(t *testing.T) {
	if got := (Options{}).classicTopology().Name; got != simnet.DefaultTopology {
		t.Fatalf("default classic topology = %q", got)
	}
	o := Options{Topologies: []string{"us-eu3", "planet5"}}
	topo := o.classicTopology()
	if topo.Name != "us-eu3" {
		t.Fatalf("classic topology = %q, want us-eu3 (first selected)", topo.Name)
	}
	if topo.RegionName(0) != "Virginia" || topo.RegionCode(topo.RemoteCoordRegion) != "FR" {
		t.Fatalf("labels did not resolve: %q / %q", topo.RegionName(0), topo.RegionCode(topo.RemoteCoordRegion))
	}
	spec := o.microSpec("Tiga", 0.5, false, clocks.ModelChrony)
	if spec.Topology != "us-eu3" {
		t.Fatalf("microSpec topology = %q, want us-eu3", spec.Topology)
	}
}
