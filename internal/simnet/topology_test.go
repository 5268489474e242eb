package simnet

import (
	"strings"
	"testing"
	"time"
)

// TestTopologyRegistryComplete pins the canonical topology set: a layout
// missing here was either renamed or lost its init-time registration. The
// default comes first so discovery listings lead with the paper's WAN.
func TestTopologyRegistryComplete(t *testing.T) {
	want := []string{"geo4", "geo4-degraded", "planet5", "us-eu3"}
	got := TopologyNames()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopologyNames()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	for _, name := range want {
		topo, err := LookupTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		if topo.NumRegions() < 3 || topo.ServerRegions < 1 || topo.ServerRegions > topo.NumRegions() {
			t.Fatalf("%s: implausible shape: %d regions, %d server regions", name, topo.NumRegions(), topo.ServerRegions)
		}
		if topo.RegionName(Region(topo.NumRegions())) != "Unknown" {
			t.Fatalf("%s: out-of-range region did not map to Unknown", name)
		}
	}
}

// TestServerPlacement pins the one placement rule on four server regions:
// co-located, replica r is in region r mod 4 whatever the shard; rotated,
// shard s's replica r is in region (r+s) mod 4, so the leaders (replica 0)
// of shards 0..4 sit in regions 0, 1, 2, 3, 0.
func TestServerPlacement(t *testing.T) {
	for _, c := range []struct {
		rotated bool
		want    [5][5]Region // [shard][replica]
	}{
		{false, [5][5]Region{{0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}, {0, 1, 2, 3, 0}}},
		{true, [5][5]Region{{0, 1, 2, 3, 0}, {1, 2, 3, 0, 1}, {2, 3, 0, 1, 2}, {3, 0, 1, 2, 3}, {0, 1, 2, 3, 0}}},
	} {
		place := ServerPlacement(4, c.rotated)
		for s, row := range c.want {
			for r, want := range row {
				if got := place(s, r); got != want {
					t.Errorf("rotated=%v: shard %d replica %d in region %d, want %d", c.rotated, s, r, got, want)
				}
			}
		}
	}
}

// TestGeo4TopologyMatchesGeoConfig guards the byte-for-byte default: the
// registered geo4 topology must materialize exactly the Config every
// pre-registry experiment built via GeoConfig, including the 500 µs jitter
// default the harness used to apply by hand.
func TestGeo4TopologyMatchesGeoConfig(t *testing.T) {
	topo, _ := LookupTopology(DefaultTopology)
	got := topo.Config(0)
	want := GeoConfig(500*time.Microsecond, 0)
	if got.LossRate != want.LossRate || got.DefaultCost != want.DefaultCost {
		t.Fatalf("geo4 config differs: %+v vs %+v", got, want)
	}
	for i := range want.OWD {
		for j := range want.OWD[i] {
			if got.OWD[i][j] != want.OWD[i][j] {
				t.Fatalf("geo4 OWD[%d][%d] = %+v, want %+v", i, j, got.OWD[i][j], want.OWD[i][j])
			}
		}
	}
	for r := 0; r < topo.NumRegions(); r++ {
		if topo.RegionName(Region(r)) != RegionName(Region(r)) {
			t.Fatalf("geo4 region %d named %q, want %q", r, topo.RegionName(Region(r)), RegionName(Region(r)))
		}
	}
}

// TestPlanet5Asymmetry pins the planet5 layout's defining property: the
// return direction of every inter-region link is slower than the forward
// direction.
func TestPlanet5Asymmetry(t *testing.T) {
	topo, _ := LookupTopology("planet5")
	owd := topo.OWD(0)
	asym := 0
	for a := 0; a < topo.NumRegions(); a++ {
		for b := a + 1; b < topo.NumRegions(); b++ {
			if owd[a][b].Base != owd[b][a].Base {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("planet5 has no asymmetric links")
	}
}

// TestDegradedTopologyDefaults verifies selecting the degraded WAN by name is
// enough to get elevated jitter and loss — no per-spec overrides needed — and
// that an explicit loss still overrides the default.
func TestDegradedTopologyDefaults(t *testing.T) {
	topo, _ := LookupTopology("geo4-degraded")
	cfg := topo.Config(0)
	if cfg.LossRate == 0 {
		t.Fatal("degraded WAN has no default loss")
	}
	if cfg.OWD[0][1].Jitter < time.Millisecond {
		t.Fatalf("degraded WAN jitter %v not elevated", cfg.OWD[0][1].Jitter)
	}
	// An explicit loss still wins.
	if cfg = topo.Config(0.2); cfg.LossRate != 0.2 {
		t.Fatalf("explicit loss %v did not override the default", cfg.LossRate)
	}
}

// TestRegisterTopologyValidation pins the registration failure modes.
func TestRegisterTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		want string
	}{
		{"missing owd", Topology{Name: "x", RegionNames: []string{"a"}, ServerRegions: 1}, "OWD builder"},
		{"duplicate", Topology{Name: "geo4", RegionNames: []string{"a"}, ServerRegions: 1,
			OWD: func(j time.Duration) [][]Latency { return [][]Latency{{{}}} }}, "duplicate"},
		{"bad server regions", Topology{Name: "x", RegionNames: []string{"a"}, ServerRegions: 2,
			OWD: func(j time.Duration) [][]Latency { return [][]Latency{{{}}} }}, "ServerRegions"},
		{"bad coord region", Topology{Name: "x", RegionNames: []string{"a"}, ServerRegions: 1, RemoteCoordRegion: 5,
			OWD: func(j time.Duration) [][]Latency { return [][]Latency{{{}}} }}, "RemoteCoordRegion"},
		{"bad matrix", Topology{Name: "x", RegionNames: []string{"a", "b"}, ServerRegions: 1,
			OWD: func(j time.Duration) [][]Latency { return [][]Latency{{{}}} }}, "OWD matrix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("RegisterTopology accepted %q", tc.name)
				}
				if s, _ := r.(string); !strings.Contains(s, tc.want) {
					t.Fatalf("panic %q does not mention %q", r, tc.want)
				}
			}()
			RegisterTopology(tc.topo)
		})
	}
}

// TestRegionCodes pins the short column-header labels: registered codes win,
// the paper's WAN keeps its SC/HK initials, and topologies without declared
// codes fall back to word initials.
func TestRegionCodes(t *testing.T) {
	geo4, _ := LookupTopology(DefaultTopology)
	if geo4.RegionCode(0) != "SC" || geo4.RegionCode(geo4.RemoteCoordRegion) != "HK" {
		t.Fatalf("geo4 codes = %q/%q, want SC/HK",
			geo4.RegionCode(0), geo4.RegionCode(geo4.RemoteCoordRegion))
	}
	useu, _ := LookupTopology("us-eu3")
	if useu.RegionCode(2) != "FR" {
		t.Fatalf("us-eu3 Frankfurt code = %q, want FR", useu.RegionCode(2))
	}
	// Fallback derivation: no declared codes → word initials, upper-cased.
	anon := Topology{RegionNames: []string{"South Carolina", "tokyo"}}
	if got := anon.RegionCode(0); got != "SC" {
		t.Fatalf("derived code = %q, want SC", got)
	}
	if got := anon.RegionCode(1); got != "T" {
		t.Fatalf("derived code = %q, want T", got)
	}
	if got := anon.RegionCode(9); got != "??" {
		t.Fatalf("out-of-range code = %q, want ??", got)
	}
}

// TestNearest: the nearest replica is the one the shortest round trip away,
// the lowest index on ties.
func TestNearest(t *testing.T) {
	const far, near = 50 * time.Millisecond, time.Millisecond
	m := make([][]Latency, 4)
	for a := range m {
		m[a] = make([]Latency, 4)
		for b := range m[a] {
			m[a][b] = Latency{Base: far}
		}
	}
	m[3][2], m[2][3] = Latency{Base: near}, Latency{Base: near}
	net := NewNetwork(NewSim(1), Config{OWD: m})
	regionOf := func(rep int) Region { return Region(rep) }
	if got := Nearest(net, 3, 3, regionOf); got != 2 {
		t.Errorf("from region 3 (1 ms from replica 2's) picked replica %d, want 2", got)
	}
	if got := Nearest(net, 0, 3, func(rep int) Region { return Region(rep + 1) }); got != 0 {
		t.Errorf("all replicas equally far: picked %d, want the lowest index", got)
	}
}
