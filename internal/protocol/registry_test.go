// The smoke test lives in an external test package so it can drive the
// registry through the harness (which imports protocol) without a cycle.
// Importing the harness also pulls in every protocol's self-registration.
package protocol_test

import (
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/workload"
)

// TestRegistryComplete pins the canonical registration set: a protocol
// missing here was either renamed or lost its init-time Register call.
func TestRegistryComplete(t *testing.T) {
	want := []string{"2PL+Paxos", "OCC+Paxos", "Tapir", "Janus", "Calvin+", "NCC", "NCC+", "Detock", "Tiga"}
	got := protocol.Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	for _, name := range want {
		if d, err := protocol.Lookup(name); err != nil || d.Name != name || d.Cost.Exec <= 0 {
			t.Fatalf("Lookup(%q) = %+v, %v; want a positive Exec multiplier", name, d, err)
		}
	}
}

// TestRegistrySmoke builds every registered protocol on a tiny cluster,
// commits transactions through it, and requires commits through each of its
// three coordinators — so a new protocol cannot register without actually
// working end to end.
func TestRegistrySmoke(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			gen := workload.NewMicroBench(3, 500, 0.5)
			d := harness.Build(harness.ClusterSpec{
				Protocol: name, Shards: 3, F: 1, Clock: clocks.ModelChrony,
				CoordsPerRegion: 1, Seed: 31, Gen: gen,
			})
			if d.Sys == nil {
				t.Fatal("Build returned a nil system")
			}
			res := harness.RunLoad(d, gen, harness.LoadSpec{
				RatePerCoord: 20, Warmup: 500 * time.Millisecond,
				Duration: 2 * time.Second, Seed: 5, TrackSamples: true,
			})
			if res.Run.Counters.Committed == 0 {
				t.Fatalf("%s committed no transactions (submitted %d)",
					name, res.Run.Counters.Submitted)
			}
			// One coordinator per region: a sample's region names its coordinator.
			commits := map[string]int{}
			for _, s := range res.Samples {
				commits[s.Region]++
			}
			if len(d.CoordRegions) != 3 {
				t.Fatalf("%d coordinators, want 3", len(d.CoordRegions))
			}
			for ci, r := range d.CoordRegions {
				if commits[d.Topology.RegionName(r)] == 0 {
					t.Errorf("coordinator %d (%s) committed nothing", ci, d.Topology.RegionName(r))
				}
			}
		})
	}
}

// TestBuildUnknownProtocol verifies the registry rejects unknown names with
// an error listing the valid ones.
func TestBuildUnknownProtocol(t *testing.T) {
	_, err := protocol.Build("NoSuchProtocol", &protocol.BuildContext{}, time.Microsecond, time.Nanosecond)
	if err == nil {
		t.Fatal("Build accepted an unregistered protocol")
	}
}
