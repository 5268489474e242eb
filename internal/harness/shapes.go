package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/registry"
)

// Shape is one measured setup: a deployment and the load driven through it.
// The benchmark's workloads, the rows of the allocation budget test and
// cmd/allocprof all name one, so a number quoted for a shape can be
// reproduced from its name.
type Shape struct {
	Name string
	// Doc is a one-line description (cmd/allocprof -shape list).
	Doc string
	// build returns a fresh spec and load at scale (see LookupShape).
	build func(scale float64) (ClusterSpec, LoadSpec)
}

// Shapes returns every registered shape: the benchmark's workloads, with
// sweep-nine as one shape per protocol, then the allocation budget's rows.
func Shapes() []Shape { return shapes.All() }

// LookupShape resolves "name[@scale]" to a fresh deployment spec and load.
// scale (1 when absent) is the benchmark's rule: it multiplies the warm-up
// and the measured window, rounded to 1 ms, and the keys per shard, floored
// at 1 000; the benchmark's own test runs at 0.02.
func LookupShape(ref string) (ClusterSpec, LoadSpec, error) {
	name, at, scaled := strings.Cut(ref, "@")
	scale := 1.0
	if scaled {
		v, err := strconv.ParseFloat(at, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return ClusterSpec{}, LoadSpec{}, fmt.Errorf("shape %q: scale %q is not a positive finite number", ref, at)
		}
		scale = v
	}
	s, err := shapes.Lookup(name)
	if err != nil {
		return ClusterSpec{}, LoadSpec{}, err
	}
	spec, load := s.build(scale)
	return spec, load, nil
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Millisecond)
}

func scaleKeys(keys int, scale float64) int {
	return max(int(float64(keys)*scale), 1000)
}

// shapeCluster is the deployment every shape shares: geo4, chrony clocks,
// CPUScale testbed units, the testbed seed 42, and coords coordinators in
// each server region and as many in the remote one.
func shapeCluster(proto, wl string, shards, keys, coords int) ClusterSpec {
	return ClusterSpec{
		Protocol: proto, Workload: wl, WorkloadKeys: keys,
		Shards: shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: coords, CoordsRemote: coords, Seed: 42,
		CostScale: CPUScale,
	}
}

// shapeLoad is a closed loop at load seed 43 with its warm-up and window
// scaled.
func shapeLoad(rate float64, outstanding int, warmup, window time.Duration, scale float64) LoadSpec {
	return LoadSpec{
		RatePerCoord: rate, Outstanding: outstanding,
		Warmup: scaleDur(warmup, scale), Duration: scaleDur(window, scale), Seed: 43,
	}
}

// readsOpen turns a spec and its load into tiga-reads-open's: YCSB-T at
// skew 0.7 with 95 % reads per key arriving open-loop, read-only transactions
// served by the nearest replica 200 ms stale, behind an admission gate of
// admit running and admit queued per coordinator.
func readsOpen(spec *ClusterSpec, load *LoadSpec, admit int) {
	spec.Workload, spec.Shards = "ycsbt", 6
	spec.WorkloadParams = map[string]any{"skew": 0.7, "read-ratio": 0.95}
	spec.SetKnob("Tiga", "local-reads", true)
	spec.SetKnob("Tiga", "read-staleness", 200*time.Millisecond)
	spec.SetKnob("Tiga", "admit-cap", admit)
	spec.SetKnob("Tiga", "admit-queue", admit)
	load.Arrival, load.LocalReads = "poisson", true
}

// budgetShape is a row of TestTxnPathAllocBudget: proto on MicroBench over 3
// shards of 2 000 keys, one coordinator per server region and one remote, 100
// outstanding each at rate, 200 ms of warm-up and a 1 s window; tweak adjusts
// the rest.
func budgetShape(row, doc, proto string, rate float64, tweak func(*ClusterSpec, *LoadSpec, float64)) Shape {
	return Shape{"budget/" + row, doc, func(x float64) (ClusterSpec, LoadSpec) {
		spec := shapeCluster(proto, "micro", 3, scaleKeys(2000, x), 1)
		load := shapeLoad(rate, 100, 200*time.Millisecond, time.Second, x)
		if tweak != nil {
			tweak(&spec, &load, x)
		}
		return spec, load
	}}
}

// retryUntilCommit sets proto's max-retries to 100, so a refused attempt is
// retried until it commits and the run aborts nothing.
func retryUntilCommit(proto string) func(*ClusterSpec, *LoadSpec, float64) {
	return func(spec *ClusterSpec, _ *LoadSpec, _ float64) { spec.SetKnob(proto, "max-retries", 100) }
}

var shapes = registerShapes()

func registerShapes() *registry.Set[Shape] {
	// The benchmark's workloads run 8 coordinators (2 per server region and
	// 2 remote) after a 500 ms warm-up. The saturated Tiga runs stretch
	// retry-timeout from 1.2 s to 10 s, as the saturation experiments do:
	// their queueing delay reaches the default, and the retries it fires
	// would distort the measurement.
	out := []Shape{
		{"tiga-micro-sat", "Tiga at MicroBench saturation: 100 000 keys per shard, 300 outstanding per coordinator", func(x float64) (ClusterSpec, LoadSpec) {
			spec := shapeCluster("Tiga", "micro", 3, scaleKeys(100_000, x), 2)
			spec.WorkloadParams = map[string]any{"skew": 0.5}
			spec.SetKnob("Tiga", "retry-timeout", 10*time.Second)
			return spec, shapeLoad(3000, 300, 500*time.Millisecond, 2*time.Second, x)
		}},
		{"tiga-tpcc-sat", "Tiga on TPC-C at saturation: multi-key pieces, inserted rows, interactive chains over 6 shards", func(x float64) (ClusterSpec, LoadSpec) {
			spec := shapeCluster("Tiga", "tpcc", 6, scaleKeys(5000, x), 2)
			spec.SetKnob("Tiga", "retry-timeout", 10*time.Second)
			return spec, shapeLoad(1000, 300, 500*time.Millisecond, 3500*time.Millisecond, x)
		}},
		{"tiga-reads-open", "open-loop Poisson YCSB-T with local snapshot reads behind an admission gate of 300", func(x float64) (ClusterSpec, LoadSpec) {
			spec := shapeCluster("Tiga", "", 0, scaleKeys(100_000, x), 2)
			load := shapeLoad(6000, 0, 500*time.Millisecond, 2800*time.Millisecond, x)
			readsOpen(&spec, &load, 300)
			return spec, load
		}},
	}
	for _, proto := range protocol.Names() {
		out = append(out, Shape{"sweep-nine/" + proto, "the " + proto + " point of the nine-protocol MicroBench sweep", func(x float64) (ClusterSpec, LoadSpec) {
			spec := shapeCluster(proto, "micro", 3, scaleKeys(20_000, x), 2)
			spec.WorkloadParams = map[string]any{"skew": 0.5}
			// The rate is below every protocol's saturation point, and the
			// optimistic and lock-based baselines retry until they commit (a
			// wound-wait cycle presumes abort after 1 s, not 10 s), so no
			// transaction fails or outlives the run. Knobs named for another
			// protocol are inert.
			for _, p := range []string{"2PL+Paxos", "OCC+Paxos"} {
				spec.SetKnob(p, "max-retries", 100)
				spec.SetKnob(p, "vote-timeout", time.Second)
			}
			spec.SetKnob("Tapir", "max-retries", 100)
			return spec, shapeLoad(250, 400, 500*time.Millisecond, 2800*time.Millisecond, x)
		}})
	}
	out = append(out,
		budgetShape("closed", "Tiga's closed loop at 2 000 keys per shard", "Tiga", 500, nil),
		budgetShape("open", "Tiga's open-loop Poisson path at 2 000 keys per shard", "Tiga", 500, func(_ *ClusterSpec, load *LoadSpec, _ float64) {
			load.Arrival = "poisson"
		}),
		budgetShape("closed-100k", "Tiga's closed loop at 100 000 keys per shard for 2 s: every log crosses a checkpoint", "Tiga", 500, func(spec *ClusterSpec, load *LoadSpec, x float64) {
			spec.WorkloadKeys = scaleKeys(100_000, x)
			load.Duration = scaleDur(2*time.Second, x)
		}),
		budgetShape("closed-tpcc", "Tiga's closed loop on TPC-C over 6 shards", "Tiga", 500, func(spec *ClusterSpec, _ *LoadSpec, _ float64) {
			spec.Workload, spec.Shards = "tpcc", 6
		}),
		budgetShape("open-reads", "tiga-reads-open at test scale, behind an admission gate of 12", "Tiga", 500, func(spec *ClusterSpec, load *LoadSpec, _ float64) {
			readsOpen(spec, load, 12)
		}),
		budgetShape("closed-2pl", "2PL+Paxos's closed loop below saturation", "2PL+Paxos", 150, nil),
		budgetShape("closed-occ", "OCC+Paxos's closed loop below saturation, retrying until commit", "OCC+Paxos", 150, retryUntilCommit("OCC+Paxos")),
		budgetShape("closed-ncc", "NCC's closed loop below saturation", "NCC", 150, nil),
		budgetShape("closed-ncc+", "NCC+'s closed loop below saturation", "NCC+", 150, nil),
		budgetShape("closed-janus", "Janus's closed loop below saturation", "Janus", 150, nil),
		budgetShape("closed-tapir", "Tapir's closed loop below saturation, retrying until commit", "Tapir", 150, retryUntilCommit("Tapir")),
		budgetShape("closed-detock", "Detock's closed loop below saturation", "Detock", 150, nil),
		budgetShape("closed-calvin", "Calvin+'s closed loop below saturation", "Calvin+", 150, nil),
	)
	set := registry.New[Shape]("shape")
	for _, s := range out {
		set.Add(s.Name, s)
	}
	return set
}
