package main

import (
	"fmt"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
)

// point is one deployment and the load driven through it.
type point struct {
	spec harness.ClusterSpec
	load harness.LoadSpec
}

// workloadDef is one benchmark workload: a name, the reason it exists, and a
// builder that turns (seed, scale) into the experiment points it runs. A
// single-protocol workload is one point; sweep-nine is one point per
// registered protocol. scale multiplies the simulated durations (warm-up and
// window) and the keyspace; 1 is the benchmark, the test uses 0.02.
type workloadDef struct {
	name string
	why  string
	// closedRate is the per-coordinator tick rate of a closed-loop workload
	// (harness.tick_skip_pct compares it with what was submitted); 0 marks
	// the open loop.
	closedRate float64
	points     func(seed int64, scale float64) []point
}

// clusterSeed seeds every deployment: its clock offsets and link jitter are
// part of the modelled testbed, like the hardware of a real one, and stay
// the same on every run. The benchmark's -seed generates the load only. (The
// testbed draw moves saturation throughput by ±2 % and host time per
// transaction by ±5 %, the load draw by 0.1 %; a benchmark whose runs differ
// by the former cannot resolve a change of the latter's size.)
const clusterSeed = 42

// All workloads share the paper's deployment shape: geo4, chrony clocks,
// CPUScale testbed units, 2 coordinators per server region + 2 remote.
func baseSpec(proto string, shards int) harness.ClusterSpec {
	return harness.ClusterSpec{
		Protocol: proto, Shards: shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 2, CoordsRemote: 2, Seed: clusterSeed,
		CostScale: harness.CPUScale,
	}
}

const numCoords = 8 // 2 per server region × 3 + 2 remote

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Millisecond)
}

func scaleKeys(keys int, scale float64) int {
	n := int(float64(keys) * scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

var workloads = []workloadDef{
	{
		name:       "tiga-micro-sat",
		why:        "Tiga at MicroBench saturation: slow path, priority queue, CPU queueing and simnet dispatch do the work; store and driver do little",
		closedRate: 3000,
		points: func(seed int64, scale float64) []point {
			spec := baseSpec("Tiga", 3)
			spec.Workload = "micro"
			spec.WorkloadParams = map[string]any{"skew": 0.5}
			spec.WorkloadKeys = scaleKeys(100_000, scale)
			spec.SetKnob("Tiga", "retry-timeout", 10*time.Second)
			return []point{{spec: spec, load: harness.LoadSpec{
				RatePerCoord: 3000, Outstanding: 300,
				Warmup: scaleDur(500*time.Millisecond, scale), Duration: scaleDur(microWindow, scale),
				Seed: seed,
			}}}
		},
	},
	{
		name:       "tiga-tpcc-sat",
		why:        "Tiga on TPC-C: multi-key pieces, string keys and interactive chains put store, txn, tpcc and the chain driver on the hot path",
		closedRate: 1000,
		points: func(seed int64, scale float64) []point {
			spec := baseSpec("Tiga", 6)
			spec.Workload = "tpcc"
			spec.WorkloadKeys = scaleKeys(5000, scale)
			spec.SetKnob("Tiga", "retry-timeout", 10*time.Second)
			return []point{{spec: spec, load: harness.LoadSpec{
				RatePerCoord: 1000, Outstanding: 300,
				Warmup: scaleDur(500*time.Millisecond, scale), Duration: scaleDur(tpccWindow, scale),
				Seed: seed,
			}}}
		},
	},
	{
		name: "tiga-reads-open",
		why:  "open-loop Poisson YCSB-T with local snapshot reads and admission control: the only run of openloop, arrivals, snapread, admit, GetAt and a large replicated set-up",
		points: func(seed int64, scale float64) []point {
			spec := baseSpec("Tiga", 6)
			spec.Workload = "ycsbt"
			spec.WorkloadParams = map[string]any{"skew": 0.7, "read-ratio": 0.95}
			spec.WorkloadKeys = scaleKeys(100_000, scale)
			spec.SetKnob("Tiga", "local-reads", true)
			spec.SetKnob("Tiga", "read-staleness", 200*time.Millisecond)
			spec.SetKnob("Tiga", "admit-cap", 300)
			spec.SetKnob("Tiga", "admit-queue", 300)
			return []point{{spec: spec, load: harness.LoadSpec{
				RatePerCoord: 6000, Arrival: "poisson", LocalReads: true,
				Warmup: scaleDur(500*time.Millisecond, scale), Duration: scaleDur(readsWindow, scale),
				Seed: seed,
			}}}
		},
	},
	{
		name:       "sweep-nine",
		why:        "all nine protocols in turn at one MicroBench point: the cost of a figure-style sweep and the only run of lockocc, locks, paxos, graph and the seven baselines",
		closedRate: 250,
		points: func(seed int64, scale float64) []point {
			var out []point
			for _, proto := range sweepProtocols() {
				spec := baseSpec(proto, 3)
				spec.Workload = "micro"
				spec.WorkloadParams = map[string]any{"skew": 0.5}
				spec.WorkloadKeys = scaleKeys(20_000, scale)
				// The rate is below every protocol's saturation point, and
				// the optimistic and lock-based baselines retry until they
				// commit (a wound-wait cycle presumes abort after 1 s, not
				// 10 s), so no transaction fails or outlives the run. Knobs
				// named for another protocol are inert.
				for _, p := range []string{"2PL+Paxos", "OCC+Paxos"} {
					spec.SetKnob(p, "max-retries", 100)
					spec.SetKnob(p, "vote-timeout", time.Second)
				}
				spec.SetKnob("Tapir", "max-retries", 100)
				out = append(out, point{spec: spec, load: harness.LoadSpec{
					RatePerCoord: 250, Outstanding: 400,
					Warmup: scaleDur(500*time.Millisecond, scale), Duration: scaleDur(sweepWindow, scale),
					Seed: seed,
				}})
			}
			return out
		},
	},
}

// Simulated measurement windows at scale 1, sized so that three repetitions
// of each workload take about 20 s of host time on the reference machine
// (see README.md). readsWindow also keeps tiga-reads-open's log length per
// shard (≈ 11.3 k entries over warm-up + window) midway between two of
// Tiga's store checkpoints (every 2000 entries, ≈ 270 MB of copying each
// over the 18 replicas): at 3.0 s it sits on the sixth, and whether a load
// seed's arrivals cross it moves host_bytes_per_txn by 14 %.
const (
	microWindow = 2000 * time.Millisecond
	tpccWindow  = 3500 * time.Millisecond
	readsWindow = 2800 * time.Millisecond
	sweepWindow = 2800 * time.Millisecond
)

// sweepProtocols is every registered protocol except the benchmark's own
// null protocol, in the registry's canonical order.
func sweepProtocols() []string {
	var out []string
	for _, p := range protocol.Names() {
		if p != nullProtocol {
			out = append(out, p)
		}
	}
	return out
}

// protoSlug turns a registry name into a metric-name segment:
// "2PL+Paxos" → "2pl-paxos", "Calvin+" → "calvin-plus".
func protoSlug(name string) string {
	s := strings.ToLower(name)
	if strings.HasSuffix(s, "+") {
		s = strings.TrimSuffix(s, "+") + "-plus"
	}
	return strings.ReplaceAll(s, "+", "-")
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
