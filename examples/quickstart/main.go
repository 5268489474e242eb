// Quickstart: bring up a 3-shard, 3-region Tiga cluster on the simulated
// WAN, submit a multi-shard read-modify-write transaction, and print the
// result and its commit latency. Then run the same transaction shape on
// every protocol in the registry to compare commit latencies. It exits 1 when a
// protocol commits nothing or a final counter disagrees with the commits above it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"tiga/internal/chaos"
	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/tiga"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// increments is the quickstart's transaction: key 0 of each of the three
// shards, plus one.
func increments() *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(workload.Key(0, 0)).On(0),
		txn.IncrementPiece(workload.Key(1, 0)).On(1),
		txn.IncrementPiece(workload.Key(2, 0)).On(2),
	)}
}

func main() {
	failed := false
	// 1. A deterministic simulated WAN: South Carolina, Finland, Brazil,
	//    plus Hong Kong for remote clients (the paper's §5.1 deployment).
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))

	// 2. A Tiga cluster: 3 shards × 3 replicas, chrony-grade clocks,
	//    coordinators in South Carolina and Hong Kong. Replica r of every
	//    shard lives in region r, so all leaders co-locate in region 0 and
	//    Tiga picks the preventive agreement mode automatically (§3.8).
	cfg := tiga.DefaultConfig(3, 1)
	clockFactory := clocks.NewFactory(clocks.ModelChrony, time.Minute, 7)
	cluster := tiga.NewCluster(net, cfg,
		tiga.ColocatedPlacement([]simnet.Region{simnet.RegionSouthCarolina, simnet.RegionHongKong}),
		clockFactory,
		func(shard int, st *store.Store) { st.Seed(workload.Key(shard, 0), txn.EncodeInt(0)) })
	cluster.Start()
	fmt.Printf("cluster up: 3 shards x 3 replicas, mode=%v\n", cluster.Mode())

	// 3. Submit a transaction that increments one counter on every shard —
	//    strictly serializable, committed in one wide-area round trip.
	commits := int64(0)
	submit := func(coord int, at time.Duration) {
		sim.At(at, func() {
			start := sim.Now()
			region := simnet.RegionName(cluster.Coords[coord].Node().Region())
			cluster.Coords[coord].Submit(increments(), func(r txn.Result) {
				if r.OK {
					commits++
				}
				fmt.Printf("[%s] committed=%v fastPath=%v latency=%v counters=%d/%d/%d\n",
					region, r.OK, r.FastPath, sim.Now()-start,
					txn.DecodeInt(r.Ret(0)), txn.DecodeInt(r.Ret(1)), txn.DecodeInt(r.Ret(2)))
			})
		})
	}
	submit(0, 100*time.Millisecond) // from South Carolina: ~1 WRTT
	submit(1, 400*time.Millisecond) // from Hong Kong: still 1 WRTT
	submit(0, 700*time.Millisecond)

	// 4. Run the virtual clock.
	sim.Run(2 * time.Second)

	// 5. Every replica converged on the same state.
	for shard := 0; shard < 3; shard++ {
		v := txn.DecodeInt(cluster.Servers[shard][0].Store().Get(workload.Key(shard, 0)))
		fmt.Printf("shard %d final counter: %d\n", shard, v)
		failed = failed || commits == 0 || v != commits
	}

	// 6. The harness reaches every protocol through the registry — no
	//    protocol-specific construction. Submit the same cross-shard
	//    increment on each registered protocol and compare commit latency
	//    from South Carolina.
	fmt.Println("\nsame transaction on every registered protocol:")
	for _, name := range protocol.Names() {
		spec := harness.ClusterSpec{
			Protocol: name, Shards: 3, F: 1, Clock: clocks.ModelChrony,
			CoordsPerRegion: 1, Seed: 2,
			Workload: "uniform", WorkloadKeys: 4,
		}
		d := harness.Build(spec)
		d.Sys.Start()
		var latency time.Duration
		committed := false
		d.Sim.At(200*time.Millisecond, func() {
			start := d.Sim.Now()
			d.Sys.Submit(0, increments(), func(r txn.Result) {
				committed = r.OK
				latency = d.Sim.Now() - start
			})
		})
		d.Sim.Run(3 * time.Second)
		fmt.Printf("  %-12s committed=%-5v latency=%v\n", name, committed, latency.Round(time.Millisecond))
		failed = failed || !committed
	}

	// 7. Every protocol exposes typed tuning knobs through the same
	//    registry (discover them with `tigabench -knobs`). Example: forcing
	//    Janus off its fast path costs the accept round — one extra WAN
	//    round trip (a warm-up txn on the same keys runs first so the
	//    measured txn carries real dependencies; dependency-free txns ride
	//    the fast path too).
	fmt.Println("\nknob demo: Janus with the fast path disabled (forced accept round):")
	for _, fast := range []bool{true, false} {
		spec := harness.ClusterSpec{
			Protocol: "Janus", Shards: 3, F: 1, Clock: clocks.ModelChrony,
			CoordsPerRegion: 1, Seed: 2,
			Workload: "uniform", WorkloadKeys: 4,
		}
		spec.SetKnob("Janus", "fast-path", fast)
		d := harness.Build(spec)
		d.Sys.Start()
		var latency time.Duration
		var tookFast bool
		d.Sim.At(200*time.Millisecond, func() { d.Sys.Submit(0, increments(), func(txn.Result) {}) })
		d.Sim.At(700*time.Millisecond, func() {
			start := d.Sim.Now()
			d.Sys.Submit(0, increments(), func(r txn.Result) {
				latency = d.Sim.Now() - start
				tookFast = r.FastPath
			})
		})
		d.Sim.Run(3 * time.Second)
		fmt.Printf("  fast-path=%-5v tookFast=%-5v latency=%v\n", fast, tookFast, latency.Round(time.Millisecond))
	}

	// 8. The scenario layer: topologies and workloads are registries too
	//    (discover them with `tigabench -topo list` / `-workload list`).
	//    A ClusterSpec selects both by name — here the same transaction
	//    shape as above, but on the 3-region US/EU triangle driven by the
	//    read-heavy YCSB-T mix. `tigabench -exp scenarios` sweeps the full
	//    protocol × topology × workload matrix.
	fmt.Println("\nscenario layer: registered topologies and workloads:")
	fmt.Printf("  topologies: %v\n", simnet.TopologyNames())
	fmt.Printf("  workloads:  %v\n", workload.Names())
	fmt.Println("\nTiga vs Janus on topology=us-eu3 workload=ycsbt (skew 0.9):")
	var runs []harness.SpecRun
	for _, name := range []string{"Tiga", "Janus"} {
		runs = append(runs, harness.SpecRun{
			Spec: harness.ClusterSpec{
				Protocol: name, Shards: 3, F: 1, Clock: clocks.ModelChrony,
				CoordsPerRegion: 1, CoordsRemote: 1, Seed: 2,
				Topology: "us-eu3",
				Workload: "ycsbt", WorkloadKeys: 1000,
				WorkloadParams: map[string]any{"skew": 0.9},
			},
			Load: harness.LoadSpec{RatePerCoord: 30, Warmup: 500 * time.Millisecond,
				Duration: 2 * time.Second, Seed: 9},
		})
	}
	results := harness.RunSpecs(runs, 0)
	for i, res := range results {
		fmt.Printf("  %-12s thpt=%5.0f txn/s  commit=%5.1f%%  p50=%v\n",
			runs[i].Spec.Protocol, res.Run.Throughput(),
			res.Run.Counters.CommitRate(), res.Run.Lat.Percentile(50).Round(time.Millisecond))
		failed = failed || res.Run.Counters.Committed == 0
	}

	// 9. The results pipeline: experiments never print — they build typed
	//    reports (internal/report: named tables, unit-carrying columns,
	//    typed cells) and renderers turn the model into the paper's text
	//    layout, a self-describing JSON document (`tigabench -format json`,
	//    the BENCH artifact CI archives), or CSV. The same §8 rows, once
	//    through the model:
	fmt.Println("\nresults pipeline: the same rows as a typed report")
	rep := report.New("quickstart")
	tab := rep.Add(&report.Table{
		ID: "us-eu3/ycsbt", Title: "Tiga vs Janus — topology=us-eu3 workload=ycsbt",
		Meta: map[string]string{"topology": "us-eu3", "workload": "ycsbt", "seed": "2"},
		Columns: []report.Column{
			report.Col("protocol", "Protocol", report.String, report.None, 12).AlignLeft(),
			report.Col("thpt", "Thpt(txn/s)", report.Float, report.Rate, 12),
			report.Col("commit", "Commit%", report.Float, report.Percent, 9).WithPrec(1),
			report.Col("p50", "p50", report.Duration, report.Nanos, 12),
		},
	})
	for i, res := range results {
		tab.AddRow(report.Str(runs[i].Spec.Protocol), report.Num(res.Run.Throughput()),
			report.Num(res.Run.Counters.CommitRate()), report.Dur(res.Run.Lat.Percentile(50)))
	}
	report.Render(os.Stdout, rep) // the text renderer: the paper's layout
	fmt.Println("\nthe same report as CSV (durations in ns, units in the header):")
	if err := report.RenderCSV(os.Stdout, rep); err != nil {
		fmt.Println("csv:", err)
	}

	// 10. The chaos layer: fault plans are a registry too (discover them
	//     with `tigabench -chaos list`). Naming one on a SpecRun schedules
	//     its events — here wan-partition cuts server regions 0 and 1 from
	//     5s to 9s, and Tiga's retry timer rides it out. `tigabench -exp
	//     chaos` sweeps the full protocol × plan matrix with the
	//     serializability checker armed under every plan.
	fmt.Println("\nchaos layer: registered fault plans:")
	fmt.Printf("  plans: %v\n", chaos.Names())
	fmt.Println("\nTiga under wan-partition (regions 0<->1 cut 5s-9s):")
	cres := harness.RunSpecs([]harness.SpecRun{{
		Spec: harness.ClusterSpec{
			Protocol: "Tiga", Shards: 3, F: 1, Clock: clocks.ModelChrony,
			CoordsPerRegion: 1, CoordsRemote: 1, Seed: 2,
			Workload: "micro", WorkloadKeys: 1000,
		},
		Chaos: "wan-partition",
		Load: harness.LoadSpec{RatePerCoord: 30, Duration: 11 * time.Second,
			Seed: 9, TrackSamples: true},
	}}, 0)[0]
	for _, ph := range []struct {
		name     string
		from, to time.Duration
	}{{"pre  (0-5s)", 0, 5 * time.Second}, {"fault(5-9s)", 5 * time.Second, 9 * time.Second}, {"post (9s- )", 9 * time.Second, 11 * time.Second}} {
		n := 0
		for _, s := range cres.Samples {
			if s.At >= ph.from && s.At < ph.to {
				n++
			}
		}
		fmt.Printf("  %s  commits=%3d (%.0f txn/s)\n", ph.name, n,
			float64(n)/(ph.to-ph.from).Seconds())
	}
	if failed {
		fmt.Println("\nFAIL: a protocol committed nothing, or a final counter disagrees with its commits")
		os.Exit(1)
	}
}
