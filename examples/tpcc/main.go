// TPC-C on Tiga: run the industry-standard OLTP mix (§5.3) — including the
// multi-shot Payment / Order-Status / Delivery transactions decomposed per
// Appendix F — against a 6-shard geo-replicated Tiga cluster, print the
// per-region latency breakdown, then race every registered protocol through
// the same workload on the parallel sweep driver. It exits 1 when a protocol
// commits nothing or the printed order counter trails the New-Orders committed.
//
//	go run ./examples/tpcc
package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/metrics"
	"tiga/internal/protocol"
	"tiga/internal/tpcc"
	"tiga/internal/txn"
)

func tpccSpec(protocolName string, seed int64) harness.ClusterSpec {
	cfg := tpcc.Config{Shards: 6, Warehouses: 6, Districts: 10, Customers: 300, Items: 5000}
	return harness.ClusterSpec{
		Protocol: protocolName, Shards: 6, F: 1,
		Clock: clocks.ModelChrony, CoordsPerRegion: 2, CoordsRemote: 2,
		Seed: seed, Gen: tpcc.New(cfg),
	}
}

func main() {
	// Part 1: the Tiga deep-dive, with per-region latency from the sample
	// stream.
	spec := tpccSpec("Tiga", 42)
	d := harness.Build(spec)
	res := harness.RunLoad(d, spec.Gen, harness.LoadSpec{
		RatePerCoord: 120, Warmup: time.Second, Duration: 5 * time.Second,
		Seed: 9, TrackSamples: true, Check: true,
	})
	run := res.Run
	fmt.Printf("TPC-C on Tiga (6 shards x 3 replicas, chrony clocks)\n")
	fmt.Printf("  throughput:  %.0f txns/s\n", run.Throughput())
	fmt.Printf("  commit rate: %.1f%%\n", run.Counters.CommitRate())
	fmt.Printf("  p50 / p90:   %v / %v\n",
		run.Lat.Percentile(50).Round(time.Millisecond),
		run.Lat.Percentile(90).Round(time.Millisecond))
	fmt.Printf("  fast-path:   %d, slow-path: %d\n", run.Counters.FastPath, run.Counters.SlowPath)

	regions := make([]string, 0, len(run.ByRegion))
	for r := range run.ByRegion {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	fmt.Println("  per-region p50:")
	for _, r := range regions {
		var l *metrics.Latency = run.ByRegion[r]
		fmt.Printf("    %-14s %v (%d txns)\n", r, l.Percentile(50).Round(time.Millisecond), l.Count())
	}
	// The district order-number counters live on the shard leaders; reach
	// them through the protocol-independent Checkable capability.
	failed := run.Counters.Committed == 0
	if c, ok := d.Sys.(protocol.Checkable); ok {
		next := txn.DecodeInt(c.LeaderStore(0).Get("d_next_o_id:1:1"))
		fmt.Printf("  warehouse 1, district 1: next order id now %d\n", next)
		// Every New-Order of that district counted above bumped the id, seeded
		// at 1; the other tracked keys are not printed and pass.
		if err := res.Counter.VerifyAtLeast(func(k string) int64 {
			if k != "d_next_o_id:1:1" {
				return math.MaxInt64
			}
			return next - 1
		}); err != nil {
			fmt.Println("  ORDER COUNTER MISMATCH:", err)
			failed = true
		}
	}

	// Part 2: every registered protocol on the same TPC-C mix, run
	// concurrently on the parallel driver — the registry means no protocol
	// is named here.
	names := protocol.Names()
	runs := make([]harness.SpecRun, len(names))
	for i, p := range names {
		runs[i] = harness.SpecRun{
			Spec: tpccSpec(p, 42),
			Load: harness.LoadSpec{RatePerCoord: 40,
				Warmup: time.Second, Duration: 3 * time.Second, Seed: 9},
		}
	}
	results := harness.RunSpecs(runs, 0)
	fmt.Printf("\nTPC-C across every registered protocol (rate 40/coord)\n")
	fmt.Printf("  %-12s %12s %9s %12s\n", "Protocol", "Thpt(txn/s)", "Commit%", "p50")
	for i, p := range names {
		r := results[i].Run
		fmt.Printf("  %-12s %12.0f %9.1f %12v\n", p, r.Throughput(),
			r.Counters.CommitRate(), r.Lat.Percentile(50).Round(time.Millisecond))
		failed = failed || r.Counters.Committed == 0
	}
	if failed {
		fmt.Println("\nFAIL: a protocol committed nothing, or an order counter trails its commits")
		os.Exit(1)
	}
}
