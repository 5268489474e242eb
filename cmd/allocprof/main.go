// allocprof is the transaction-path profiler: it drives the same in-process
// deployment as the rows of harness.TestTxnPathAllocBudget with the Go heap
// profiler armed and writes a pprof profile attributing every allocation on the
// serving path (generator, coordinator, protocol, replication, metrics).
// Inspect with
//
//	go tool pprof -top -sample_index=alloc_objects allocprof.out
//
// With -cpuprofile it also writes a CPU profile of the RunLoad call, so a
// regression in a layer row of the benchmark localises to a function, and with
// -liveheap an in-use heap profile of what the run leaves reachable — the
// benchmark's host_live_heap_mb, by allocation site. The defaults are the
// budget test's closed row (4 coordinators, 200 ms warm-up); -arrival poisson,
// -keys 100000 -duration 2s and -workload tpcc -shards 6 are the next three, and
// its open-reads row is the tiga-reads-open shape below at -shards 6 -rate 500
// with admit-cap and admit-queue 12.
// The benchmark's workloads (bench/workloads.go) all run 8 coordinators — 2 per
// server region and 2 remote — after a 500 ms warm-up; with -coords 2,2 -warmup
// 500ms the throughput, allocs/txn and bytes/txn printed here are the
// benchmark's own (tiga-micro-sat: ≈ 23 k commits in the 2 s window, 11.5 k
// txn/s). The shape of tiga-micro-sat, where costs that scale with the keyspace
// show, is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -keys 100000 -rate 3000 \
//	    -outstanding 300 -duration 2s -cpuprofile cpu.out -liveheap live.out
//
// (it prints 23 013 commits, 8.7 allocs and 10.8 KB per transaction and a live
// heap of 227 MB)
//
// and the shape of tiga-reads-open (open-loop Poisson YCSB-T, read-only
// transactions served by the nearest replica 200 ms stale, admission gate) —
// which needs the protocol's knobs, the workload's parameters and the load
// driver's local-read switch, so -set, -wparam and -local-reads — is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -workload ycsbt -shards 6 \
//	    -keys 100000 -arrival poisson -rate 6000 -duration 2800ms \
//	    -wparam skew=0.7 -wparam read-ratio=0.95 \
//	    -set Tiga.local-reads=true -set Tiga.read-staleness=200ms \
//	    -set Tiga.admit-cap=300 -set Tiga.admit-queue=300 -local-reads \
//	    -liveheap live.out
//
// (it prints 134 512 commits, 6.7 allocs and 2.5 KB per transaction and a live
// heap of 209 MB. Without the last three lines it is a different program —
// every read through the leaders, nothing shed: 42.7 allocs, 15.5 KB,
// 1 180 MB)
//
// and the shape of tiga-tpcc-sat (multi-key pieces, inserted rows, interactive
// chains) is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -workload tpcc -shards 6 \
//	    -keys 5000 -rate 1000 -outstanding 300 -duration 3.5s -liveheap live.out
//
// (it prints 25 512 commits, 31.8 allocs and 11.7 KB per transaction and a live
// heap of 276 MB)
//
// and one point of sweep-nine — here Detock's (47.0 allocs per transaction) —
// is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol Detock \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms -cpuprofile cpu.out
//
// Tapir, 2PL+Paxos and OCC+Paxos need the knobs sweep-nine sets for them: they
// retry until they commit (max-retries 100) and a wound-wait vote times out
// after 1 s. Each -set below names one protocol and is inert for the others.
// For the buffered view and the apply path at their busiest (Tapir executes a
// piece on every replica at prepare and again at the decision, ≈ 21 buffered
// executions per commit) the point is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol Tapir \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms \
//	    -set Tapir.max-retries=100
//
// (it prints 5 526 commits, 8.0 allocs and 2.4 KB per transaction), and for
// the layered baselines' Multi-Paxos (internal/paxos) under lockocc's locks and
// two-phase commit it is
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol 2PL+Paxos \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms -liveheap live.out \
//	    -set 2PL+Paxos.max-retries=100 -set 2PL+Paxos.vote-timeout=1s
//
// (it prints 5 567 commits, 9.6 allocs and 4.0 KB per transaction and a live
// heap of 28.5 MB. The same shape with -set OCC+Paxos.max-retries=100
// -set OCC+Paxos.vote-timeout=1s gives OCC+Paxos 10.8 allocs and 4.0 KB.)
//
// NCC's response-time control and, for NCC+, the same Multi-Paxos under it
// need no knob:
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol NCC \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms -liveheap live.out
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol NCC+ \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms -liveheap live.out
//
// (they print 5 600 commits each: NCC 5.2 allocs and 2.0 KB per transaction
// and a live heap of 17.6 MB, NCC+ 7.0 allocs, 3.2 KB and 19.9 MB)
//
// or, for Janus' dependency tracking, vote tally and SCC execution,
//
//	go run ./cmd/allocprof -coords 2,2 -warmup 500ms -protocol Janus \
//	    -keys 20000 -rate 250 -outstanding 400 -duration 2800ms -liveheap live.out
//
// (it prints 5 600 commits, 16.7 allocs and 3.9 KB per transaction and a live
// heap of 31.7 MB. Of those allocations, maybeResolveCycle's graph is ≈ 5.6
// per transaction; the rest is one payload per multicast, the result list, the
// dependency lists the replicas keep and the generator's job.)
//
// (The benchmark also sets Tiga's retry-timeout to 10 s on the two saturated
// Tiga workloads; at their queueing delays the default never fires either.)
//
// The per-txn allocation budget is a first-class serving-path metric (see
// EXPERIMENTS.md "Allocation budget"); this harness is how a regression gets
// localized once the budget test or the benchmark's host_allocs_per_txn trips.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/workload"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// usage exits 2 on a flag value the registries reject.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "allocprof: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	out := flag.String("out", "allocprof.out", "pprof heap profile output path")
	proto := flag.String("protocol", "Tiga", "protocol to profile")
	arrival := flag.String("arrival", "", "arrival process (empty = closed loop)")
	rate := flag.Float64("rate", 500, "offered rate per coordinator (txn/s)")
	dur := flag.Duration("duration", time.Second, "measured window of simulated time")
	wl := flag.String("workload", "micro", "registered workload to drive")
	shards := flag.Int("shards", 3, "number of shards")
	keys := flag.Int("keys", 2000, "keys per shard")
	outstanding := flag.Int("outstanding", 100, "closed-loop outstanding transactions per coordinator")
	cpuOut := flag.String("cpuprofile", "", "also write a pprof CPU profile of the run to this path")
	coords := flag.String("coords", "1,1", "coordinators per server region, and in the remote region")
	warmup := flag.Duration("warmup", 200*time.Millisecond, "simulated warm-up before the measured window")
	liveOut := flag.String("liveheap", "", "also force a GC after the run, print the live heap and write an in-use heap profile to this path")
	var sets, wparams multiFlag
	flag.Var(&sets, "set", "protocol knob override proto.knob=value (repeatable; tigabench -knobs lists them)")
	flag.Var(&wparams, "wparam", "workload parameter name=value (repeatable)")
	localReads := flag.Bool("local-reads", false, "send read-only transactions down the local snapshot-read path (LoadSpec.LocalReads; the protocol's local-reads knob must be set too)")
	flag.Parse()

	var perRegion, remote int
	if n, err := fmt.Sscanf(*coords, "%d,%d", &perRegion, &remote); n != 2 || err != nil || perRegion < 0 || remote < 0 || perRegion+remote == 0 {
		fmt.Fprintf(os.Stderr, "allocprof: -coords %q: want <per server region>,<remote>, e.g. 2,2\n", *coords)
		os.Exit(2)
	}

	// MemProfileRate 1 records every allocation, so small runs attribute the
	// full budget instead of a sample. Under -cpuprofile the heap profile stays
	// at the runtime's sampling rate: recording every allocation would put the
	// profiler's own bookkeeping at the top of the CPU profile.
	if *cpuOut == "" {
		runtime.MemProfileRate = 1
	}

	spec := harness.ClusterSpec{
		Protocol: *proto, Workload: *wl, WorkloadKeys: *keys,
		Shards: *shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: perRegion, CoordsRemote: remote, Seed: 42,
		CostScale: harness.CPUScale,
	}
	for _, s := range sets {
		proto, name, v, err := protocol.ParseSet(s)
		if err != nil {
			usage("-set %q: %v", s, err)
		}
		spec.SetKnob(proto, name, v)
	}
	if def, ok := workload.Lookup(*wl); ok && len(wparams) > 0 {
		spec.WorkloadParams = make(map[string]any)
		for _, s := range wparams {
			name, value, _ := strings.Cut(s, "=")
			knob, ok := def.Params.Find(name)
			if !ok {
				usage("-wparam %s: no such knob %q (valid: %s)", s, name, strings.Join(def.Params.Names(), ", "))
			}
			v, err := protocol.ParseValue(knob, value)
			if err != nil {
				usage("-wparam %s: %v", s, err)
			}
			spec.WorkloadParams[name] = v
		}
	}
	if err := spec.EnsureGen(); err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(2)
	}
	// Every profile file is opened up front, so an unwritable path fails
	// before the run rather than after it.
	f, err := os.Create(*out)
	check(err)
	var cpuFile, liveFile *os.File
	if *cpuOut != "" {
		cpuFile, err = os.Create(*cpuOut)
		check(err)
	}
	if *liveOut != "" {
		liveFile, err = os.Create(*liveOut)
		check(err)
	}
	d := harness.Build(spec)
	load := harness.LoadSpec{
		RatePerCoord: *rate, Outstanding: *outstanding, Arrival: *arrival,
		Warmup: *warmup, Duration: *dur, Seed: 43, LocalReads: *localReads,
	}
	runtime.GC()
	if cpuFile != nil {
		check(pprof.StartCPUProfile(cpuFile))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := harness.RunLoad(d, spec.Gen, load)
	runtime.ReadMemStats(&m1)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		check(cpuFile.Close())
		fmt.Printf("wrote %s\n", *cpuOut)
	}

	committed := res.Run.Counters.Committed
	if committed > 0 {
		fmt.Printf("committed=%d allocs/txn=%.1f bytes/txn=%.0f\n", committed,
			float64(m1.Mallocs-m0.Mallocs)/float64(committed),
			float64(m1.TotalAlloc-m0.TotalAlloc)/float64(committed))
	}

	runtime.GC() // flush outstanding profile records
	check(pprof.Lookup("allocs").WriteTo(f, 0))
	check(f.Close())
	fmt.Printf("wrote %s\n", *out)

	if liveFile != nil {
		// The benchmark's host_live_heap_mb: HeapAlloc after a forced GC with
		// the deployment and the result still reachable. The collection above
		// also published the profile records of everything that survived it.
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Printf("live heap %.1f MB\n", float64(m.HeapAlloc)/(1<<20))
		check(pprof.Lookup("heap").WriteTo(liveFile, 0))
		check(liveFile.Close())
		fmt.Printf("wrote %s (go tool pprof -sample_index=inuse_space)\n", *liveOut)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(res)
}

// check exits on an error from writing a profile.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(1)
	}
}
