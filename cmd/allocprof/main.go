// allocprof is the transaction-path profiler: it drives one measured shape
// (harness.LookupShape) with the Go heap profiler armed and writes a pprof
// profile attributing every allocation on the serving path (generator,
// coordinator, protocol, replication, metrics). The shapes are the
// benchmark's workloads (sweep-nine as one shape per protocol) and the rows of
// harness.TestTxnPathAllocBudget; -shape list prints them, and -shape
// name@scale runs one at the benchmark's scale rule. For example
//
//	go run ./cmd/allocprof -shape tiga-micro-sat -cpuprofile cpu.out -liveheap live.out
//	go tool pprof -top -sample_index=alloc_objects allocprof.out
//
// prints the commits and the allocations and bytes per committed transaction
// of the benchmark's own load. With -cpuprofile it also writes a CPU profile
// of the RunLoad call, so a regression in a layer row of the benchmark
// localises to a function, and with -liveheap it prints the benchmark's
// host_live_heap_mb and writes an in-use heap profile of what the run leaves
// reachable. It exits 1 when the run commits nothing and 2 on an unknown
// shape or a bad scale.
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

	"tiga/internal/harness"
)

func main() {
	shape := flag.String("shape", "budget/closed", "measured shape to drive, name[@scale] (list prints every name)")
	out := flag.String("out", "allocprof.out", "pprof heap profile output path")
	cpuOut := flag.String("cpuprofile", "", "also write a pprof CPU profile of the run to this path")
	liveOut := flag.String("liveheap", "", "also force a GC after the run, print the live heap and write an in-use heap profile to this path")
	flag.Parse()

	if *shape == "list" {
		for _, s := range harness.Shapes() {
			fmt.Printf("%-20s %s\n", s.Name, s.Doc)
		}
		return
	}
	spec, load, err := harness.LookupShape(*shape)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(2)
	}

	// MemProfileRate 1 records every allocation, so small runs attribute the
	// full budget instead of a sample. Under -cpuprofile the heap profile stays
	// at the runtime's sampling rate: recording every allocation would put the
	// profiler's own bookkeeping at the top of the CPU profile.
	if *cpuOut == "" {
		runtime.MemProfileRate = 1
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
	if committed == 0 {
		fmt.Fprintf(os.Stderr, "allocprof: %s committed nothing\n", *shape)
		os.Exit(1)
	}
	fmt.Printf("committed=%d allocs/txn=%.1f bytes/txn=%.0f\n", committed,
		float64(m1.Mallocs-m0.Mallocs)/float64(committed),
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(committed))

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
