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
// shape, a bad scale or a window below 1.
//
// An average over one window counts fixed costs — pools filling, the warm-up's
// own transactions — as per-transaction cost. -window k runs the shape twice,
// each time on a fresh deployment: at its measured window W and at kW. It
// prints both runs and the line
//
//	slope allocs/txn=… bytes/txn=… intercept allocs=… bytes=…
//
// whose slope is the marginal cost, (at kW − at W) / (commits at kW − at W),
// and whose intercept is what the run at W allocates beyond slope × its
// commits. The profiles then cover both runs, the live heap the second.
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
	"time"

	"tiga/internal/harness"
)

func main() {
	shape := flag.String("shape", "budget/closed", "measured shape to drive, name[@scale] (list prints every name)")
	out := flag.String("out", "allocprof.out", "pprof heap profile output path")
	cpuOut := flag.String("cpuprofile", "", "also write a pprof CPU profile of the run to this path")
	liveOut := flag.String("liveheap", "", "also force a GC after the run, print the live heap and write an in-use heap profile to this path")
	window := flag.Int("window", 1, "k > 1: also run the shape at k times its measured window and print the marginal (slope) and fixed (intercept) allocations")
	flag.Parse()

	if *shape == "list" {
		for _, s := range harness.Shapes() {
			fmt.Printf("%-20s %s\n", s.Name, s.Doc)
		}
		return
	}
	if *window < 1 {
		fmt.Fprintf(os.Stderr, "allocprof: -window %d: want k >= 1\n", *window)
		os.Exit(2)
	}
	// Every run gets a fresh deployment; resolving the shape up front checks
	// the name before anything runs.
	if _, _, err := harness.LookupShape(*shape); err != nil {
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
	if cpuFile != nil {
		check(pprof.StartCPUProfile(cpuFile))
	}
	w := measure(*shape, 1)
	if *window > 1 {
		wk := measure(*shape, *window)
		if wk.committed <= w.committed {
			fmt.Fprintf(os.Stderr, "allocprof: %s committed no more at %d windows than at one\n", *shape, *window)
			os.Exit(1)
		}
		commits := float64(wk.committed - w.committed)
		slope := float64(wk.mallocs-w.mallocs) / commits
		slopeB := float64(wk.bytes-w.bytes) / commits
		fmt.Printf("slope allocs/txn=%.2f bytes/txn=%.0f intercept allocs=%.0f bytes=%.0f\n", slope, slopeB,
			float64(w.mallocs)-slope*float64(w.committed), float64(w.bytes)-slopeB*float64(w.committed))
		w = wk
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		check(cpuFile.Close())
		fmt.Printf("wrote %s\n", *cpuOut)
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
	runtime.KeepAlive(w)
}

// measured is one run: its deployment and result, kept reachable for the live
// heap, and what RunLoad committed and allocated.
type measured struct {
	d                         *harness.Deployment
	res                       *harness.RunResult
	committed, mallocs, bytes uint64
}

// measure drives shape, with its measured window multiplied by k, on a fresh
// deployment and prints the run's commits and allocations per commit. It exits
// 1 when the run commits nothing.
func measure(shape string, k int) *measured {
	spec, load, err := harness.LookupShape(shape)
	check(err)
	if err := spec.EnsureGen(); err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(2)
	}
	load.Duration *= time.Duration(k)
	m := &measured{d: harness.Build(spec)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m.res = harness.RunLoad(m.d, spec.Gen, load)
	runtime.ReadMemStats(&m1)
	m.committed, m.mallocs, m.bytes = uint64(m.res.Run.Counters.Committed), m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if m.committed == 0 {
		fmt.Fprintf(os.Stderr, "allocprof: %s committed nothing\n", shape)
		os.Exit(1)
	}
	prefix := ""
	if k > 1 {
		prefix = fmt.Sprintf("window x%d: ", k)
	}
	fmt.Printf("%scommitted=%d allocs/txn=%.1f bytes/txn=%.0f\n", prefix, m.committed,
		float64(m.mallocs)/float64(m.committed), float64(m.bytes)/float64(m.committed))
	return m
}

// check exits on an error from writing a profile.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocprof:", err)
		os.Exit(1)
	}
}
