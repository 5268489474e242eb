// Sim-core microbenchmark rows for the BENCH artifact (-simbench): the three
// simnet hot paths — send, event queue, node timer — run in-process via
// testing.Benchmark and emitted as a report experiment so benchdiff tracks
// ns/event and allocs/event across PR artifacts alongside the domain metrics.
// (internal/simnet's AllocFree tests gate the same paths' zero-allocation
// property in tier-1.)
package main

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/report"
	"tiga/internal/simnet"
)

// simBenchConfig is a two-region, 1 ms symmetric WAN with no jitter or loss,
// so delays are deterministic and the measurement isolates queue and dispatch
// cost.
func simBenchConfig() simnet.Config {
	return simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
}

// simBenchCases are the measured hot paths, one row each.
var simBenchCases = []struct {
	name string
	doc  string
	run  func(b *testing.B)
}{
	{"send", "message delivery: Send -> queue -> dispatch -> handler", func(b *testing.B) {
		s := simnet.NewSim(1)
		n := simnet.NewNetwork(s, simBenchConfig())
		src := n.AddNode(0, nil)
		n.AddNode(1, func(from simnet.NodeID, msg simnet.Message) {})
		msg := simnet.Message(&struct{ payload int }{payload: 7})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Send(1, msg)
			s.Step()
		}
	}},
	{"queue", "bare event queue: push + pop at steady heap depth", func(b *testing.B) {
		s := simnet.NewSim(1)
		fn := func() {}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 1024; i++ {
			s.At(time.Duration(rng.Int63n(int64(time.Second))), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.At(s.Now()+time.Duration(rng.Int63n(int64(time.Millisecond))), fn)
			s.Step()
		}
	}},
	{"runOnCPU", "node timer: After -> timer event -> CPU queue", func(b *testing.B) {
		s := simnet.NewSim(1)
		n := simnet.NewNetwork(s, simBenchConfig())
		nd := n.AddNode(0, nil)
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd.After(time.Microsecond, fn)
			for s.Step() {
			}
		}
	}},
}

// runSimBench measures the sim-core hot paths and builds the "simbench"
// report appended to the document when -simbench is set. Wall-clock numbers
// vary with the host, so the rows are tracked by benchdiff informationally
// like every other artifact metric; allocs/event is the stable signal (the
// steady-state paths are allocation-free by design).
func runSimBench() *report.Report {
	rep := report.New("simbench")
	t := rep.Add(&report.Table{
		ID:    "simcore",
		Title: "Sim-core microbenchmarks (steady state; ns/op is ns/event)",
		Columns: []report.Column{
			report.Col("path", "Path", report.String, report.None, 10).AlignLeft(),
			report.Col("ns_per_event", "ns/event", report.Float, report.Nanos, 10).WithPrec(1),
			report.Col("events_per_sec", "Events/s", report.Float, report.Events, 12),
			report.Col("allocs_per_event", "Allocs", report.Int, report.Allocs, 7),
			report.Col("bytes_per_event", "B/event", report.Int, report.Bytes, 8),
		},
	})
	for _, c := range simBenchCases {
		r := testing.Benchmark(c.run)
		ns := float64(r.NsPerOp())
		if r.N > 0 {
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		eventsPerSec := 0.0
		if ns > 0 {
			eventsPerSec = 1e9 / ns
		}
		t.AddRow(
			report.Str(c.name),
			report.Num(ns),
			report.Num(eventsPerSec),
			report.CountOf(r.AllocsPerOp()),
			report.CountOf(r.AllocedBytesPerOp()),
		)
		t.Note("%s: %s", c.name, c.doc)
	}
	rep.Tables = append(rep.Tables, txnPathBench().Tables...)
	return rep
}

// txnPathStats is one end-to-end transaction-path measurement: a small
// in-process Tiga deployment driven for one short run with the Go allocator
// observed around it.
type txnPathStats struct {
	committed int64
	allocs    float64 // heap allocations per committed txn
	bytes     float64 // bytes allocated per committed txn
	peakHeap  uint64  // max HeapAlloc sampled mid-run, bytes
}

// txnPathCase is one row of the transaction-path table: an arrival process
// (empty = closed loop), a workload on a number of shards, a keyspace per
// shard, and a measured window.
type txnPathCase struct {
	loop, arrival, workload string
	shards, keys            int
	window                  time.Duration
}

// txnPathCases are the two small budget rows (2 000 keys, 1 s: no checkpoint
// fires inside them) and one row at 100 000 keys over 2 s, where every shard's
// log crosses a checkpoint-every = 2000 boundary inside the run: a
// per-checkpoint cost that scales with the keyspace shows in its B/txn (60 KB
// against 17 KB while checkpoints deep-copied the store) and nowhere in the
// other two. closed-tpcc puts TPC-C under the same gate: multi-key pieces,
// inserted rows and interactive chains on six shards.
var txnPathCases = []txnPathCase{
	{"closed", "", "micro", 3, 2000, time.Second},
	{"open", "poisson", "micro", 3, 2000, time.Second},
	{"closed-100k", "", "micro", 3, 100_000, 2 * time.Second},
	{"closed-tpcc", "", "tpcc", 6, 2000, time.Second},
}

// measureTxnPath runs one small deployment and attributes the allocator
// deltas to its committed transactions. The run is serial and self-contained,
// so Mallocs/TotalAlloc deltas are the run's own; peak HeapAlloc is sampled
// every 100 ms of simulated time (live heap is GC-timing dependent, so the
// peak is indicative — allocs/txn is the stable signal benchdiff tracks).
func measureTxnPath(c txnPathCase) txnPathStats {
	spec := harness.ClusterSpec{
		Protocol: "Tiga", Workload: c.workload, WorkloadKeys: c.keys,
		Shards: c.shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 42,
		CostScale: harness.CPUScale,
	}
	if err := spec.EnsureGen(); err != nil {
		panic(err)
	}
	d := harness.Build(spec)
	var peak uint64
	var sample func()
	sample = func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		d.Sim.At(d.Sim.Now()+100*time.Millisecond, sample)
	}
	d.Sim.At(0, sample)
	load := harness.LoadSpec{
		RatePerCoord: 500, Outstanding: 100, Arrival: c.arrival,
		Warmup: 200 * time.Millisecond, Duration: c.window, Seed: 43,
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := harness.RunLoad(d, spec.Gen, load)
	runtime.ReadMemStats(&m1)
	st := txnPathStats{committed: res.Run.Counters.Committed, peakHeap: peak}
	if st.committed > 0 {
		st.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(st.committed)
		st.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(st.committed)
	}
	return st
}

// txnPathBench builds the transaction-path allocation table: the full
// deployment cost per committed transaction (generator, coordinator,
// protocol, replication, metrics — everything the serving path allocates),
// measured on the closed loop, on the open-loop Poisson path the scale-out
// sweeps drive, and on a closed loop long and wide enough to cross checkpoint
// boundaries.
func txnPathBench() *report.Report {
	rep := report.New("simbench-txnpath")
	t := rep.Add(&report.Table{
		ID: "txnpath", Gap: true,
		Title: "Transaction-path allocation (Tiga, micro 3-shard or TPC-C 6-shard, one short in-process run per row)",
		Columns: []report.Column{
			report.Col("loop", "Loop", report.String, report.None, 11).AlignLeft(),
			report.Col("committed", "Committed", report.Int, report.None, 10),
			report.Col("allocs_per_txn", "Allocs/txn", report.Float, report.Allocs, 11).WithPrec(1),
			report.Col("bytes_per_txn", "B/txn", report.Float, report.Bytes, 10).WithPrec(0),
			report.Col("peak_heap", "PeakHeap", report.Int, report.Bytes, 12),
		},
	})
	for _, c := range txnPathCases {
		st := measureTxnPath(c)
		t.AddRow(report.Str(c.loop), report.CountOf(st.committed),
			report.Num(st.allocs), report.Num(st.bytes),
			report.CountOf(int64(st.peakHeap)))
	}
	t.Note("(allocs/txn and B/txn are allocator deltas over the whole run divided by commits; peak heap is sampled every 100 ms of sim time)")
	t.Note("(closed and open: 2 000 keys/shard for 1 s; closed-100k: 100 000 keys/shard for 2 s, so checkpoint boundaries fall inside the run; closed-tpcc: the tpcc workload at keys 2 000 on 6 shards for 1 s)")
	return rep
}
