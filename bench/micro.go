package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/graph"
	"tiga/internal/harness"
	"tiga/internal/hashlog"
	"tiga/internal/locks"
	"tiga/internal/metrics"
	"tiga/internal/paxos"
	"tiga/internal/report"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"

	_ "tiga/internal/tpcc" // registers the tpcc workload
)

// The micro rows time one public call of one layer in a loop, with
// testing.Benchmark. They do not depend on the workload, so every workload's
// per-layer set carries the same rows; they are where a layer's own cost
// shows before (or without) any end-to-end metric moving.

// sink defeats dead-code elimination of the measured calls.
var sink any

const microKeys = 10_000

// microRow is one benchmark function and the metric names its result feeds:
// ns/op always, allocs/op and bytes/op when named. per divides all three
// (a row that does `per` units of work per iteration).
type microRow struct {
	ns, allocs, bytes string
	per               float64
	run               func(b *testing.B)
}

func microKeyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = workload.Key(0, i)
	}
	return names
}

// versionedStore returns a snapshot-retaining store holding `versions`
// committed versions of each of n keys, at timestamps 1ms, 2ms, ….
func versionedStore(names []string, versions int) *store.Store {
	st := store.New()
	st.EnableSnapshots()
	st.SeedBulk(names, txn.EncodeInt(0))
	val := txn.EncodeInt(1)
	for v := 1; v < versions; v++ {
		ts := txn.Timestamp{Time: time.Duration(v) * time.Millisecond, Coord: 1, Seq: uint64(v)}
		for _, k := range names {
			st.PutCommitted(k, ts, val)
		}
	}
	return st
}

func zeroDelayNet() (*simnet.Sim, *simnet.Network) {
	sim := simnet.NewSim(1)
	return sim, simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD(
		[][]time.Duration{{0}}, 0)})
}

// oneMsLink is the sim-core fixture of the repository's own BenchmarkSim*
// suite: two regions 1 ms apart, no jitter or loss.
func oneMsLink() (*simnet.Sim, *simnet.Network) {
	sim := simnet.NewSim(1)
	ms1 := time.Millisecond
	return sim, simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD(
		[][]time.Duration{{ms1, ms1}, {ms1, ms1}}, 0)})
}

func microTable() []microRow {
	names := microKeyNames(microKeys)
	micro := workload.NewMicroBench(3, 100_000, 0.5)
	tpccGen, err := workload.Build("tpcc", 6, 5000, nil)
	if err != nil {
		panic(err)
	}
	ycsbt, err := workload.Build("ycsbt", 6, 100_000, map[string]any{"skew": 0.7, "read-ratio": 0.95})
	if err != nil {
		panic(err)
	}
	genRow := func(ns, allocs string, gen workload.Generator) microRow {
		return microRow{ns: ns, allocs: allocs, run: func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			gen.Next(rng) // builds the generator's key-name cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := gen.Next(rng)
				if job.I != nil { // an interactive chain: build its first stage too
					sink, _, _ = job.I.Next(0, nil)
				}
				sink = job
			}
		}}
	}
	execCommit := func(ns, allocs string, piece func(i int) *txn.Piece) microRow {
		return microRow{ns: ns, allocs: allocs, run: func(b *testing.B) {
			st := store.New()
			st.SeedBulk(names, txn.EncodeInt(0))
			pieces := make([]*txn.Piece, 1024)
			for i := range pieces {
				pieces[i] = piece(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := txn.ID{Coord: 1, Seq: uint64(i + 1)}
				ts := txn.Timestamp{Time: time.Duration(i), Coord: 1, Seq: uint64(i + 1)}
				sink = st.ExecuteID(id, ts, pieces[i%len(pieces)])
				st.Commit(id)
			}
		}}
	}
	return []microRow{
		{ns: "simnet.send_ns", run: func(b *testing.B) {
			s, n := oneMsLink()
			src := n.AddNode(0, nil)
			n.AddNode(1, func(simnet.NodeID, simnet.Message) {})
			msg := simnet.Message(&struct{ payload int }{7})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Send(1, msg)
				s.Step()
			}
		}},
		{ns: "simnet.queue_ns", run: func(b *testing.B) {
			s := simnet.NewSim(1)
			fn := func() {}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 1024; i++ {
				s.At(time.Duration(rng.Int63n(int64(time.Second))), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.At(s.Now()+time.Duration(rng.Int63n(int64(time.Millisecond))), fn)
				s.Step()
			}
		}},
		{ns: "simnet.timer_ns", run: func(b *testing.B) {
			s, n := oneMsLink()
			nd := n.AddNode(0, nil)
			fn := func() {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd.After(time.Microsecond, fn)
				for s.Step() {
				}
			}
		}},

		execCommit("store.exec_commit_ns", "store.exec_commit_allocs", func(i int) *txn.Piece {
			return txn.IncrementPieceID(names[i], txn.KeyID(i))
		}),
		execCommit("store.exec_commit_str_ns", "", func(i int) *txn.Piece {
			return txn.IncrementPiece(names[i])
		}),
		{ns: "store.getat_ns", run: func(b *testing.B) {
			st := versionedStore(names, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i%8) * time.Millisecond
				sink, _, _ = st.GetAtID(txn.KeyID(i%microKeys), at)
			}
		}},
		{ns: "store.prune_ns_per_version", per: 7 * 2000, run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := versionedStore(names[:2000], 8)
				b.StartTimer()
				if n := st.PruneTo(time.Second); n != 7*2000 {
					panic(fmt.Sprintf("bench: PruneTo dropped %d versions, want %d", n, 7*2000))
				}
			}
		}},
		{ns: "store.seed_ns_per_key", bytes: "store.bytes_per_key", per: microKeys, run: func(b *testing.B) {
			val := txn.EncodeInt(0)
			for i := 0; i < b.N; i++ {
				st := store.New()
				st.SeedBulk(names, val)
				sink = st
			}
		}},

		genRow("workload.micro_next_ns", "workload.micro_next_allocs", micro),
		genRow("workload.tpcc_next_ns", "workload.tpcc_next_allocs", tpccGen),
		genRow("workload.ycsbt_next_ns", "", ycsbt),
		{ns: "workload.poisson_gap_ns", run: func(b *testing.B) {
			arr, err := workload.BuildArrival("poisson", 6000, 0, numCoords, 0, nil)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(7))
			var now time.Duration
			for i := 0; i < b.N; i++ {
				now += arr.Next(now, rng)
			}
			sink = now
		}},

		{ns: "hashlog.entry_ns", run: func(b *testing.B) {
			var inc hashlog.Incremental
			for i := 0; i < b.N; i++ {
				inc.Add(txn.ID{Coord: 1, Seq: uint64(i)}, txn.Timestamp{Time: time.Duration(i), Coord: 1, Seq: uint64(i)})
			}
			sink = inc.Sum()
		}},
		{ns: "clocks.read_ns", run: func(b *testing.B) {
			c := clocks.NewFactory(clocks.ModelChrony, time.Minute, 1).New()
			var acc time.Duration
			for i := 0; i < b.N; i++ {
				acc += c.Read(time.Duration(i%50_000) * time.Millisecond)
			}
			sink = acc
		}},
		{ns: "clocks.whenreads_ns", run: func(b *testing.B) {
			c := clocks.NewFactory(clocks.ModelChrony, time.Minute, 1).New()
			var acc time.Duration
			for i := 0; i < b.N; i++ {
				now := time.Duration(i%50_000) * time.Millisecond
				acc += c.WhenReads(now+10*time.Millisecond, now)
			}
			sink = acc
		}},

		{ns: "locks.acquire_release_ns", allocs: "locks.acquire_release_allocs", run: func(b *testing.B) {
			t := locks.NewTable()
			for i := 0; i < b.N; i++ {
				id := txn.ID{Coord: 1, Seq: uint64(i + 1)}
				if !t.Acquire(names[i%1024], locks.Exclusive, id, uint64(i), nil) {
					panic("bench: uncontended lock was not granted")
				}
				t.ReleaseAll(id)
			}
		}},
		{ns: "paxos.commit_ns", run: func(b *testing.B) {
			sim, reps, _ := paxosGroup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reps[0].Propose(i)
				for sim.Step() {
				}
			}
			if reps[2].Applied() != b.N {
				panic(fmt.Sprintf("bench: paxos follower applied %d of %d", reps[2].Applied(), b.N))
			}
		}},
		{ns: "graph.scc_ns_per_node", allocs: "graph.scc_allocs_per_node", per: 1000, run: func(b *testing.B) {
			g := graph.New()
			for v := uint64(0); v < 1000; v++ { // a chain with a back edge closing every tenth vertex's cycle
				g.AddEdge(v, (v+1)%1000)
				if v%10 == 9 {
					g.AddEdge(v, v-9)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = g.SCC()
			}
		}},

		{ns: "metrics.record_ns", run: func(b *testing.B) {
			run := metrics.NewRun()
			for i := 0; i < b.N; i++ {
				run.RecordCommit(time.Duration(i)*time.Microsecond, time.Duration(i%1000)*time.Microsecond, "VA", i%2 == 0)
			}
			sink = run
		}},
		{ns: "metrics.percentile_ns_per_sample", per: microKeys, run: func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var l metrics.Latency
				for j := 0; j < microKeys; j++ {
					l.Add(time.Duration(rng.Int63n(int64(time.Second))))
				}
				b.StartTimer()
				sink = l.Percentile(99)
			}
		}},
		{ns: "report.text_ns_per_row", per: reportRows, run: func(b *testing.B) {
			rep := sampleReport()
			for i := 0; i < b.N; i++ {
				report.Render(io.Discard, rep)
			}
		}},
		{ns: "report.json_ns_per_row", per: reportRows, run: func(b *testing.B) {
			doc := &report.Document{Generated: report.Generated{Seed: 42, CPUScale: harness.CPUScale},
				Experiments: []*report.Report{sampleReport()}}
			for i := 0; i < b.N; i++ {
				if err := doc.Encode(io.Discard); err != nil {
					panic(err)
				}
			}
		}},
	}
}

// paxosGroup wires three replicas (leader 0, f = 1) on a zero-delay network.
func paxosGroup() (*simnet.Sim, []*paxos.Replica, *simnet.Network) {
	sim, net := zeroDelayNet()
	var nodes []simnet.NodeID
	for r := 0; r < 3; r++ {
		nodes = append(nodes, net.AddNode(0, nil).ID())
	}
	reps := make([]*paxos.Replica, 3)
	for r := range reps {
		rep := paxos.NewReplica("g", net.Node(nodes[r]), nodes, r, 0, 1)
		reps[r] = rep
		net.Node(nodes[r]).SetHandler(func(from simnet.NodeID, msg simnet.Message) { rep.Handle(from, msg) })
	}
	return sim, reps, net
}

const reportRows = 200

// sampleReport is a sweep-shaped table: protocol, rate, throughput, commit
// rate, p50.
func sampleReport() *report.Report {
	rep := report.New("bench")
	t := rep.Add(&report.Table{ID: "rows", Title: "sample", Columns: []report.Column{
		report.Col("protocol", "Protocol", report.String, report.None, 12).AlignLeft(),
		report.Col("rate", "Rate", report.Int, report.None, 8),
		report.Col("thpt", "Thpt(txn/s)", report.Float, report.Rate, 12),
		report.Col("commit", "Commit%", report.Float, report.Percent, 9).WithPrec(1),
		report.Col("p50", "p50", report.Duration, report.Nanos, 12),
	}})
	for i := 0; i < reportRows; i++ {
		t.AddRow(report.Str("Tiga"), report.CountOf(int64(i)), report.Num(float64(i)*17.5),
			report.Num(99.5), report.Dur(time.Duration(i)*time.Millisecond))
	}
	return rep
}

// microRows runs every micro row and returns metric name → value.
func microRows(cfg config, sp *spanLog) map[string]float64 {
	if err := flag.Set("test.benchtime", cfg.microTime.String()); err != nil {
		panic(err)
	}
	start := time.Now()
	parent := sp.add("micro rows", -1, start, start)
	out := make(map[string]float64)
	for _, row := range microTable() {
		row := row
		var r testing.BenchmarkResult
		sp.timed("micro "+row.ns, parent, func() {
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				row.run(b)
			})
		})
		per := row.per
		if per == 0 {
			per = 1
		}
		n := float64(r.N) * per
		out[row.ns] = float64(r.T.Nanoseconds()) / n
		if row.allocs != "" {
			out[row.allocs] = float64(r.MemAllocs) / n
		}
		if row.bytes != "" {
			out[row.bytes] = float64(r.MemBytes) / n
		}
	}
	// Messages per Paxos commit is a count, read off the network.
	sim, reps, net := paxosGroup()
	const proposals = 1000
	for i := 0; i < proposals; i++ {
		reps[0].Propose(i)
		for sim.Step() {
		}
	}
	out["paxos.msgs_per_commit"] = float64(net.Sent) / proposals

	for _, loop := range []struct{ name, arrival string }{{"closed", ""}, {"open", "poisson"}} {
		loop := loop
		sp.timed("micro harness."+loop.name, parent, func() {
			ns, allocs := driverCost(cfg, loop.arrival)
			out["harness."+loop.name+"_ns_per_txn"] = ns
			out["harness."+loop.name+"_allocs_per_txn"] = allocs
		})
	}
	sp.end(parent, time.Now())
	return out
}

// driverCost drives the null protocol with the MicroBench generator through
// harness.RunLoad and returns host ns and allocations per committed
// transaction: the load driver's own cost (generator, envelope, metrics
// recording, one simulator event per tick and per completion).
func driverCost(cfg config, arrival string) (ns, allocs float64) {
	spec := baseSpec(nullProtocol, 3)
	spec.Workload = "micro"
	spec.WorkloadKeys = microKeys
	if err := spec.EnsureGen(); err != nil {
		panic(err)
	}
	d := harness.Build(spec)
	window := 20 * cfg.microTime // 5000/coord × 8 coordinators × 3 s = 120 000 txns by default
	load := harness.LoadSpec{RatePerCoord: 5000, Outstanding: 300, Arrival: arrival,
		Duration: window, Seed: cfg.seed}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := harness.RunLoad(d, spec.Gen, load)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	c := float64(res.Run.Counters.Committed)
	if c == 0 {
		panic("bench: the null protocol committed nothing")
	}
	return float64(elapsed) / c, float64(m1.Mallocs-m0.Mallocs) / c
}
