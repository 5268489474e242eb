package harness

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// TestTxnPathDeterminism pins the allocation work of the txn path — interned
// keys, pooled wire messages and records, scratch-slice reuse — to the
// simulator's core guarantee: a fixed seed renders byte-identical reports no
// matter how many sweep workers run the points. A regression here means some
// recycled object leaked state between transactions, or a pool was touched
// from outside its owning simulation. The double-free detector (pool.Check)
// is armed for the duration so a recycle bug fails loudly rather than as a
// silent byte diff.
func TestTxnPathDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (quick-mode) experiment cells; skipped under -short")
	}
	pool.Check = true
	defer func() { pool.Check = false }()

	render := func(rep *report.Report) []byte {
		var buf bytes.Buffer
		report.Render(&buf, rep)
		return buf.Bytes()
	}
	cases := []struct {
		name string
		run  func(workers int) []byte
	}{
		// table1 drives the closed-loop saturation search: pooled Tiga
		// messages, pendingTxn envelopes, and the slice-backed store.
		{"table1", func(workers int) []byte {
			o := Options{Quick: true, Keys: 800, Seed: 42, Workers: workers,
				Protocols: []string{"Tiga"}}
			return render(Table1(o))
		}},
		// scaleout drives the open-loop path: pooled job envelopes, the
		// admission gate, and the lockocc record freelists (2PL+Paxos).
		{"scaleout", func(workers int) []byte {
			o := Options{Quick: true, Keys: 24_000, Seed: 42, Workers: workers,
				Protocols: []string{"Tiga", "2PL+Paxos"},
				Ops: map[string]OpPoint{
					"Tiga":      {SaturationRate: 500, Outstanding: 150},
					"2PL+Paxos": {SaturationRate: 250, Outstanding: 100},
				}}
			return render(ScaleOut(o))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial, parallel := tc.run(1), tc.run(8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%s: rendered report differs between -workers 1 and 8\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					tc.name, serial, parallel)
			}
		})
	}
}

// listedGen emits three-shard increments, one key of listedKeys per shard,
// whose pieces the caller lists in ascending or in descending shard order.
const listedKeys = 200

type listedGen struct {
	descending bool
	seed       *workload.MicroBench
}

func (g *listedGen) Seed(shard int, st *store.Store) { g.seed.Seed(shard, st) }

func (g *listedGen) Next(rng *rand.Rand) workload.Job {
	pieces := make([]txn.Piece, 3)
	for sh := range pieces {
		idx := rng.Intn(listedKeys)
		pieces[sh] = txn.IncrementPieceID(workload.Key(sh, idx), txn.KeyID(idx)).On(sh)
	}
	if g.descending {
		slices.Reverse(pieces)
	}
	return workload.Job{T: &txn.Txn{Label: "listed", Pieces: txn.ByShard(pieces...)}, Label: "listed"}
}

// TestPieceOrderNeverReachesTheWire: txn.ByShard's sort is the only thing
// between the order a caller lists a transaction's pieces in and the order a
// protocol multicasts, collects votes and returns results in. Every protocol
// must therefore produce the same JSON document — commits, latencies, fast-path
// share, messages sent — whether the pieces were listed ascending or
// descending. (Take the sort out of ByShard and six of the nine rows move.)
func TestPieceOrderNeverReachesTheWire(t *testing.T) {
	document := func(descending bool) []byte {
		names := protocol.Names()
		runs := make([]SpecRun, len(names))
		for i, name := range names {
			runs[i] = SpecRun{
				Spec: ClusterSpec{Protocol: name, Shards: 3, F: 1, Clock: clocks.ModelChrony,
					CoordsPerRegion: 1, CoordsRemote: 1, Seed: 5,
					Gen: &listedGen{descending: descending, seed: workload.NewMicroBench(3, listedKeys, 0)}},
				Load:           LoadSpec{RatePerCoord: 40, Outstanding: 20, Warmup: 200 * time.Millisecond, Duration: time.Second, Seed: 6},
				KeepDeployment: true,
			}
		}
		rep := report.New("piece-order")
		tab := rep.Add(&report.Table{ID: "listed", Columns: []report.Column{
			report.Col("protocol", "Protocol", report.String, report.None, 12).AlignLeft(),
			report.Col("commits", "Commits", report.Int, report.Count, 8),
			report.Col("fast", "Fast", report.Int, report.Count, 8),
			report.Col("p50", "p50", report.Duration, report.Nanos, 12),
			report.Col("p99", "p99", report.Duration, report.Nanos, 12),
			report.Col("sent", "Sent", report.Int, report.Count, 8),
		}})
		for i, res := range RunSpecs(runs, 2) {
			if res.Run.Counters.Committed == 0 {
				t.Errorf("%s committed nothing", names[i])
			}
			tab.AddRow(report.Str(names[i]), report.CountOf(res.Run.Counters.Committed), report.CountOf(res.Run.Counters.FastPath),
				report.Dur(res.Run.Lat.Percentile(50)), report.Dur(res.Run.Lat.Percentile(99)), report.CountOf(res.Deployment.Net.Sent))
		}
		var buf bytes.Buffer
		if err := (&report.Document{Experiments: []*report.Report{rep}}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	asc, desc := document(false), document(true)
	smallIntsIntact(t)
	if !bytes.Equal(asc, desc) {
		t.Fatalf("pieces listed in descending order changed the document\n--- ascending ---\n%s\n--- descending ---\n%s", asc, desc)
	}
}
