package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tiga/internal/report"
)

// The golden files under testdata/ were captured from the pre-report-model
// experiment code (PR 3), which fmt.Fprintf'd its presentation directly, at
// the cheap fixed configurations below. These tests replay the same
// configurations through the report model + text renderer and require
// byte-identical output: the refactor moved every experiment onto typed
// tables without changing a single rendered byte on defaults.
//
// The configurations restrict protocols/axes to keep the replay affordable;
// the formats they exercise cover every column layout the experiments use (the
// remaining layouts are pinned cell-by-cell in internal/report's unit tests).
// The replays run on every core: a golden recorded serially then also checks
// that the sweep's output does not depend on the worker count.

// bufferedProtocols are the protocols that execute pieces against a buffered
// view (Store.ExecuteBuffered) and install the write set at their own commit
// point. Detock does too; it has its own pair of goldens.
var bufferedProtocols = []string{"Tapir", "2PL+Paxos", "OCC+Paxos"}

// bufferedOpts caps the three at outstanding per coordinator: at the shared
// cap of 400 they commit 0–14 % of what they are offered on 800 keys, which
// pins little; capped, every cell commits and every cell aborts and retries.
func bufferedOpts(outstanding int) Options {
	o := goldenOpts()
	o.Protocols = bufferedProtocols
	o.Ops = make(map[string]OpPoint)
	for _, p := range bufferedProtocols {
		o.Ops[p] = OpPoint{Outstanding: outstanding}
	}
	return o
}

func goldenOpts() Options {
	return Options{Quick: true, Keys: 800, Seed: 42, Workers: 0}
}

func checkGolden(t *testing.T, name string, rep *report.Report) {
	t.Helper()
	var text bytes.Buffer
	report.Render(&text, rep)
	compareGolden(t, name+".golden", text.Bytes())
	// The JSON rendering of the same report pins what the text drops: table
	// ids, column units, full-precision cells and the Meta stamps.
	compareGolden(t, name+".json.golden", encodeReport(t, rep))
}

// encodeReport is the JSON rendering the goldens pin and the determinism
// tests compare across -workers: one document holding just rep.
func encodeReport(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	doc := &report.Document{
		Generated:   report.Generated{Seed: 42, Quick: true, CPUScale: CPUScale},
		Experiments: []*report.Report{rep},
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: rendering differs from the golden\n--- got ---\n%s\n--- want ---\n%s",
			file, got, want)
	}
}

// TestGoldenTextRenderer is the byte-identical pin for the report-model
// refactor. Each sub-test rebuilds one experiment at the captured
// configuration and compares the rendered text against the PR 3 bytes.
func TestGoldenTextRenderer(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replays run full (quick-mode) experiments; skipped under -short")
	}
	cases := []struct {
		name string
		run  func(t *testing.T) *report.Report
	}{
		{"table1", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Janus"}
			return Table1(o)
		}},
		{"fig7", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Janus"}
			return Fig7And8(o)
		}},
		{"fig9", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Tiga", "Janus"}
			return Fig9(o)
		}},
		{"fig10", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Tiga", "Janus"}
			return Fig10(o)
		}},
		{"fig11b", func(t *testing.T) *report.Report {
			return Fig11Baseline(goldenOpts())
		}},
		{"fig11c", func(t *testing.T) *report.Report {
			// Captured from the PR 4 code (pre-chaos-layer baselineFailover);
			// the chaos-plan rewrite must not change a byte.
			return Fig11NCC(goldenOpts())
		}},
		{"table2", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Tiga", "Janus"}
			return Table2(o)
		}},
		{"fig12", func(t *testing.T) *report.Report {
			return Fig12(goldenOpts())
		}},
		{"fig13", func(t *testing.T) *report.Report {
			return Fig13(goldenOpts())
		}},
		{"table3", func(t *testing.T) *report.Report {
			return Table3(goldenOpts())
		}},
		{"ablations", func(t *testing.T) *report.Report {
			return Ablations(goldenOpts())
		}},
		{"scenarios", func(t *testing.T) *report.Report {
			o := goldenOpts()
			o.Protocols = []string{"Tiga", "Janus"}
			o.Topologies = []string{"us-eu3", "geo4-degraded"}
			o.Workloads = []string{"micro", "ycsbt"}
			return ScenarioMatrix(o)
		}},
		{"chaos", func(t *testing.T) *report.Report {
			// The cheapest configuration that renders the per-plan phase
			// table and the planet5 rider: one protocol, one plan, two runs.
			o := goldenOpts()
			o.Protocols = []string{"Tiga"}
			o.Plans = []string{"wan-partition"}
			return ChaosMatrix(o)
		}},
		{"chaos-recovery", func(t *testing.T) *report.Report {
			// Tiga's recovery and resend paths: leader-crash runs a view
			// change, then the rebooted server's rejoin and state transfer;
			// flaky-link loses and reorders messages, so replies are re-sent,
			// agreements re-broadcast and log-syncs arrive out of order.
			o := goldenOpts()
			o.Protocols = []string{"Tiga"}
			o.Plans = []string{"leader-crash", "flaky-link"}
			return ChaosMatrix(o)
		}},
		{"breakdown", func(t *testing.T) *report.Report {
			// Captured at PR 10 (tracing introduction): pins the phase
			// decomposition — and, transitively, the trace determinism the
			// breakdown experiment rides on — at the golden configuration.
			return Breakdown(goldenOpts())
		}},
		{"localreads", func(t *testing.T) *report.Report {
			// Captured at PR 12, before the read path moved into
			// internal/snapread: the only pin of lockocc's local reads, and of
			// both coordinators' re-drive through a partition (chaos section).
			o := goldenOpts()
			o.Protocols = []string{"Tiga", "2PL+Paxos", "OCC+Paxos"}
			return LocalReads(o)
		}},
		{"scaleout", func(t *testing.T) *report.Report {
			// Captured at PR 12: open-loop arrivals, admission shedding and
			// the QueueLat / service-latency split.
			o := goldenOpts()
			o.Protocols = []string{"Tiga"}
			return ScaleOut(o)
		}},
		{"emptysel", func(t *testing.T) *report.Report {
			// The by-design exclusion remark: Detock-only against Table 2
			// renders the title, the header, and the explanatory note.
			o := goldenOpts()
			o.Protocols = []string{"Detock"}
			return Table2(o)
		}},
		{"fig9-detock", func(t *testing.T) *report.Report {
			// Captured at PR 15, before Detock's engine was rewritten to order
			// and release per touched key: with 60 outstanding per coordinator
			// the engines' queues pass the default ddr-scan window of 256 in
			// three passes of four, so the capped DDR charge is pinned too.
			o := goldenOpts()
			o.Protocols = []string{"Detock"}
			o.Ops = map[string]OpPoint{"Detock": {Outstanding: 60}}
			return Fig9(o)
		}},
		{"fig10-detock", func(t *testing.T) *report.Report {
			// Captured with fig9-detock: TPC-C's multi-key pieces, inserted
			// rows (NoKeyID) and interactive chains on Detock.
			o := goldenOpts()
			o.Protocols = []string{"Detock"}
			o.Ops = map[string]OpPoint{"Detock": {Outstanding: 150}}
			return Fig10(o)
		}},
		{"fig9-buffered", func(t *testing.T) *report.Report {
			// Captured at PR 16, before Store.ExecuteBuffered returned an ordered
			// id-keyed write list: the three protocols that execute against a
			// buffered view and install its writes later, on a skew sweep hot
			// enough (800 keys) that commit rates run from 100 % down to 14 %.
			// Tapir is in no other golden.
			return Fig9(bufferedOpts(20))
		}},
		{"fig10-buffered", func(t *testing.T) *report.Report {
			// Captured with fig9-buffered: TPC-C's multi-key pieces, rows inserted
			// by name and read back by later transactions, and interactive chains
			// on the buffered-view protocols (2PL/OCC run TPC-C in no other
			// golden).
			return Fig10(bufferedOpts(40))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, tc.run(t))
		})
	}
}

// TestGoldenJSONRoundTrip re-renders a decoded artifact: one real experiment
// is built, emitted as a JSON document, decoded back, and its re-rendered
// text must equal both the direct render and the pre-refactor golden. This
// is the end-to-end guarantee that the archived BENCH artifact carries the
// full presentation, not a lossy summary.
func TestGoldenJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (quick-mode) experiment; skipped under -short")
	}
	rep := Fig12(goldenOpts())
	doc := &report.Document{
		Generated:   report.Generated{Seed: 42, Quick: true, CPUScale: CPUScale},
		Experiments: []*report.Report{rep},
	}
	var enc bytes.Buffer
	if err := doc.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	back, err := report.Decode(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].Name != "fig12" {
		t.Fatalf("decoded document lost the experiment: %+v", back.Experiments)
	}
	checkGolden(t, "fig12", back.Experiments[0])
	// The decoded table keeps its metadata (self-describing artifact).
	tab := back.Experiments[0].Find("fig12")
	if tab == nil || tab.Meta["topology"] != "geo4" || tab.Meta["seed"] != "42" {
		t.Fatalf("decoded table lost its metadata: %+v", tab)
	}
}
