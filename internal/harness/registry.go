package harness

import (
	"tiga/internal/registry"
	"tiga/internal/report"
)

// Experiment is one runnable, named experiment: the unit the CLI selects
// with -exp, the JSON artifact indexes by name, and the CI smoke check
// enumerates. Run builds the experiment's full report; rendering is the
// caller's choice (text, JSON, CSV — see internal/report).
type Experiment struct {
	// Name is the -exp selector ("table1", "fig7", ...).
	Name string
	// Doc is a one-line description surfaced by discovery tooling
	// (cmd/tigabench -exp list).
	Doc string
	// Run executes the experiment and returns its report.
	Run func(o Options) *report.Report
}

// experiments lists every experiment in presentation order — the order
// `-exp all` renders. fig8 is an alias handled by the CLI: the harness
// records both regions in the fig7 pass.
var experiments = registry.New[Experiment]("experiment")

func init() {
	for _, e := range []Experiment{
		{"table1", "Table 1: maximum throughput (MicroBench + TPC-C)", Table1},
		{"fig7", "Figs 7+8: rate sweep, local + remote region latency", Fig7And8},
		{"fig9", "Fig 9: skew sweep", Fig9},
		{"fig10", "Fig 10: TPC-C rate sweep", Fig10},
		{"fig11", "Fig 11: Tiga leader failure recovery", Fig11},
		{"fig11b", "Fig 11 analogue: 2PL+Paxos leader crash + reboot", Fig11Baseline},
		{"fig11c", "Fig 11 analogue: NCC+ crash + reboot (no retry timer: outage txns hang)", Fig11NCC},
		{"table2", "Table 2: server rotation", Table2},
		{"fig12", "Fig 12: colocate vs separate", Fig12},
		{"fig13", "Fig 13: headroom sensitivity", Fig13},
		{"table3", "Table 3: clock ablation", Table3},
		{"fig14", "Fig 14: latency per clock model", Fig14},
		{"ablations", "extra ablations (ε-mode, Appendix E)", Ablations},
		{"scenarios", "protocol × topology × workload matrix", ScenarioMatrix},
		{"chaos", "protocol × fault-plan matrix (crashes, partitions, link faults, clock steps)", ChaosMatrix},
		{"localreads", "local snapshot reads: 0-WRTT read-only txns vs replica staleness, watermark lag, partition chaos", LocalReads},
		{"scaleout", "scale-out serving: shards × replication over a fixed million-key dataset, open-loop arrivals, admission-gated overload", ScaleOut},
		{"breakdown", "critical-path latency decomposition: per-phase breakdown from txn-lifecycle traces, commit and local-read paths", Breakdown},
	} {
		experiments.Add(e.Name, e)
	}
}

// Experiments returns every registered experiment in presentation order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentNames returns the registered experiment names in presentation
// order.
func ExperimentNames() []string { return experiments.Names() }
