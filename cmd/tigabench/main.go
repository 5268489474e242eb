// Command tigabench regenerates the tables and figures of the Tiga paper's
// evaluation (§5) on the simulated geo-distributed testbed.
//
// Usage:
//
//	tigabench -exp table1            # Table 1: max throughput
//	tigabench -exp fig7              # Figs 7+8: rate sweep, local + remote
//	tigabench -exp fig9              # Fig 9: skew sweep
//	tigabench -exp fig10             # Fig 10: TPC-C rate sweep
//	tigabench -exp fig11             # Fig 11: leader failure recovery
//	tigabench -exp fig11b            # Fig 11 analogue: 2PL+Paxos leader crash + reboot
//	tigabench -exp fig11c            # Fig 11 analogue: NCC+ crash + reboot (outage txns hang)
//	tigabench -exp table2            # Table 2: server rotation
//	tigabench -exp fig12             # Fig 12: colocate vs separate
//	tigabench -exp fig13             # Fig 13: headroom sensitivity
//	tigabench -exp table3            # Table 3: clock ablation
//	tigabench -exp fig14             # Fig 14: latency per clock model
//	tigabench -exp ablations         # extra ablations (ε-mode, Appendix E)
//	tigabench -exp scenarios         # protocol × topology × workload matrix
//	tigabench -exp chaos             # protocol × fault-plan matrix
//	tigabench -exp localreads        # 0-WRTT local snapshot reads vs the coordinator path
//	tigabench -exp scaleout          # shards × replication, open-loop arrivals, admission gates
//	tigabench -exp breakdown         # critical-path latency decomposition by phase
//	tigabench -exp all               # everything
//	tigabench -exp list              # list the registered experiments
//
// Output:
//
//	Every experiment builds a typed report (internal/report); -format picks
//	the renderer:
//
//	tigabench -exp fig7                        # text, the paper's layout (default)
//	tigabench -exp all -format json            # one self-describing JSON document
//	tigabench -exp table1 -format csv          # flattened CSV blocks
//	tigabench -exp all -format json -out BENCH.json   # write the artifact to a file
//
// Tuning:
//
//	tigabench -knobs                           # list every protocol's knobs
//	tigabench -set Tiga.delta=20ms -exp fig13  # override a knob (repeatable)
//	tigabench -op 2PL+Paxos=1500,200 -exp table1
//	                                 # per-protocol operating point:
//	                                 # saturation rate[,outstanding cap]
//	tigabench -op Tiga@us-eu3=2000 -exp scenarios
//	                                 # per-cell operating point for the
//	                                 # scenario matrix (protocol × topology)
//
// Scenarios:
//
//	tigabench -topo list             # list the registered WAN topologies
//	tigabench -workload list         # list the registered workloads
//	tigabench -exp scenarios -topo us-eu3,planet5 -workload ycsbt,hotwrite
//	tigabench -exp fig7 -topo us-eu3 # classic experiment on another WAN
//	                                 # (region labels follow the topology)
//
// Chaos:
//
//	tigabench -chaos list            # list the registered fault plans
//	tigabench -exp chaos -chaos leader-crash,clock-step
//	                                 # fault-plan subset for the chaos matrix
//
// Tracing:
//
//	tigabench -exp table1 -trace out.json
//	                                 # record every transaction's lifecycle
//	                                 # spans and write the per-run phase
//	                                 # summaries — critical-path breakdowns
//	                                 # plus tail exemplars — as Chrome
//	                                 # trace-event JSON (load in Perfetto or
//	                                 # chrome://tracing)
//
// Add -quick for a reduced sweep (seconds instead of minutes per figure).
// Independent sweep points run on the parallel driver; -workers bounds the
// in-flight points per experiment (0 = all cores, 1 = the old serial
// behavior — output is identical either way). Experiments share one
// work-stealing worker pool and run concurrently under -exp all, so one
// experiment's tail no longer idles the cores; output is still printed in
// presentation order. -protocols restricts multi-protocol sweeps to a subset
// of the registered protocols. Throughput is reported in simulated-testbed
// units: per-operation CPU costs are scaled by harness.CPUScale (see
// EXPERIMENTS.md).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"tiga/internal/chaos"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/simnet"
	"tiga/internal/trace"
	"tiga/internal/workload"
)

// experimentNames returns the registry's names plus the CLI-level extras:
// the fig8 alias (the harness records both regions in the fig7 pass) and
// "all".
func experimentNames() []string {
	names := make([]string, 0, 16)
	for _, n := range harness.ExperimentNames() {
		names = append(names, n)
		if n == "fig7" {
			names = append(names, "fig8")
		}
	}
	return append(names, "all")
}

// jobWriter buffers an experiment's output until the presentation order
// reaches it; promote flushes the backlog and streams every subsequent
// write straight through (the head-of-queue experiment prints live).
type jobWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
	out io.Writer // nil while buffering
}

func (w *jobWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.out != nil {
		return w.out.Write(p)
	}
	return w.buf.Write(p)
}

func (w *jobWriter) promote(dst io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	dst.Write(w.buf.Bytes())
	w.buf.Reset()
	w.out = dst
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tigabench: "+format+"\n", args...)
	os.Exit(2)
}

// printExperiments lists every registered experiment (-exp list).
func printExperiments(w io.Writer) {
	for _, e := range harness.Experiments() {
		fmt.Fprintf(w, "%-10s %s\n", e.Name, e.Doc)
		if e.Name == "fig7" {
			fmt.Fprintf(w, "%-10s (alias of fig7: both regions are recorded in one pass)\n", "fig8")
		}
	}
}

// printTopologies lists every registered WAN topology (-topo list).
func printTopologies(w io.Writer) {
	for _, name := range simnet.TopologyNames() {
		topo, _ := simnet.LookupTopology(name)
		def := ""
		if name == simnet.DefaultTopology {
			def = "  (default)"
		}
		fmt.Fprintf(w, "%s%s\n  %s\n  regions: %s (servers in the first %d; remote coordinators in %s)\n",
			name, def, topo.Doc, strings.Join(topo.RegionNames, ", "),
			topo.ServerRegions, topo.RegionName(topo.RemoteCoordRegion))
	}
}

// printChaosPlans lists every registered fault plan (-chaos list).
func printChaosPlans(w io.Writer) {
	for _, name := range chaos.Names() {
		p, _ := chaos.Lookup(name)
		kind := ""
		if p.Crashes {
			kind = "  (crash plan: runs only against protocols with fault hooks)"
		}
		fmt.Fprintf(w, "%s%s\n  %s\n  fault window: %v-%v\n", name, kind, p.Doc, p.Window.Start, p.Window.End)
	}
}

// printWorkloads lists every registered workload with its parameter schema
// (-workload list).
func printWorkloads(w io.Writer) {
	for _, name := range workload.Names() {
		def, _ := workload.Lookup(name)
		fmt.Fprintf(w, "%s\n  %s\n", name, def.Doc)
		for _, k := range def.Params {
			dv := fmt.Sprintf("%v", k.Default)
			if d, ok := k.Default.(time.Duration); ok {
				dv = d.String()
			}
			fmt.Fprintf(w, "  param %s=<%s>  (default %s)\n      %s\n", k.Name, k.Type, dv, k.Doc)
		}
	}
}

// splitList splits a comma-separated -protocols/-topo/-workload/-chaos
// subset, dropping empty entries; Options.Validate checks the names.
func splitList(raw string) []string {
	var out []string
	for _, name := range strings.Split(raw, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// printKnobs lists every registered protocol's knob schema.
func printKnobs(w io.Writer) {
	for _, p := range protocol.Names() {
		def, _ := protocol.Lookup(p)
		fmt.Fprintf(w, "%s\n", p)
		if len(def.Knobs) == 0 {
			fmt.Fprintf(w, "  (no knobs)\n")
			continue
		}
		for _, k := range def.Knobs {
			def := fmt.Sprintf("%v", k.Default)
			if d, ok := k.Default.(time.Duration); ok {
				def = d.String()
			}
			if k.Min != nil {
				def += fmt.Sprintf(", min %v", k.Min)
			}
			fmt.Fprintf(w, "  -set %s.%s=<%s>  (default %s)\n      %s\n",
				p, k.Name, k.Type, def, k.Doc)
		}
	}
}

// parseSets turns repeated -set proto.knob=value flags into the harness knob
// map (protocol.ParseSet validates each). Any mistake exits 2 with the valid
// alternatives, mirroring the -exp/-protocols validation.
func parseSets(sets []string) map[string]map[string]any {
	if len(sets) == 0 {
		return nil
	}
	out := make(map[string]map[string]any)
	for _, s := range sets {
		proto, name, v, err := protocol.ParseSet(s)
		if err != nil {
			fail("-set %q: %v", s, err)
		}
		if out[proto] == nil {
			out[proto] = make(map[string]any)
		}
		out[proto][name] = v
	}
	return out
}

// parseOps turns repeated -op proto[@topo]=rate[,outstanding] flags into the
// operating-point map. A @topo suffix keys the point to one protocol ×
// topology cell of the scenario matrix; the bare protocol key applies
// everywhere else.
func parseOps(ops []string) map[string]harness.OpPoint {
	if len(ops) == 0 {
		return nil
	}
	out := make(map[string]harness.OpPoint)
	for _, s := range ops {
		assign := strings.SplitN(s, "=", 2)
		if len(assign) != 2 {
			fail("-op %q: want proto[@topo]=rate[,outstanding]", s)
		}
		key := assign[0]
		if strings.HasSuffix(key, "@") {
			fail("-op %q: empty topology after '@' (want proto[@topo]=rate[,outstanding])", s)
		}
		parts := strings.Split(assign[1], ",")
		if len(parts) > 2 {
			fail("-op %q: want proto[@topo]=rate[,outstanding]", s)
		}
		var op harness.OpPoint
		rate, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || rate <= 0 {
			fail("-op %q: %q is not a positive rate", s, parts[0])
		}
		op.SaturationRate = rate
		if len(parts) == 2 {
			n, err := strconv.Atoi(parts[1])
			if err != nil || n <= 0 {
				fail("-op %q: %q is not a positive outstanding cap", s, parts[1])
			}
			op.Outstanding = n
		}
		out[key] = op
	}
	return out
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), "|")+", or 'list' to enumerate")
	quick := flag.Bool("quick", false, "reduced sweeps and durations")
	seed := flag.Int64("seed", 42, "simulation seed")
	keys := flag.Int("keys", 0, "MicroBench keys per shard (0 = default)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = all cores, 1 = serial)")
	format := flag.String("format", "text", "output format: text|json|csv")
	outPath := flag.String("out", "", "write the rendered output to a file instead of stdout")
	protocols := flag.String("protocols", "",
		"comma-separated protocol subset for the sweeps (default: all registered)")
	topo := flag.String("topo", "",
		"comma-separated topology subset (classic experiments deploy on the first; the scenario matrix sweeps all), or 'list' to enumerate")
	wl := flag.String("workload", "",
		"comma-separated workload subset for the scenario matrix, or 'list' to enumerate")
	chaosPlans := flag.String("chaos", "",
		"comma-separated fault-plan subset for the chaos matrix, or 'list' to enumerate")
	listKnobs := flag.Bool("knobs", false, "list every protocol's knobs with defaults and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap (allocation) profile to this file at exit")
	tracePath := flag.String("trace", "",
		"trace every transaction's lifecycle and write the per-run phase summaries (critical-path breakdowns + tail exemplars) as Chrome trace-event JSON to this file (load in Perfetto)")
	execTracePath := flag.String("exectrace", "", "write a Go runtime execution trace of the run to this file")
	var sets multiFlag
	flag.Var(&sets, "set", "knob override proto.knob=value (repeatable; see -knobs)")
	var ops multiFlag
	flag.Var(&ops, "op", "operating-point override proto[@topo]=rate[,outstanding] (repeatable)")
	flag.Parse()

	if *listKnobs {
		printKnobs(os.Stdout)
		return
	}
	if *exp == "list" {
		printExperiments(os.Stdout)
		return
	}
	if *topo == "list" {
		printTopologies(os.Stdout)
		return
	}
	if *wl == "list" {
		printWorkloads(os.Stdout)
		return
	}
	if *chaosPlans == "list" {
		printChaosPlans(os.Stdout)
		return
	}

	// -exp is selected and checked in one loop: fig8 runs fig7 (which records
	// both regions), "all" runs every experiment, and a name that selects
	// nothing is unknown.
	var selected []harness.Experiment
	for _, e := range harness.Experiments() {
		if *exp == "all" || *exp == e.Name || (*exp == "fig8" && e.Name == "fig7") {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fail("unknown experiment %q\nvalid experiments: %s",
			*exp, strings.Join(experimentNames(), ", "))
	}
	if *format != "text" && *format != "json" && *format != "csv" {
		fail("unknown format %q\nvalid formats: text, json, csv", *format)
	}

	o := harness.Options{Seed: *seed, Quick: *quick, Keys: *keys,
		Workers: *workers, Protocols: splitList(*protocols), Topologies: splitList(*topo),
		Workloads: splitList(*wl), Plans: splitList(*chaosPlans),
		Knobs: parseSets(sets), Ops: parseOps(ops)}
	if err := o.Validate(); err != nil {
		fail("%v", err)
	}

	// Profiling taps (-cpuprofile/-memprofile/-exectrace): every path is
	// opened up front so an unwritable location exits 2 before minutes of
	// sweeping, and the profiles cover the experiment runs end to end. See
	// README "Simulator performance" for the capture-and-inspect workflow.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *execTracePath != "" {
		f, err := os.Create(*execTracePath)
		if err != nil {
			fail("-exectrace: %v", err)
		}
		if err := rtrace.Start(f); err != nil {
			fail("-exectrace: %v", err)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}
	// Txn-lifecycle tracing (-trace): arm the harness's trace sink so every
	// run records per-txn phase spans; the collected summaries are exported
	// as Chrome trace-event JSON after the experiments finish. The output
	// path is opened up front (same unwritable-location rule as the
	// profiling taps).
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("-trace: %v", err)
		}
		traceFile = f
		harness.EnableTracing(trace.Config{Seed: *seed})
		defer func() {
			sums := harness.CollectTraces()
			if err := trace.WriteChrome(traceFile, sums); err != nil {
				fmt.Fprintf(os.Stderr, "tigabench: -trace: %v\n", err)
			}
			traceFile.Close()
			fmt.Fprintf(os.Stderr, "wrote %s (%d traced runs, Chrome trace-event JSON)\n", *tracePath, len(sums))
		}()
	}
	var memFile *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("-memprofile: %v", err)
		}
		memFile = f
		defer func() {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintf(os.Stderr, "tigabench: -memprofile: %v\n", err)
			}
			memFile.Close()
		}()
	}

	// The classic experiments deploy on one WAN — the first -topo entry;
	// only the scenario matrix sweeps the rest. Say so instead of silently
	// using the first (mirroring the -protocols exclusion note).
	if len(o.Topologies) > 1 && *exp != "all" && *exp != "scenarios" {
		fmt.Fprintf(os.Stderr,
			"tigabench: note: %s deploys on the first selected topology (%s); only -exp scenarios sweeps all of them\n",
			*exp, o.Topologies[0])
	}
	// -workload shapes only the scenario matrix; the classic experiments
	// run the paper's fixed workloads.
	if len(o.Workloads) > 0 && *exp != "all" && *exp != "scenarios" {
		fmt.Fprintf(os.Stderr,
			"tigabench: note: -workload only affects the scenario matrix (-exp scenarios); %s runs the paper's workloads\n", *exp)
	}
	// -chaos shapes only the chaos matrix; the Fig 11 figures run their
	// fixed plans.
	if len(o.Plans) > 0 && *exp != "all" && *exp != "chaos" {
		fmt.Fprintf(os.Stderr,
			"tigabench: note: -chaos only affects the chaos matrix (-exp chaos); %s runs its fixed fault plan\n", *exp)
	}

	// Progress lines go to stdout for the classic text stream and to stderr
	// when a machine-readable format would be corrupted by them.
	progress := io.Writer(os.Stdout)
	if *format != "text" || *outPath != "" {
		progress = os.Stderr
	}
	start := time.Now()

	// Selected experiments run concurrently on the harness's shared worker
	// pool (one experiment's tail points no longer idle the cores while the
	// next experiment waits). For the default text stream the head of the
	// presentation order renders to stdout as soon as it finishes while
	// later experiments buffer until promoted, so the output order never
	// changes and finished output survives a panic in a later experiment.
	type job struct {
		name    string
		w       jobWriter
		rep     *report.Report
		done    chan struct{}
		elapsed time.Duration
	}
	var jobs []*job
	for _, e := range selected {
		j := &job{name: e.Name, done: make(chan struct{})}
		jobs = append(jobs, j)
		run := e.Run
		go func() {
			defer close(j.done)
			t0 := time.Now()
			j.rep = run(o)
			if *format == "text" {
				report.Render(&j.w, j.rep)
			}
			j.elapsed = time.Since(t0)
		}()
	}
	var reports []*report.Report
	textDst := io.Writer(os.Stdout)
	var textBuf bytes.Buffer
	if *format == "text" && *outPath != "" {
		textDst = &textBuf
	}
	for _, j := range jobs {
		if *format == "text" {
			j.w.promote(textDst)
		}
		<-j.done
		reports = append(reports, j.rep)
		fmt.Fprintf(progress, "[%s done in %v]\n", j.name, j.elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(progress, "total: %v\n", time.Since(start).Round(time.Millisecond))

	var rendered bytes.Buffer
	switch *format {
	case "text":
		rendered = textBuf // empty unless -out buffered the stream
	case "json":
		doc := &report.Document{
			Generated:   report.Generated{Seed: *seed, Quick: *quick, CPUScale: harness.CPUScale},
			Experiments: reports,
		}
		if err := doc.Encode(&rendered); err != nil {
			fail("encoding JSON: %v", err)
		}
	case "csv":
		if err := report.RenderCSV(&rendered, reports...); err != nil {
			fail("encoding CSV: %v", err)
		}
	}
	switch {
	case *outPath != "":
		if err := os.WriteFile(*outPath, rendered.Bytes(), 0o644); err != nil {
			fail("writing %s: %v", *outPath, err)
		}
		fmt.Fprintf(progress, "wrote %s (%d bytes, %s)\n", *outPath, rendered.Len(), *format)
	case *format != "text":
		os.Stdout.Write(rendered.Bytes())
	}
}
