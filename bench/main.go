// Command bench is the repository's benchmark: four workloads, the same nine
// end-to-end metrics on each (simulated throughput, latency and commit rate;
// host time, allocations and memory per transaction; set-up time), and about
// a hundred per-layer rows, every one taken from outside by calling the
// repository's public functions and timing them. See README.md.
//
//	bash bench/run.sh                              every workload, every metric, the verify pass
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                               one workload; last stdout line is one JSON object
//	bash bench/run.sh -compare a.json b.json       apply BENCHMARK.json's bounds to two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// config is everything a run is parameterised by. seed is the only input to
// the simulated side; the rest sizes the measurement.
type config struct {
	seed      int64
	scale     float64       // multiplies simulated durations and keyspaces
	seconds   float64       // host seconds of timed repetitions per workload
	microTime time.Duration // testing.Benchmark's benchtime for each micro row
	verify    bool
	spans     *spanLog
}

// minReps is the least number of same-seed repetitions of a workload: enough
// for a median and for the determinism check.
const minReps = 3

// microTime is how long testing.Benchmark measures each micro row.
const microTime = 150 * time.Millisecond

// extraSetups is how many times a workload's deployments are built without
// being run, on top of the builds the repetitions do.
const extraSetups = 4

// workloadResult is one workload's part of a results file (-out).
type workloadResult struct {
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Reps      int               `json:"reps,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
}

// results is the file -out writes and -compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Scale     float64                    `json:"scale"`
	NumCPU    int                        `json:"nproc"`
	GoVersion string                     `json:"go"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	testing.Init() // registers test.benchtime, which the micro rows set
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON object as the last line (default: all workloads, both metric sets, human-readable)")
		seed     = flag.Int64("seed", 42, "the only input: the seed of the generated load (the deployment is seeded by a constant)")
		seconds  = flag.Float64("seconds", 16, "host seconds of timed same-seed repetitions per workload (at least three repetitions run regardless)")
		traced   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics (probe, traced and verify passes)")
		scale    = flag.Float64("scale", 1, "multiplies simulated durations and keyspaces (the test uses 0.02)")
		verify   = flag.Bool("verify", true, "run the verify pass (checkers, chaos) with the per-layer metrics")
		out      = flag.String("out", "", "write the results as JSON to this file (input to -compare)")
		traceOut = flag.String("trace-out", "", "write the benchmark's spans (name, start, end, parent: every repetition's Build and RunLoad, the Step drain, each micro row) as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	cfg := config{seed: *seed, scale: *scale, seconds: *seconds, microTime: microTime, verify: *verify}
	if *traceOut != "" {
		cfg.spans = newSpanLog()
	}
	var code int
	if *workload != "" {
		code = runDriver(*workload, *traced == 1, cfg)
	} else {
		code = runAll(cfg, *out)
	}
	if err := cfg.spans.write(*traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	os.Exit(code)
}

// runDriver is the one-workload form the benchmark driver calls: it prints
// the metrics as a table and then, as the last line of standard output, one
// JSON object with exactly the keys correct, attempted, failed and metrics.
func runDriver(name string, layers bool, cfg config) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var res *workloadResult
	var set map[string]metric
	var decls []decl
	if layers {
		res = measureLayers(w, cfg)
		set, decls = res.PerLayer, perLayer
	} else {
		res = measureEndToEnd(w, cfg)
		set, decls = res.EndToEnd, endToEnd
	}
	printTable(w.name, decls, set)
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", p)
	}
	b, err := driverLine(res, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if len(res.Problems) > 0 {
		return 1
	}
	return 0
}

// driverLine renders the one JSON object the driver reads: exactly the keys
// correct, attempted, failed and metrics, each metric exactly value and unit.
func driverLine(res *workloadResult, set map[string]metric) ([]byte, error) {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{Correct: len(res.Problems) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverMetric, len(set))}
	for k, m := range set {
		line.Metrics[k] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(line)
}

// runAll is the one command that prints every metric by name with its unit:
// each workload's end-to-end metrics from the timed repetitions, then its
// per-layer rows, then the verify pass. It exits non-zero on any failure.
func runAll(cfg config, out string) int {
	all := results{Seed: cfg.seed, Scale: cfg.scale, NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Workloads: map[string]*workloadResult{}}
	fmt.Printf("bench: seed=%d scale=%g nproc=%d GOMAXPROCS=%d %s\n",
		cfg.seed, cfg.scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	failures := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		res := measureEndToEnd(w, cfg)
		printTable("end to end", endToEnd, res.EndToEnd)
		lay := measureLayers(w, cfg)
		printTable("per layer", perLayer, lay.PerLayer)
		res.PerLayer = lay.PerLayer
		res.Problems = append(res.Problems, lay.Problems...)
		for _, p := range res.Problems {
			fmt.Printf("FAIL %s: %s\n", w.name, p)
		}
		failures += len(res.Problems)
		all.Workloads[w.name] = res
	}
	fmt.Printf("\nbench: %d workloads, %d failures\n", len(workloads), failures)
	if out != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write results:", err)
			return 1
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// measureEndToEnd runs the workload's timed repetitions — tracing and
// checking off, same seed every time — until cfg.seconds of host time have
// been measured (and at least minReps), then checks that every repetition
// produced the same simulated outcome and, on a short checked run of the
// same workload, that the committed history is correct.
func measureEndToEnd(w *workloadDef, cfg config) *workloadResult {
	res := &workloadResult{}
	var reps []repResult
	var measured time.Duration
	for len(reps) < minReps || measured.Seconds() < cfg.seconds {
		rep := runRep(w.points(cfg.seed, cfg.scale), pass{}, cfg.spans, "timed "+w.name, nil)
		measured += time.Duration(rep.runNs())
		reps = append(reps, rep)
	}
	for i := 1; i < len(reps); i++ {
		if a, b := reps[0].fingerprint(), reps[i].fingerprint(); a != b {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"repetition %d's simulated outcome differs from repetition 0's at the same seed:\n%s---\n%s", i, a, b))
		}
	}
	last := reps[len(reps)-1]
	for i := range last.points {
		p := &last.points[i]
		if p.samples <= 1000 && cfg.scale >= 1 {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"%s: %d latency samples in the window, p99 needs more than 1000", p.proto, p.samples))
		}
	}
	res.Reps = len(reps)
	for _, r := range reps {
		res.Attempted += int64(r.submitted())
		res.Failed += int64(r.sum(func(p *pointResult) float64 { return float64(p.counters.Aborted) }))
	}
	// Set-up is short next to a repetition, so it is measured a few more
	// times on its own; setup_s is the median of all of them.
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		setups = append(setups, setupOnly(w.points(cfg.seed, cfg.scale)))
	}
	res.EndToEnd = endToEndOf(reps, setups).vals
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no transaction was submitted in the window")
	}
	// A quarter-length checked run keeps every end-to-end run honest without
	// doubling its cost; the full-length verify pass rides with -trace 1.
	short := cfg
	short.scale = cfg.scale / 4
	res.Problems = append(res.Problems, checkWorkload(w, short, nil).problems...)
	return res
}

// printTable prints one metric per line, in declaration order: name, value,
// unit, and the repetitions' spread where there is one.
func printTable(title string, decls []decl, set map[string]metric) {
	fmt.Printf("-- %s\n", title)
	for _, d := range decls {
		m, ok := set[d.name]
		if !ok {
			continue
		}
		if m.Spread > 0 {
			fmt.Printf("%-36s %16.4f %-6s (spread %.2f%%)\n", d.name, m.Value, m.Unit, 100*m.Spread)
		} else {
			fmt.Printf("%-36s %16.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}
