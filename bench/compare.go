package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and the share of the baseline by which it
// may worsen before that is a regression.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict classifies one (workload, end-to-end metric) pair of a baseline a
// and a candidate b. A pair whose repetitions spread wider than the bound on
// either side cannot be told apart from noise: unresolved, not unchanged.
func verdict(m manifestMetric, a, b metric) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	change := (b.Value - a.Value) / a.Value // > 0: b is larger
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return "unresolved", change
	case worse > m.Bound:
		return "worse", change
	case worse < -m.Bound:
		return "improved", change
	}
	return "unchanged", change
}

// runCompare prints one row per (workload, end-to-end metric) of two -out
// files and returns the exit code: 1 when any row is worse, 2 on bad input.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two results files: baseline.json candidate.json")
		return 2
	}
	var man manifest
	var a, b results
	for _, in := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &man}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	counts := map[string]int{}
	fmt.Printf("%-16s %-20s %16s %16s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, w := range man.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s is missing from a results file\n", w.Name)
			return 2
		}
		for _, m := range man.EndToEnd {
			ma, oka := wa.EndToEnd[m.Name]
			mb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				fmt.Fprintf(os.Stderr, "bench: %s/%s is missing from a results file\n", w.Name, m.Name)
				return 2
			}
			v, change := verdict(m, ma, mb)
			counts[v]++
			fmt.Printf("%-16s %-20s %16.4f %16.4f %+8.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, v)
		}
	}
	fmt.Printf("improved %d, unchanged %d, worse %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}
