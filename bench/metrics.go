package main

import (
	"fmt"
	"math"
	"regexp"
)

// decl declares one metric the benchmark prints: its name and unit. The
// direction and (for end-to-end metrics) the regression bound live in
// BENCHMARK.json; bench_test.go pins that the two lists agree.
type decl struct{ name, unit string }

// endToEnd is what a user of the simulator sees, the same names on every
// workload. The sim_ metrics are in simulated time (CPUScale testbed units),
// the host_ metrics and setup_s in this machine's time and memory.
var endToEnd = []decl{
	{"sim_thpt_tps", "1/s"},
	{"sim_lat_p50_ms", "ms"},
	{"sim_lat_p99_ms", "ms"},
	{"sim_commit_pct", "%"},
	{"host_us_per_txn", "us"},
	{"host_allocs_per_txn", "count"},
	{"host_bytes_per_txn", "B"},
	{"host_live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer rows, grouped by module. See README.md for
// where each one is measured and which end-to-end metric it should move.
var perLayer = func() []decl {
	out := []decl{
		{"simnet.events_per_txn", "count"},
		{"simnet.ns_per_event", "ns"},
		{"simnet.msgs_per_txn", "count"},
		{"simnet.send_ns", "ns"},
		{"simnet.queue_ns", "ns"},
		{"simnet.timer_ns", "ns"},
		{"simnet.core_share_pct", "%"},

		{"store.exec_commit_ns", "ns"},
		{"store.exec_commit_allocs", "count"},
		{"store.exec_commit_str_ns", "ns"},
		{"store.getat_ns", "ns"},
		{"store.prune_ns_per_version", "ns"},
		{"store.seed_ns_per_key", "ns"},
		{"store.bytes_per_key", "B"},
		{"store.versions_per_key", "count"},

		{"workload.micro_next_ns", "ns"},
		{"workload.micro_next_allocs", "count"},
		{"workload.tpcc_next_ns", "ns"},
		{"workload.tpcc_next_allocs", "count"},
		{"workload.ycsbt_next_ns", "ns"},
		{"workload.poisson_gap_ns", "ns"},
		{"tpcc.restarts_per_ktxn", "count"},

		{"tiga.fastpath_pct", "%"},
		{"tiga.rollbacks_per_ktxn", "count"},
		{"tiga.retries_per_ktxn", "count"},
		{"tiga.handler_ns_per_event", "ns"},
		{"tiga.phase_wrtt_ms", "ms"},
		{"tiga.phase_queue_ms", "ms"},
		{"tiga.phase_headroom_ms", "ms"},
		{"tiga.phase_lockval_ms", "ms"},
		{"tiga.phase_repl_ms", "ms"},
		{"tiga.phase_other_ms", "ms"},
		{"tiga.safetime_lag_ms", "ms"},
		{"hashlog.entry_ns", "ns"},
		{"clocks.read_ns", "ns"},
		{"clocks.whenreads_ns", "ns"},

		{"harness.closed_ns_per_txn", "ns"},
		{"harness.closed_allocs_per_txn", "count"},
		{"harness.open_ns_per_txn", "ns"},
		{"harness.open_allocs_per_txn", "count"},
		{"harness.build_ns_per_key", "ns"},
		{"harness.tick_skip_pct", "%"},

		{"admit.shed_pct", "%"},
		{"admit.queue_p99_ms", "ms"},
		{"snapread.local_pct", "%"},
		{"snapread.read_lat_p50_ms", "ms"},
		{"snapread.read_lat_p99_ms", "ms"},
		{"snapread.wait_p50_ms", "ms"},
	}
	for _, p := range []string{"2pl-paxos", "occ-paxos", "tapir", "janus", "calvin-plus",
		"ncc", "ncc-plus", "detock", "tiga"} {
		out = append(out,
			decl{"proto." + p + ".host_us_per_txn", "us"},
			decl{"proto." + p + ".bytes_per_txn", "B"},
			decl{"proto." + p + ".msgs_per_txn", "count"},
			decl{"proto." + p + ".sim_thpt_tps", "1/s"},
			decl{"proto." + p + ".sim_lat_p50_ms", "ms"},
		)
	}
	return append(out,
		decl{"locks.acquire_release_ns", "ns"},
		decl{"locks.acquire_release_allocs", "count"},
		decl{"paxos.commit_ns", "ns"},
		decl{"paxos.msgs_per_commit", "count"},
		decl{"graph.scc_ns_per_node", "ns"},
		decl{"graph.scc_allocs_per_node", "count"},

		decl{"trace.overhead_pct", "%"},
		decl{"trace.allocs_per_txn_delta", "count"},
		decl{"checker.strictser_ns_per_commit", "ns"},
		decl{"checker.snapread_ns_per_obs", "ns"},
		decl{"metrics.record_ns", "ns"},
		decl{"metrics.percentile_ns_per_sample", "ns"},
		decl{"report.text_ns_per_row", "ns"},
		decl{"report.json_ns_per_row", "ns"},
		decl{"chaos.outage_ms", "ms"},
		decl{"chaos.post_commit_pct", "%"},
	)
}()

// metric is one reported number. Spread is set on host metrics measured over
// several repetitions: their interquartile distance over their median.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet collects values for a declared list of metrics and refuses
// anything the declaration does not allow: an undeclared name, a name set
// twice, a value that is not finite.
type metricSet struct {
	decls []decl
	unit  map[string]string
	vals  map[string]metric
}

func newMetricSet(decls []decl) *metricSet {
	s := &metricSet{decls: decls, unit: make(map[string]string, len(decls)),
		vals: make(map[string]metric, len(decls))}
	for _, d := range decls {
		if !nameRE.MatchString(d.name) {
			panic("bench: malformed metric name " + d.name)
		}
		s.unit[d.name] = d.unit
	}
	return s
}

func (s *metricSet) set(name string, v float64) { s.setSpread(name, v, 0) }

func (s *metricSet) setSpread(name string, v, spread float64) {
	unit, ok := s.unit[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if _, dup := s.vals[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite (%v)", name, v))
	}
	s.vals[name] = metric{Value: v, Unit: unit, Spread: spread}
}

// fillZero sets every still-missing metric to 0: the workload does not
// exercise that layer (no local reads, no admission gate, a protocol the
// workload does not run).
func (s *metricSet) fillZero() {
	for _, d := range s.decls {
		if _, ok := s.vals[d.name]; !ok {
			s.set(d.name, 0)
		}
	}
}
