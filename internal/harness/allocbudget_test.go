//go:build !race

// The race detector instruments the allocator, so the counts below hold only
// without it: this file is left out of -race builds.

package harness

import (
	"runtime"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/pool"
)

// txnPathBudget is the allocation budget of the transaction path: one small
// deployment per row, driven for one short window, with everything the serving
// path allocates (generator, coordinator, servers, replication, metrics)
// divided by the commits. closed and open are the closed loop and the
// open-loop Poisson path at 2 000 keys per shard for 1 s; closed-100k runs
// 100 000 keys per shard for 2 s, so every shard's log crosses a
// checkpoint-every = 2000 boundary inside the run and a per-checkpoint cost
// that scales with the keyspace shows in its bytes; closed-tpcc puts TPC-C's
// multi-key pieces, inserted rows and interactive chains on six shards;
// open-reads is the shape of the benchmark's tiga-reads-open at test scale —
// YCSB-T (skew 0.7, 95 % reads per key) arriving open-loop, read-only
// transactions served by the local snapshot-read path 200 ms stale, behind
// TestOpenLoopLocalReadsPinned's admission gate — the only row in which a
// read-only transaction never reaches a leader. Spec, seeds and load are those
// EXPERIMENTS.md has tabulated since PR 9.
// These five rows run Tiga. closed-2pl, closed-occ and closed-ncc+ are the
// closed row on three of the layered baselines, whose replication is
// internal/paxos (the first two also share lockocc's lock table), and
// closed-janus on Janus, whose replies and coordinator records are pooled, all
// at 150 transactions a second per coordinator: below their saturation at this
// shape, so every tick submits and nothing aborts.
//
// allocs and bytes are per committed transaction, recorded with go1.24 (the
// toolchain CI pins: the map implementation moves the counts) at the commit
// that last changed them, as this test measures them: pool.Check's id maps are
// in, +0.1 allocation and +1–2 % bytes over what cmd/allocprof prints for the
// same shape. They repeat to ±0.1 allocation and ±0.1 % bytes. A rise beyond
// BENCHMARK.json's bounds for host_allocs_per_txn / host_bytes_per_txn fails;
// so does a fall of more than 10 %, until the recorded value is lowered — the
// next rise is then measured from where the code is, not from where it was.
var txnPathBudget = []struct {
	name, protocol, arrival, workload string
	shards, keys                      int
	rate                              float64
	window                            time.Duration
	localReads                        bool
	allocs, bytes                     float64
}{
	{"closed", "Tiga", "", "micro", 3, 2000, 500, time.Second, false, 11.7, 11699},
	{"open", "Tiga", "poisson", "micro", 3, 2000, 500, time.Second, false, 11.8, 11889},
	{"closed-100k", "Tiga", "", "micro", 3, 100_000, 500, 2 * time.Second, false, 8.0, 9141},
	{"closed-tpcc", "Tiga", "", "tpcc", 6, 2000, 500, time.Second, false, 43.1, 23292},
	{"open-reads", "Tiga", "poisson", "ycsbt", 6, 2000, 500, time.Second, true, 10.4, 6399},
	{"closed-2pl", "2PL+Paxos", "", "micro", 3, 2000, 150, time.Second, false, 40.3, 7180},
	{"closed-occ", "OCC+Paxos", "", "micro", 3, 2000, 150, time.Second, false, 53.2, 7650},
	{"closed-ncc+", "NCC+", "", "micro", 3, 2000, 150, time.Second, false, 35.6, 4902},
	{"closed-janus", "Janus", "", "micro", 3, 2000, 150, time.Second, false, 32.5, 5604},
}

const (
	allocsBound = 0.05 // BENCHMARK.json, host_allocs_per_txn
	bytesBound  = 0.08 // BENCHMARK.json, host_bytes_per_txn
	staleBelow  = 0.10
)

// TestTxnPathAllocBudget measures each row and holds it to its recorded
// values. No row traces, so the first also pins the cost of tracing while it is
// off: every hook is a nil test or a stamp written into a pooled message, and
// one boxed mark or span per transaction would be an allocation over the bound.
// pool.Check is armed so a recycle bug fails as itself, not as an allocation
// anomaly.
func TestTxnPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full load windows; skipped under -short")
	}
	pool.Check = true
	defer func() { pool.Check = false }()

	for _, c := range txnPathBudget {
		t.Run(c.name, func(t *testing.T) {
			spec := ClusterSpec{
				Protocol: c.protocol, Workload: c.workload, WorkloadKeys: c.keys,
				Shards: c.shards, F: 1, Clock: clocks.ModelChrony,
				CoordsPerRegion: 1, CoordsRemote: 1, Seed: 42,
				CostScale: CPUScale,
			}
			// As in the benchmark's sweep-nine: OCC+Paxos retries a refused
			// validation until it commits, so its row aborts nothing.
			spec.SetKnob("OCC+Paxos", "max-retries", 100)
			if c.localReads {
				spec.WorkloadParams = map[string]any{"skew": 0.7, "read-ratio": 0.95}
				spec.SetKnob("Tiga", "local-reads", true)
				spec.SetKnob("Tiga", "read-staleness", 200*time.Millisecond)
				spec.SetKnob("Tiga", "admit-cap", 12)
				spec.SetKnob("Tiga", "admit-queue", 12)
			}
			if err := spec.EnsureGen(); err != nil {
				t.Fatal(err)
			}
			d := Build(spec)
			load := LoadSpec{
				RatePerCoord: c.rate, Outstanding: 100, Arrival: c.arrival,
				Warmup: 200 * time.Millisecond, Duration: c.window, Seed: 43, LocalReads: c.localReads,
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := RunLoad(d, spec.Gen, load)
			runtime.ReadMemStats(&m1)
			if res.Trace != nil {
				t.Fatal("untraced run carries a trace summary")
			}
			committed := float64(res.Run.Counters.Committed)
			if committed == 0 {
				t.Fatal("no commits in the measurement run")
			}
			if local := res.Run.Counters.LocalReads; c.localReads != (local > 0) {
				t.Fatalf("%d transactions took the local read path", local)
			}
			if n := res.Run.Counters; n.Aborted != n.Shed {
				t.Fatalf("%d of %d transactions aborted: the row runs past its protocol's saturation", n.Aborted-n.Shed, n.Submitted)
			}
			allocs := float64(m1.Mallocs-m0.Mallocs) / committed
			bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / committed
			t.Logf("%.1f allocs, %.0f bytes per committed txn (%.0f commits)", allocs, bytes, committed)
			holdTo(t, "allocs/txn", allocs, c.allocs, allocsBound)
			holdTo(t, "bytes/txn", bytes, c.bytes, bytesBound)
		})
	}
}

// holdTo fails the row t runs when got left the band around the recorded value,
// and says which side has to move.
func holdTo(t *testing.T, what string, got, recorded, bound float64) {
	t.Helper()
	pct := (got/recorded - 1) * 100
	switch {
	case got > recorded*(1+bound):
		t.Errorf("%s: %s measured %.1f, recorded %.1f (%+.1f %%, bound +%.0f %%): the transaction path allocates more — "+
			"find it with cmd/allocprof and remove it, or, if the cost is meant, raise the recorded value in txnPathBudget",
			t.Name(), what, got, recorded, pct, bound*100)
	case got < recorded*(1-staleBelow):
		t.Errorf("%s: %s measured %.1f, recorded %.1f (%+.1f %%, stale below -%.0f %%): the budget is stale — "+
			"lower the recorded value in txnPathBudget to the measured one",
			t.Name(), what, got, recorded, pct, staleBelow*100)
	}
}
