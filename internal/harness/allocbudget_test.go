//go:build !race

// The race detector instruments the allocator, so the counts below hold only
// without it: this file is left out of -race builds.

package harness

import (
	"runtime"
	"strings"
	"testing"

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
// Each row is a budget/ shape of the registry (shapes.go).
// These five rows run Tiga. closed-2pl, closed-occ and closed-ncc+ are the
// closed row on three of the layered baselines, whose replication is
// internal/paxos (the first two also share lockocc's lock table), closed-ncc
// on NCC without replication, closed-janus and closed-tapir on Janus and
// Tapir, closed-detock on Detock and closed-calvin on Calvin+; every one of
// them pools its replies and coordinator records and carves its multicast
// payloads. All run at 150 transactions a second per coordinator:
// below their saturation at this shape, so every tick submits and nothing
// aborts. The lockocc rows' bytes include what the 600 commits of a row leave
// unused of each leader's last commit-record slab chunk (64 KB) and
// write-arena chunk (12 KB).
//
// allocs and bytes are per committed transaction, recorded with go1.24 (the
// toolchain CI pins: the map implementation moves the counts) at the commit
// that last changed them, as this test measures them: pool.Check's id maps are
// in: on budget/closed that is 3.4 allocations and 10 130 bytes against the
// 3.3 and 9 915 that cmd/allocprof -shape budget/closed prints (+215 bytes or
// +2.2 %). They repeat to ±0.1 allocation and ±0.1 % bytes (the lockocc rows'
// bytes to ±0.7 %). A rise beyond BENCHMARK.json's bounds for
// host_allocs_per_txn / host_bytes_per_txn fails; so does a fall of more than
// 10 %, until the recorded value is lowered — the next rise is then measured
// from where the code is, not from where it was.
var txnPathBudget = []struct {
	shape         string
	allocs, bytes float64
}{
	{"budget/closed", 3.4, 10109},
	{"budget/open", 3.3, 9394},
	{"budget/closed-100k", 2.3, 7575},
	{"budget/closed-tpcc", 5.1, 22833},
	{"budget/open-reads", 3.5, 6268},
	{"budget/closed-2pl", 9.4, 5375},
	{"budget/closed-occ", 8.9, 5370},
	{"budget/closed-ncc", 2.4, 2420},
	{"budget/closed-ncc+", 3.6, 3880},
	{"budget/closed-janus", 5.9, 4384},
	{"budget/closed-tapir", 5.3, 3700},
	{"budget/closed-detock", 10.1, 2384},
	{"budget/closed-calvin", 2.3, 1229},
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
		t.Run(strings.TrimPrefix(c.shape, "budget/"), func(t *testing.T) {
			spec, load, err := LookupShape(c.shape)
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.EnsureGen(); err != nil {
				t.Fatal(err)
			}
			d := Build(spec)
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
			if local := res.Run.Counters.LocalReads; load.LocalReads != (local > 0) {
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
			"find it with cmd/allocprof -shape budget/<row> and remove it, or, if the cost is meant, raise the recorded value in txnPathBudget",
			t.Name(), what, got, recorded, pct, bound*100)
	case got < recorded*(1-staleBelow):
		t.Errorf("%s: %s measured %.1f, recorded %.1f (%+.1f %%, stale below -%.0f %%): the budget is stale — "+
			"lower the recorded value in txnPathBudget to the measured one",
			t.Name(), what, got, recorded, pct, staleBelow*100)
	}
}
