package janus

import (
	"fmt"
	"os"
	"slices"
	"testing"
	"time"
	"unsafe"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestMain arms pool.Check for every deployment the tests build: putting a
// reply back twice, or into a list it did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

func build(t *testing.T, seed int64, opts ...func(*Spec)) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	spec := Spec{
		Shards: 2, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0)),
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("j%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, FastPath: true,
	}
	for _, o := range opts {
		o(&spec)
	}
	sys := New(spec)
	sys.Start()
	return sim, sys
}

func hotTxn() *txn.Txn { return keyTxn(0) }

// keyTxn increments key i of both shards.
func keyTxn(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("j0-%d", i)).On(0),
		txn.IncrementPiece(fmt.Sprintf("j1-%d", i)).On(1),
	)}
}

// TestAbortFree: Janus never aborts — every submitted transaction commits,
// even a burst of fully conflicting ones (they serialize via dependencies).
func TestAbortFree(t *testing.T) {
	sim, sys := build(t, 1)
	const n = 20
	committed, fast := 0, 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i)*time.Millisecond, func() {
			sys.Submit(0, hotTxn(), func(r txn.Result) {
				if r.OK {
					committed++
					if r.FastPath {
						fast++
					}
				}
			})
		})
	}
	sim.Run(10 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d — Janus must be abort-free", committed, n)
	}
	// Conflicting concurrent transactions produce divergent dependency sets
	// at some replicas, so not everything can ride the fast path.
	if fast == n {
		t.Log("note: all conflicting txns took the fast path (arrival orders happened to agree)")
	}
	// All effects applied exactly once, in a consistent order.
	if got := txn.DecodeInt(sys.Store(0, 0).Get("j0-0")); got != n {
		t.Fatalf("j0-0 = %d, want %d", got, n)
	}
}

// TestTwoWRTTLatency: an uncontended commit costs pre-accept (1 WRTT) +
// commit/execute + result (≥0.5 WRTT), measured from the SC coordinator.
func TestTwoWRTTLatency(t *testing.T) {
	sim, sys := build(t, 2)
	var lat time.Duration
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		tx := &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("j0-1").On(0),
			txn.IncrementPiece("j1-1").On(1),
		)}
		sys.Submit(0, tx, func(r txn.Result) { lat = sim.Now() - s })
	})
	sim.Run(3 * time.Second)
	// Pre-accept to all replicas (farthest Brazil, 124 ms RTT) + commit
	// 0.5 + leader result 0.5 (leader co-located with the coordinator).
	if lat < 120*time.Millisecond || lat > 300*time.Millisecond {
		t.Fatalf("latency %v, want ~1.5–2 WRTTs", lat)
	}
}

// TestEmptyDepsFastPath is the fast-quorum sentinel regression: a
// dependency-free transaction (fresh keys, no prior conflicts) gathers a
// super quorum of identical EMPTY dependency lists, whose deps-key is "" —
// the same value the old code used as its "no fast quorum" sentinel. It must
// commit on the 2-WRTT fast path, not pay the accept round.
func TestEmptyDepsFastPath(t *testing.T) {
	sim, sys := build(t, 4)
	var res txn.Result
	var lat time.Duration
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		tx := &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("j0-7").On(0),
			txn.IncrementPiece("j1-7").On(1),
		)}
		sys.Submit(0, tx, func(r txn.Result) { res, lat = r, sim.Now()-s })
	})
	sim.Run(3 * time.Second)
	if !res.OK {
		t.Fatal("dependency-free transaction did not commit")
	}
	if !res.FastPath {
		t.Fatalf("dependency-free transaction missed the fast path (latency %v)", lat)
	}
	// Fast path: pre-accept (farthest replica Brazil, ~124 ms RTT) + commit
	// 0.5 + co-located leader result 0.5 ≈ 190 ms. The accept round would
	// add another full WRTT (~124 ms) on top.
	if lat > 250*time.Millisecond {
		t.Fatalf("fast-path latency %v looks like it paid the accept round", lat)
	}
}

// TestReplicasExecuteIdentically: every replica's store converges despite
// concurrent conflicts — the deterministic SCC order is replica-independent.
func TestReplicasExecuteIdentically(t *testing.T) {
	sim, sys := build(t, 3)
	const n = 15
	done := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*2)*time.Millisecond, func() {
			sys.Submit(0, hotTxn(), func(r txn.Result) {
				if r.OK {
					done++
				}
			})
		})
	}
	sim.Run(10 * time.Second)
	if done != n {
		t.Fatalf("committed %d of %d", done, n)
	}
	for sh := 0; sh < 2; sh++ {
		lead := sys.Store(sh, 0)
		for rep := 1; rep < 3; rep++ {
			if !lead.Equal(sys.Store(sh, rep)) {
				t.Fatalf("shard %d replica %d diverged", sh, rep)
			}
		}
	}
}

// TestMessagesComeHome submits conflicting transactions from two regions to a
// lossless deployment, with and without the fast path, and drains it: every
// reply was delivered, so every one is back on the list of the replica that
// sent it, and every finished transaction's record is back on its
// coordinator's list — nothing leaked, nothing was put back twice.
func TestMessagesComeHome(t *testing.T) {
	for _, fast := range []bool{true, false} {
		t.Run(fmt.Sprintf("fast-path=%v", fast), func(t *testing.T) {
			sim, sys := build(t, 5, func(s *Spec) {
				s.FastPath = fast
				s.CoordRegions = []simnet.Region{0, 2}
			})
			const n = 40
			committed := 0
			for i := 0; i < n; i++ {
				tx := keyTxn(i % 3) // replicas see overlapping ones in different orders
				sim.At(time.Duration(50+i)*time.Millisecond, func() {
					sys.Submit(i%2, tx, func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			for sim.Step() {
			}
			if committed != n {
				t.Fatalf("committed %d of %d", committed, n)
			}
			accepts := 0
			for s, reps := range sys.replicas {
				for r, rp := range reps {
					for _, l := range []struct {
						name        string
						news, idle  int
						wantTraffic bool
					}{
						{"pre-accept reply", rp.preacceptReps.News, rp.preacceptReps.Idle(), true},
						{"accept reply", rp.acceptReps.News, rp.acceptReps.Idle(), !fast},
						{"result", rp.results.News, rp.results.Idle(), r == 0},
					} {
						if l.news != l.idle {
							t.Errorf("replica %d/%d %s list: %d allocated, %d back", s, r, l.name, l.news, l.idle)
						}
						if l.wantTraffic && l.news == 0 {
							t.Errorf("replica %d/%d allocated no %s", s, r, l.name)
						}
					}
					if r != 0 && rp.results.News != 0 {
						t.Errorf("follower %d/%d allocated %d results", s, r, rp.results.News)
					}
					accepts += rp.acceptReps.News
				}
			}
			if fast && accepts == 0 {
				t.Error("no transaction paid the accept round: the conflicts did not diverge")
			}
			for c, co := range sys.coords {
				if co.tab.News() != co.tab.Idle() || co.tab.InFlight() != 0 {
					t.Errorf("coordinator %d: %d records allocated, %d back, %d in flight", c, co.tab.News(), co.tab.Idle(), co.tab.InFlight())
				}
			}
		})
	}
}

// TestSteadyCommitAllocatesPerTransaction: once the freelists are warm, a
// two-shard transaction on three replicas a shard, whose pieces each depend on
// the previous writer of their key, allocates per transaction and not per
// replica or per vote: the union of the votes (1) and each replica's
// dependency list, kept by its record and its vote (6). The multicast
// pre-accept and commit payloads and the result list handed to the caller are
// carved from the coordinator's arenas, and the maps that index records, keys
// and executed transactions grow, both amortised.
func TestSteadyCommitAllocatesPerTransaction(t *testing.T) {
	pool.Check = false // its id maps allocate
	defer func() { pool.Check = true }()
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{{0}}, 0)})
	sys := New(Spec{
		Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, _ int) simnet.Region { return 0 },
		CoordRegions: []simnet.Region{0},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("j%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		FastPath: true,
	})
	txns := make([]*txn.Txn, 1200)
	for i := range txns {
		txns[i] = keyTxn(i % 8)
	}
	next, committed, fast := 0, 0, 0
	done := func(r txn.Result) {
		committed++
		if r.FastPath {
			fast++
		}
	}
	step := func() {
		sys.Submit(0, txns[next], done)
		next++
		for sim.Step() {
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if committed != next || fast != next {
		t.Fatalf("%d submitted, %d committed, %d on the fast path", next, committed, fast)
	}
	t.Logf("%.2f allocations per transaction", allocs)
	if allocs > 7.5 {
		t.Fatalf("%.2f allocations per transaction, want 7 and the amortised growth", allocs)
	}
}

// TestStrandedCycleExecutes pins a known fault (EXPERIMENTS.md "Known
// deviations"): a conflict cycle is resolved only from onCommit, and only
// when every dependency its closure reaches is committed. T1 waits on T2, T2
// on T1 and on T4. When T2 commits, T4 has not, so the cycle is left alone;
// when T4 commits and executes, the wake loop only lowers T2's count to 1 —
// nothing ever runs the cycle check again, and T1 and T2 stay committed and
// unexecuted for good. Fixing it (re-resolving on wake) charges GraphCost and
// reorders executions mid-cascade, so Janus goldens move: its own change.
func TestStrandedCycleExecutes(t *testing.T) {
	t.Skip("known fault: a conflict cycle whose last outside dependency executes after the cycle committed never runs")
	sim, sys := build(t, 6)
	rp := sys.replicas[0][1]
	co := sys.coords[0]
	var ts [5]*txn.Txn
	for _, i := range []int{1, 2, 4} {
		ts[i] = &txn.Txn{ID: txn.ID{Coord: 1, Seq: uint64(i)}, Pieces: txn.ByShard(
			txn.IncrementPiece(fmt.Sprintf("j0-%d", i)).On(0))}
		rp.onPreaccept(preaccept{T: ts[i], Coord: co.node.ID()})
	}
	commit := func(i int, deps ...int) {
		m := commitMsg{ID: ts[i].ID, T: ts[i], Coord: co.node.ID()}
		for _, d := range deps {
			m.Deps = append(m.Deps, tid(ts[d].ID))
		}
		rp.onCommit(m)
	}
	commit(1, 2)
	commit(2, 1, 4)
	commit(4)
	for sim.Step() {
	}
	for _, i := range []int{1, 2, 4} {
		if jt := rp.txns[tid(ts[i].ID)]; !jt.committed || !jt.executed {
			t.Errorf("T%d: committed %v, executed %v, waiting on %d", i, jt.committed, jt.executed, jt.pending)
		}
	}
}

// TestPreacceptDepsAreSortedAndDistinct: a replica's dependencies are the
// last transaction seen on each key the piece reads or writes, each once and
// in ascending order however the keys met them, and the graph work charged is
// one unit for the transaction and one per dependency.
func TestPreacceptDepsAreSortedAndDistinct(t *testing.T) {
	_, sys := build(t, 7)
	rp := sys.replicas[0][1]
	co := sys.coords[0]
	pre := func(seq uint64, p txn.Piece) uint64 {
		tx := &txn.Txn{ID: txn.ID{Coord: 1, Seq: seq}, Pieces: txn.ByShard(p.On(0))}
		rp.onPreaccept(preaccept{T: tx, Coord: co.node.ID()})
		return tid(tx.ID)
	}
	t7 := pre(7, txn.Piece{WriteSet: []string{"j0-0"}})
	t3 := pre(3, txn.Piece{WriteSet: []string{"j0-1", "j0-2"}})
	busy := rp.node.Busy()
	t9 := pre(9, txn.Piece{ReadSet: []string{"j0-0"}, WriteSet: []string{"j0-1", "j0-2"}})
	if got, want := rp.txns[t9].deps, []uint64{t3, t7}; !slices.Equal(got, want) {
		t.Fatalf("deps %v, want %v", got, want)
	}
	if got, want := rp.node.Busy()-busy, 3*sys.spec.GraphCost; got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	if got := rp.txns[t7].deps; got != nil {
		t.Fatalf("the first writer's deps %v, want none", got)
	}
}

// TestRecordSize pins a record at 48 bytes: records come from a slab and are
// never freed, so every byte is kept per transaction per replica for the
// whole run. At 56 bytes a run's slab chunks kept more live heap than one
// allocation per record in the 64-byte size class does.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(jtxn{}); got != 48 {
		t.Fatalf("jtxn is %d bytes, want 48", got)
	}
}
