package janus

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

func build(t *testing.T, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("j%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	return sim, sys
}

func hotTxn() *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece("j0-0").On(0),
		txn.IncrementPiece("j1-0").On(1),
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
