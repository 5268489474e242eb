package calvin

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

func build(t *testing.T, seed int64, epoch time.Duration) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 2, Regions: 3, Net: net,
		CoordRegions: []simnet.Region{0, 1, simnet.RegionHongKong},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("c%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, Epoch: epoch,
	})
	sys.Start()
	return sim, sys
}

func tx(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("c0-%d", i%8)).On(0),
		txn.IncrementPiece(fmt.Sprintf("c1-%d", i%8)).On(1),
	)}
}

// TestDeterministicExecution: all regions' replicas converge on the same
// state — the merged epoch order is deterministic.
func TestDeterministicExecution(t *testing.T) {
	sim, sys := build(t, 1, 10*time.Millisecond)
	const n = 30
	committed := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*7)*time.Millisecond, func() {
			sys.Submit(i%3, tx(i), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(5 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	for sh := 0; sh < 2; sh++ {
		base := sys.Store(0, sh)
		for reg := 1; reg < 3; reg++ {
			if !base.Equal(sys.Store(reg, sh)) {
				t.Fatalf("region %d shard %d diverged from region 0", reg, sh)
			}
		}
	}
}

// TestEpochBarrierLatency: commit latency includes the epoch wait plus the
// cross-region batch propagation (the merge barrier needs every region's
// batch), so a larger epoch visibly raises latency.
func TestEpochBarrierLatency(t *testing.T) {
	lat := func(epoch time.Duration) time.Duration {
		sim, sys := build(t, 2, epoch)
		var l time.Duration
		sim.At(100*time.Millisecond, func() {
			s := sim.Now()
			sys.Submit(0, tx(0), func(r txn.Result) { l = sim.Now() - s })
		})
		sim.Run(3 * time.Second)
		return l
	}
	small, big := lat(5*time.Millisecond), lat(80*time.Millisecond)
	if small == 0 || big == 0 {
		t.Fatal("no commits")
	}
	if big < small+30*time.Millisecond {
		t.Fatalf("epoch 80ms latency (%v) should exceed epoch 5ms (%v)", big, small)
	}
	// The barrier requires the slowest inbound region batch: for a region-0
	// executor that is max(FI→SC, BR→SC) ≈ 62 ms one-way.
	if small < 60*time.Millisecond {
		t.Fatalf("latency %v below the cross-region barrier bound", small)
	}
}

// TestAbortFree: deterministic ordering never aborts, even under total
// conflict.
func TestAbortFree(t *testing.T) {
	sim, sys := build(t, 3, 10*time.Millisecond)
	hot := func() *txn.Txn {
		return &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("c0-0").On(0),
			txn.IncrementPiece("c1-0").On(1),
		)}
	}
	const n = 25
	committed := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i)*time.Millisecond, func() {
			sys.Submit(i%3, hot(), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(5 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	if got := txn.DecodeInt(sys.Store(0, 0).Get("c0-0")); got != n {
		t.Fatalf("c0-0 = %d, want %d", got, n)
	}
}

// buildLossy deploys Calvin+ on the geo4-degraded WAN (5 ms jitter, 1%
// message loss — the registered topology's defaults) with the given
// retransmission timeout.
func buildLossy(t *testing.T, seed int64, resend time.Duration) (*simnet.Sim, *System) {
	t.Helper()
	topo, ok := simnet.LookupTopology("geo4-degraded")
	if !ok {
		t.Fatal("geo4-degraded topology not registered")
	}
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, topo.Config(0, 0))
	sys := New(Spec{
		Shards: 2, Regions: 3, Net: net,
		CoordRegions: []simnet.Region{0, 1, simnet.RegionHongKong},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("c%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, Epoch: 10 * time.Millisecond,
		Resend: resend,
	})
	sys.Start()
	return sim, sys
}

// TestResendSurvivesLoss is the geo4-degraded regression for the sequencer
// retransmission knob. Without it, the first dropped epochBatch jams the
// merge barrier: every executor behind the gap stalls forever and commits
// stop. With a resend timeout armed, stuck executors re-request the missing
// region batches and the run commits essentially everything — and the
// deterministic replicas still converge (retransmitted duplicates are
// suppressed, never re-executed).
func TestResendSurvivesLoss(t *testing.T) {
	const n = 150
	drive := func(resend time.Duration) (int, *System) {
		sim, sys := buildLossy(t, 7, resend)
		committed := 0
		for i := 0; i < n; i++ {
			i := i
			sim.At(time.Duration(50+i*20)*time.Millisecond, func() {
				sys.Submit(i%3, tx(i), func(r txn.Result) {
					if r.OK {
						committed++
					}
				})
			})
		}
		sim.Run(8 * time.Second)
		return committed, sys
	}

	stalled, _ := drive(0)
	recovered, sys := drive(40 * time.Millisecond)
	t.Logf("commits under 1%% loss: resend off = %d/%d, resend 40ms = %d/%d",
		stalled, n, recovered, n)
	// The lossless-faithful default stalls: the barrier jams at the first
	// dropped batch, so only the epochs before the gap ever execute.
	if stalled > n/2 {
		t.Fatalf("resend-off run committed %d of %d — loss no longer stalls the barrier; is this test still driving the documented failure?", stalled, n)
	}
	// The armed timer repairs the gaps. (Individual submit/result messages
	// can still be lost — those transactions hang at the coordinator — so
	// require "almost all", not all.)
	if recovered < 9*n/10 {
		t.Fatalf("resend-on run committed only %d of %d", recovered, n)
	}
	if recovered <= stalled {
		t.Fatalf("retransmission did not help: %d <= %d", recovered, stalled)
	}
	// Determinism survives retransmission: all regions converge per shard.
	for sh := 0; sh < 2; sh++ {
		base := sys.Store(0, sh)
		for reg := 1; reg < 3; reg++ {
			if !base.Equal(sys.Store(reg, sh)) {
				t.Fatalf("region %d shard %d diverged under retransmission", reg, sh)
			}
		}
	}
}
