package ncc

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

const faultKeys = 20

// TestNCCPlusLeaderCrashRecovery exercises the protocol.Faultable path for
// NCC+: the shard-0 serving replica is crashed mid-run and rebooted later,
// rebuilding its store from the surviving Paxos followers' logs
// (paxos.Replica.Rejoin — the same recovery path the lockocc baselines use).
//
// NCC coordinators have no retry timer, so requests swallowed by the outage
// hang by design; the test therefore drives load in three phases — before
// the crash, during the outage, after recovery — and pins:
//   - progress on both sides of the outage (shard 1 stays up throughout),
//   - exactly-once effects: every committed increment is applied exactly
//     once on the rebuilt store (the replayed log covers all pre-crash
//     commits; outage-phase requests to the dead node were dropped whole),
//   - hung outage-phase transactions never produce effects or results.
func TestNCCPlusLeaderCrashRecovery(t *testing.T) {
	sim := simnet.NewSim(23)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{
		Shards: 2, F: 1, Replicated: true, Net: net,
		HomeRegion:   simnet.RegionSouthCarolina,
		CoordRegions: []simnet.Region{simnet.RegionSouthCarolina},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < faultKeys; i++ {
				st.Seed(fmt.Sprintf("n%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()

	killAt := 2 * time.Second
	restartAt := 3500 * time.Millisecond
	sim.At(killAt, func() { sys.KillServer(0, 0) })
	sim.At(restartAt, func() { sys.RestartServer(0, 0) })

	type phase int
	const (
		pre phase = iota
		outage
		post
	)
	phaseOf := func(at time.Duration) phase {
		switch {
		case at < killAt:
			return pre
		case at < restartAt:
			return outage
		default:
			return post
		}
	}
	committed := make(map[phase]int)
	perKey := make([]int64, faultKeys) // shard-0 committed increments
	var submitted, finished int
	submit := func(at time.Duration, shard, key int) {
		submitted++
		sim.At(at, func() {
			ph := phaseOf(sim.Now())
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(fmt.Sprintf("n%d-%d", shard, key)).On(shard),
			)}
			sys.Submit(0, tx, func(r txn.Result) {
				finished++
				if !r.OK {
					t.Errorf("NCC aborted a transaction (phase %d)", ph)
					return
				}
				committed[phaseOf(at)]++
				if shard == 0 {
					perKey[key]++
				}
			})
		})
	}
	// Phase 1: both shards, fully drained before the crash (RTT << gaps).
	for i := 0; i < 40; i++ {
		submit(time.Duration(50+i*25)*time.Millisecond, i%2, i%faultKeys)
	}
	// Phase 2 (outage): shard-0 requests are dropped at the dead node and
	// hang forever; shard-1 keeps committing.
	for i := 0; i < 20; i++ {
		submit(killAt+time.Duration(100+i*50)*time.Millisecond, i%2, i%faultKeys)
	}
	// Phase 3: after the reboot + recovery settle.
	for i := 0; i < 40; i++ {
		submit(restartAt+time.Duration(500+i*25)*time.Millisecond, i%2, i%faultKeys)
	}
	sim.Run(15 * time.Second)

	if committed[pre] == 0 {
		t.Fatal("no commits before the crash")
	}
	if committed[post] == 0 {
		t.Fatal("no commits after the reboot: recovery did not restore service")
	}
	// Outage-phase shard-0 requests hang (no coordinator retry in NCC);
	// shard-1's half still commits.
	hung := submitted - finished
	if hung == 0 {
		t.Fatal("expected outage-phase shard-0 transactions to hang (dropped at the dead node)")
	}
	if hung > 10 {
		t.Fatalf("%d transactions hung; only the 10 outage-phase shard-0 requests should", hung)
	}
	t.Logf("pre=%d outage=%d post=%d hung=%d", committed[pre], committed[outage], committed[post], hung)

	// Exactly-once effects on the rebuilt store: every committed shard-0
	// increment applied once — the replayed survivor log restored the
	// pre-crash commits, and nothing applied twice through the
	// replay + re-reply path.
	for k := 0; k < faultKeys; k++ {
		got := txn.DecodeInt(sys.Store(0).Get(fmt.Sprintf("n0-%d", k)))
		if got != perKey[k] {
			t.Fatalf("n0-%d = %d, want %d (lost or double-applied writes across recovery)", k, got, perKey[k])
		}
	}
}

// TestNCCPlusRecoveryRetriesUnreachableSurvivor pins the rejoin's re-request
// loop: the rebooting server's first request for the log of a still-crashed
// follower is dropped, so recovery must stall — not wedge — until the
// follower returns and a retried request reaches it.
func TestNCCPlusRecoveryRetriesUnreachableSurvivor(t *testing.T) {
	sim := simnet.NewSim(31)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{
		Shards: 1, F: 1, Replicated: true, Net: net,
		HomeRegion:   simnet.RegionSouthCarolina,
		CoordRegions: []simnet.Region{simnet.RegionSouthCarolina},
		Seed: func(shard int, st *store.Store) {
			st.Seed("k", txn.EncodeInt(0))
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	preCommits := 0
	for i := 0; i < 10; i++ {
		sim.At(time.Duration(100+i*50)*time.Millisecond, func() {
			tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("k").On(0))}
			sys.Submit(0, tx, func(r txn.Result) {
				if r.OK {
					preCommits++
				}
			})
		})
	}
	// Crash a follower, then the leader; reboot the leader while the
	// follower is still down (its log request is dropped), and bring the
	// follower back 2 s later — several re-request intervals after.
	sim.At(time.Second, func() { sys.KillServer(0, 1) })
	sim.At(1500*time.Millisecond, func() { sys.KillServer(0, 0) })
	sim.At(2*time.Second, func() { sys.RestartServer(0, 0) })
	sim.At(4*time.Second, func() { sys.RestartServer(0, 1) })
	postCommits := 0
	for i := 0; i < 10; i++ {
		sim.At(5*time.Second+time.Duration(i*50)*time.Millisecond, func() {
			tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("k").On(0))}
			sys.Submit(0, tx, func(r txn.Result) {
				if r.OK {
					postCommits++
				}
			})
		})
	}
	sim.Run(15 * time.Second)
	if preCommits != 10 {
		t.Fatalf("pre-crash commits = %d, want 10", preCommits)
	}
	if postCommits != 10 {
		t.Fatalf("post-recovery commits = %d, want 10 — recovery wedged on the initially unreachable survivor", postCommits)
	}
	if got := txn.DecodeInt(sys.Store(0).Get("k")); got != int64(preCommits+postCommits) {
		t.Fatalf("k = %d, want %d (lost or double-applied writes across the double fault)", got, preCommits+postCommits)
	}
}

// TestNCCPlusFollowerCrash: losing one follower of three leaves a Paxos
// majority, so replication (and thus replies) keep flowing; the follower
// resumes after a restart.
func TestNCCPlusFollowerCrash(t *testing.T) {
	sim := simnet.NewSim(29)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{
		Shards: 1, F: 1, Replicated: true, Net: net,
		HomeRegion:   simnet.RegionSouthCarolina,
		CoordRegions: []simnet.Region{simnet.RegionSouthCarolina},
		Seed: func(shard int, st *store.Store) {
			st.Seed("k", txn.EncodeInt(0))
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	sim.At(time.Second, func() { sys.KillServer(0, 1) })
	sim.At(3*time.Second, func() { sys.RestartServer(0, 1) })
	committed := 0
	for i := 0; i < 30; i++ {
		sim.At(time.Duration(200+i*150)*time.Millisecond, func() {
			tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("k").On(0))}
			sys.Submit(0, tx, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(10 * time.Second)
	if committed != 30 {
		t.Fatalf("committed %d of 30 with one follower down (majority held)", committed)
	}
}
