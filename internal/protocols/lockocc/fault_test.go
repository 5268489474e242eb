package lockocc

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

const faultKeys = 40

// TestLeaderCrashRecovery exercises the protocol.Faultable path end to end:
// the shard-1 Paxos leader is crashed mid-run and rebooted 1.5 s later.
// Transactions caught in the outage presume-abort and retry (phase 0) or
// have their commit records re-sent until the rebooted leader answers
// (phase 1, which re-locks the decided commit); the reboot rebuilds the log
// from the surviving replicas. Three coordinators submit 600 cross-shard
// increments, one every 8 ms, over a few hot keys or many: with few, a relock
// meets new prepares on its keys, which must wait behind it (2PL) or be
// refused (OCC). The test requires progress on both sides of the outage,
// exactly-once effects, replica convergence and no hung transaction.
func TestLeaderCrashRecovery(t *testing.T) {
	for _, cc := range []CC{TwoPL, OCC} {
		for _, keys := range []int{4, 8, faultKeys} {
			t.Run(fmt.Sprintf("%v/keys=%d", cc, keys), func(t *testing.T) { leaderCrashRecovery(t, cc, keys) })
		}
	}
}

func leaderCrashRecovery(t *testing.T, cc CC, keys int) {
	sim := simnet.NewSim(17)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{
		CC: cc, Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0, 1, 2},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < keys; i++ {
				st.Seed(fmt.Sprintf("f%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
		// Short timer + generous retry budget: outage-window transactions
		// must survive ~1.5 s of presumed aborts and then succeed.
		VoteTimeout: 400 * time.Millisecond, MaxRetries: 30, RetryBackoff: 20 * time.Millisecond,
	})
	sys.Start()

	killAt := time.Second
	restartAt := 2500 * time.Millisecond
	sim.At(killAt, func() { sys.KillServer(1, 0) })
	sim.At(restartAt, func() { sys.RestartServer(1, 0) })

	type outcome struct {
		at time.Duration
		ok bool
	}
	var results []outcome
	perKey := make([]int64, keys)
	const n = 600
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*8)*time.Millisecond, func() { // 50ms .. 4.84s
			k := i % keys
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(fmt.Sprintf("f0-%d", k)).On(0),
				txn.IncrementPiece(fmt.Sprintf("f1-%d", k)).On(1),
			)}
			sys.Submit(i%3, tx, func(r txn.Result) {
				results = append(results, outcome{at: sim.Now(), ok: r.OK})
				if r.OK {
					perKey[k]++
				}
			})
		})
	}
	sim.Run(30 * time.Second)

	if len(results) != n {
		t.Fatalf("%d of %d transactions never reached a final result (hung across the outage)",
			n-len(results), n)
	}
	var preOK, postOK, aborted int
	for _, r := range results {
		switch {
		case !r.ok:
			aborted++
		case r.at < killAt:
			preOK++
		case r.at > restartAt+500*time.Millisecond:
			postOK++
		}
	}
	if preOK == 0 {
		t.Fatal("no commits before the crash")
	}
	if postOK == 0 {
		t.Fatal("no commits after the reboot: recovery did not restore service")
	}
	if sys.PresumedAborts == 0 {
		t.Fatal("no presumed aborts during a 1.5 s leader outage?")
	}
	t.Logf("pre=%d post=%d aborted=%d presumed=%d", preOK, postOK, aborted, sys.PresumedAborts)

	// Exactly-once effects on every replica: every committed increment
	// applied once, despite re-sent commit records, re-proposed recovered
	// slots and relocks; so the rebooted leader's store also matches its
	// followers' (the merged log replay lost nothing).
	for sh := 0; sh < 2; sh++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("f%d-%d", sh, k)
			for r, srv := range sys.servers[sh] {
				if got := txn.DecodeInt(srv.st.Get(key)); got != perKey[k] {
					t.Fatalf("shard %d replica %d: %s = %d, want %d commits (lost or double-applied writes)",
						sh, r, key, got, perKey[k])
				}
			}
		}
	}
}

// TestRejoinWithASurvivorDown reboots a shard leader while one of its two
// followers is also down: the leader's first request for that follower's log
// is dropped, so the rejoin must wait for it, not wedge. Replica 1 crashes at
// 1 s and the leader at 1.5 s; the leader reboots at 2 s and replica 1 at 4 s.
// Ten increments run one after another from 0.1 s, and ten more from 5 s.
func TestRejoinWithASurvivorDown(t *testing.T) {
	for _, cc := range []CC{TwoPL, OCC} {
		t.Run(cc.String(), func(t *testing.T) {
			sim := simnet.NewSim(31)
			sys := New(Spec{
				CC: cc, Shards: 1, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)),
				ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
				CoordRegions: []simnet.Region{0},
				Seed:         func(_ int, st *store.Store) { st.Seed("k", txn.EncodeInt(0)) },
				ExecCost:     time.Microsecond,
			})
			sys.Start()
			committed := 0
			var chain func(left int)
			chain = func(left int) {
				if left == 0 {
					return
				}
				tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("k").On(0))}
				sys.Submit(0, tx, func(r txn.Result) {
					if r.OK {
						committed++
					}
					chain(left - 1)
				})
			}
			sim.At(100*time.Millisecond, func() { chain(10) })
			sim.At(time.Second, func() { sys.KillServer(0, 1) })
			sim.At(1500*time.Millisecond, func() {
				if committed != 10 {
					t.Fatalf("%d of 10 increments committed before the leader crashed", committed)
				}
				sys.KillServer(0, 0)
			})
			sim.At(2*time.Second, func() { sys.RestartServer(0, 0) })
			sim.At(4*time.Second, func() { sys.RestartServer(0, 1) })
			sim.At(5*time.Second, func() { chain(10) })
			sim.Run(15 * time.Second)
			if committed != 20 {
				t.Fatalf("%d of 20 increments committed: the rebooted leader never rejoined", committed)
			}
			for r, srv := range sys.servers[0] {
				if got := txn.DecodeInt(srv.st.Get("k")); got != 20 {
					t.Fatalf("replica %d reads k = %d, want 20", r, got)
				}
			}
		})
	}
}

// TestFollowerReboot crashes a follower of shard 0 mid-run and reboots it:
// the rebooted follower rejoins through the same survivor-log transfer as a
// leader, but only adopts the log — it proposes nothing. Every increment must
// apply exactly once and all three replicas of each shard must agree.
func TestFollowerReboot(t *testing.T) {
	sim := simnet.NewSim(19)
	sys := New(Spec{
		CC: TwoPL, Shards: 2, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)),
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0, 1},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < faultKeys; i++ {
				st.Seed(fmt.Sprintf("f%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	sim.At(time.Second, func() { sys.KillServer(0, 1) })
	sim.At(2500*time.Millisecond, func() { sys.RestartServer(0, 1) })
	perKey := make([]int64, faultKeys)
	finished := 0
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*25)*time.Millisecond, func() {
			k := i % faultKeys
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(fmt.Sprintf("f0-%d", k)).On(0),
				txn.IncrementPiece(fmt.Sprintf("f1-%d", k)).On(1),
			)}
			sys.Submit(i%2, tx, func(r txn.Result) {
				finished++
				if r.OK {
					perKey[k]++
				}
			})
		})
	}
	sim.Run(15 * time.Second)
	if finished != n {
		t.Fatalf("%d of %d transactions finished", finished, n)
	}
	for sh := 0; sh < 2; sh++ {
		for k := 0; k < faultKeys; k++ {
			key := fmt.Sprintf("f%d-%d", sh, k)
			for r, srv := range sys.servers[sh] {
				if got := txn.DecodeInt(srv.st.Get(key)); got != perKey[k] {
					t.Fatalf("shard %d replica %d: %s = %d, want %d commits", sh, r, key, got, perKey[k])
				}
			}
		}
	}
}
