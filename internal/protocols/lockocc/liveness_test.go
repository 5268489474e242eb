package lockocc

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// buildCycleDeployment places the two shard leaders in different regions
// (shard 0 -> region 0, shard 1 -> region 1) with one coordinator co-located
// with each, so a transaction submitted near its "home" shard locks it
// before the rival's WAN request arrives — the geometry that produces the
// cross-shard wound-wait cycle from the ROADMAP:
//
//	T1 (older) votes on shard 0, waits on shard 1;
//	T2 (younger) votes on shard 1, waits on shard 0 — T1's wound is ignored
//	because T2 already voted there.
//
// Per-shard vote immunity can never break this cycle; only the coordinator's
// vote timeout (presumed abort) can.
func buildCycleDeployment(voteTimeout time.Duration) (*simnet.Sim, *System) {
	sim := simnet.NewSim(11)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)) // no jitter: exact geometry
	sys := New(Spec{
		CC: TwoPL, Shards: 2, F: 1, Net: net,
		ServerRegion: func(shard, r int) simnet.Region { return simnet.Region((shard + r) % 3) },
		CoordRegions: []simnet.Region{0, 1},
		Seed: func(shard int, st *store.Store) {
			st.Seed(fmt.Sprintf("cyc%d", shard), txn.EncodeInt(0))
		},
		ExecCost: time.Microsecond, VoteTimeout: voteTimeout,
		MaxRetries: 4, RetryBackoff: 25 * time.Millisecond,
	})
	sys.Start()
	return sim, sys
}

func cycleTxn() *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece("cyc0").On(0),
		txn.IncrementPiece("cyc1").On(1),
	)}
}

// submitCycle arms the T1/T2 collision and returns completion flags:
// done[i] is set when transaction i's final result arrives, ok[i] when it
// committed. T2 starts 20 ms after T1 — late enough that T1 has locked its
// home shard, early enough that T2 locks shard 1 before T1's WAN request
// lands there.
func submitCycle(sim *simnet.Sim, sys *System) (done, ok *[2]bool) {
	done, ok = new([2]bool), new([2]bool)
	sim.At(10*time.Millisecond, func() {
		sys.Submit(0, cycleTxn(), func(r txn.Result) { done[0] = true; ok[0] = r.OK })
	})
	sim.At(30*time.Millisecond, func() {
		sys.Submit(1, cycleTxn(), func(r txn.Result) { done[1] = true; ok[1] = r.OK })
	})
	return done, ok
}

// TestCrossShardWoundWaitCycleHangsWithoutTimeout documents the liveness
// hole the vote timeout exists to close: with the timer disabled, the cycle
// never resolves, and later transactions queue behind the stuck locks
// forever.
func TestCrossShardWoundWaitCycleHangsWithoutTimeout(t *testing.T) {
	sim, sys := buildCycleDeployment(0)
	done, _ := submitCycle(sim, sys)
	probeDone := false
	sim.At(2*time.Second, func() {
		sys.Submit(0, cycleTxn(), func(txn.Result) { probeDone = true })
	})
	sim.Run(20 * time.Second)
	if done[0] || done[1] {
		t.Fatalf("cycle resolved without a vote timeout (done=%v) — the regression geometry no longer deadlocks", *done)
	}
	if probeDone {
		t.Fatal("probe transaction completed although the cycle holds its locks")
	}
}

// TestVoteTimeoutResolvesCrossShardWoundWaitCycle is the regression test for
// the fix: the same deadlock geometry, with the coordinator vote timeout
// armed, resolves — both transactions reach a final result, at least one
// commits, the presumed-abort counter shows the escape fired, and later
// transactions on the same keys proceed.
func TestVoteTimeoutResolvesCrossShardWoundWaitCycle(t *testing.T) {
	sim, sys := buildCycleDeployment(300 * time.Millisecond)
	done, ok := submitCycle(sim, sys)
	probeOK := false
	sim.At(8*time.Second, func() {
		sys.Submit(0, cycleTxn(), func(r txn.Result) { probeOK = r.OK })
	})
	sim.Run(20 * time.Second)
	if !done[0] || !done[1] {
		t.Fatalf("cycle did not resolve under the vote timeout (done=%v)", *done)
	}
	if !ok[0] && !ok[1] {
		t.Fatalf("both transactions aborted permanently; presumed abort should let at least one retry win")
	}
	if sys.PresumedAborts == 0 {
		t.Fatal("PresumedAborts = 0: the cycle resolved without the vote timeout firing?")
	}
	if !probeOK {
		t.Fatal("probe transaction after the cycle did not commit")
	}
	// Exactly-once effects despite the presumed-abort retries.
	commits := int64(0)
	for i, o := range ok {
		_ = i
		if o {
			commits++
		}
	}
	if probeOK {
		commits++
	}
	for sh := 0; sh < 2; sh++ {
		if got := txn.DecodeInt(sys.Store(sh).Get(fmt.Sprintf("cyc%d", sh))); got != commits {
			t.Fatalf("cyc%d = %d increments, want %d (retry double-apply?)", sh, got, commits)
		}
	}
}

// TestStaleVoteTimersStayInert runs hot-key contention under a vote timeout
// shorter than a contended commit, from three coordinators: most attempts
// finish, and their records are recycled, while their timers are still
// pending; some time out gathering votes (presumed abort) and some time out
// after the decision, so their commit requests are re-sent. A timer armed for
// a finished attempt must stay inert on the record's next attempt, so the run
// must reproduce exactly the outcomes it had while every timer looked its
// attempt up by transaction id.
func TestStaleVoteTimersStayInert(t *testing.T) {
	for _, c := range []struct {
		cc                                 CC
		committed, aborted, presumed, sent int
	}{
		{TwoPL, 284, 16, 672, 778},
		{OCC, 260, 40, 0, 260},
	} {
		t.Run(c.cc.String(), func(t *testing.T) {
			sim := simnet.NewSim(23)
			sys := New(Spec{
				CC: c.cc, Shards: 2, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0)),
				ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
				CoordRegions: []simnet.Region{0, 1, 2},
				Seed: func(shard int, st *store.Store) {
					for i := 0; i < 8; i++ {
						st.Seed(fmt.Sprintf("s%d-%d", shard, i), txn.EncodeInt(0))
					}
				},
				ExecCost:    time.Microsecond,
				VoteTimeout: 400 * time.Millisecond, MaxRetries: 10, RetryBackoff: 20 * time.Millisecond,
			})
			// Count the commit requests each leader receives beyond one a
			// transaction: the phase-1 re-sends.
			seen, resent := map[txn.ID]bool{}, 0
			for sh := range sys.servers {
				srv := sys.servers[sh][0]
				srv.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
					if m, ok := msg.(*commitReq); ok {
						if seen[m.ID] {
							resent++
						}
						seen[m.ID] = true
					}
					srv.handle(from, msg)
				})
			}
			committed, aborted := 0, 0
			perKey := make([]int64, 8)
			const n = 300
			for i := 0; i < n; i++ {
				sim.At(time.Duration(50+20*i)*time.Millisecond, func() {
					k := i % 8
					tx := &txn.Txn{Pieces: txn.ByShard(
						txn.IncrementPiece(fmt.Sprintf("s0-%d", k)).On(0),
						txn.IncrementPiece(fmt.Sprintf("s1-%d", k)).On(1),
					)}
					sys.Submit(i%3, tx, func(r txn.Result) {
						if r.OK {
							committed++
							perKey[k]++
						} else {
							aborted++
						}
					})
				})
			}
			sim.Run(30 * time.Second)
			t.Logf("%d committed, %d aborted, %d presumed aborts, %d commit requests re-sent", committed, aborted, sys.PresumedAborts, resent)
			if committed+aborted != n {
				t.Fatalf("%d of %d transactions finished", committed+aborted, n)
			}
			for sh := 0; sh < 2; sh++ {
				for k, want := range perKey {
					if got := txn.DecodeInt(sys.Store(sh).Get(fmt.Sprintf("s%d-%d", sh, k))); got != want {
						t.Fatalf("s%d-%d = %d, want %d commits", sh, k, got, want)
					}
				}
			}
			if len(seen) == 0 {
				t.Fatal("no leader received a commit request: the filter matches no message")
			}
			if committed != c.committed || aborted != c.aborted || int(sys.PresumedAborts) != c.presumed || resent != c.sent {
				t.Fatalf("got %d committed, %d aborted, %d presumed aborts, %d re-sent; want %d, %d, %d, %d",
					committed, aborted, sys.PresumedAborts, resent, c.committed, c.aborted, c.presumed, c.sent)
			}
		})
	}
}
