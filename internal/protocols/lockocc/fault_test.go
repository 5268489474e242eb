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
// (phase 1); the reboot rebuilds the log from the surviving replicas. The
// test requires progress on both sides of the outage, exactly-once effects,
// and replica convergence.
func TestLeaderCrashRecovery(t *testing.T) {
	sim := simnet.NewSim(17)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{
		CC: TwoPL, Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0, 1},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < faultKeys; i++ {
				st.Seed(fmt.Sprintf("f%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
		// Short timer + generous retry budget: outage-window transactions
		// must survive ~1.5 s of presumed aborts and then succeed.
		VoteTimeout: 400 * time.Millisecond, MaxRetries: 10, RetryBackoff: 20 * time.Millisecond,
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
	perKey := make([]int64, faultKeys)
	submitted := 0
	for i := 0; i < 200; i++ {
		i := i
		at := time.Duration(50+i*25) * time.Millisecond // 50ms .. 5.03s
		submitted++
		sim.At(at, func() {
			k := i % faultKeys
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(fmt.Sprintf("f0-%d", k)).On(0),
				txn.IncrementPiece(fmt.Sprintf("f1-%d", k)).On(1),
			)}
			sys.Submit(i%2, tx, func(r txn.Result) {
				results = append(results, outcome{at: sim.Now(), ok: r.OK})
				if r.OK {
					perKey[k]++
				}
			})
		})
	}
	sim.Run(15 * time.Second)

	if len(results) != submitted {
		t.Fatalf("%d of %d transactions never reached a final result (hung across the outage)",
			submitted-len(results), submitted)
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

	// Exactly-once effects: every committed increment applied once, despite
	// re-sent commit records and re-proposed recovered slots.
	for k := 0; k < faultKeys; k++ {
		for sh := 0; sh < 2; sh++ {
			got := txn.DecodeInt(sys.Store(sh).Get(fmt.Sprintf("f%d-%d", sh, k)))
			if got != perKey[k] {
				t.Fatalf("f%d-%d = %d, want %d commits (lost or double-applied writes)", sh, k, got, perKey[k])
			}
		}
	}
	// Replica convergence: the rebooted leader's store matches its
	// followers' on every key (the merged log replay lost nothing).
	for sh := 0; sh < 2; sh++ {
		for rep := 1; rep < 3; rep++ {
			lead, fol := sys.servers[sh][0].st, sys.servers[sh][rep].st
			for k := 0; k < faultKeys; k++ {
				key := fmt.Sprintf("f%d-%d", sh, k)
				if string(lead.Get(key)) != string(fol.Get(key)) {
					t.Fatalf("shard %d replica %d diverges on %s after recovery", sh, rep, key)
				}
			}
		}
	}
}
