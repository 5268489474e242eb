package tiga

import (
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// TestRecycledRecordsRetryTimerStaysInert: a transaction that commits before
// its retry timeout hands its pendingTxn back to the coordinator's freelist,
// and the next transaction, launched right after, gets the same record and is
// still in flight when the first one's timeout comes due. That timer must not
// resubmit the new transaction: finish moved the record's gen past it.
func TestRecycledRecordsRetryTimerStaysInert(t *testing.T) {
	const timeout = 200 * time.Millisecond
	cfg := DefaultConfig(3, 1)
	cfg.RetryTimeout = timeout
	sim, c := testCluster(t, 1, cfg, ColocatedPlacement([]simnet.Region{0}), clocks.ModelPerfect)
	co := c.Coords[0]
	first, second := incTxn(0, 1, 2), incTxn(0, 1, 2)
	const launch = 100 * time.Millisecond
	var rec *pendingTxn
	var firstDone, secondLaunch, secondDone time.Duration
	var results []txn.Result
	sim.At(launch, func() {
		co.Submit(first, func(r txn.Result) {
			firstDone = sim.Now()
			results = append(results, r)
			sim.After(0, func() {
				secondLaunch = sim.Now()
				co.Submit(second, func(r txn.Result) {
					secondDone = sim.Now()
					results = append(results, r)
				})
				if co.tab.Get(second.ID) != rec {
					t.Error("the second transaction did not reuse the first one's record")
				}
			})
		})
		rec = co.tab.Get(first.ID)
	})
	// Stop before the second transaction's own timeout: on a record whose
	// gen never moves, that timer would run on the idle record.
	sim.Run(launch + timeout)
	sim.Run(firstDone + timeout - time.Millisecond)
	t.Logf("first done at %v, second launched at %v and done at %v; the first's timeout was due at %v",
		firstDone, secondLaunch, secondDone, launch+timeout)
	if len(results) != 2 || !results[0].OK || !results[1].OK {
		t.Fatalf("results %+v, want two commits", results)
	}
	if firstDone >= launch+timeout || secondLaunch >= launch+timeout || secondDone <= launch+timeout ||
		secondDone >= secondLaunch+timeout {
		t.Fatal("the timing no longer puts the first transaction's timeout inside the second's flight, and the second's after it")
	}
	if co.Retries != 0 || results[1].Retries != 0 {
		t.Errorf("the first transaction's retry timer resubmitted the second: %d retries, the result reports %d",
			co.Retries, results[1].Retries)
	}
}
