package tiga

import (
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// oneTimestampPerTxn asserts timestamp agreement (§3.5) as the leaders' logs
// record it: every shard leader that logged a transaction logged it at the
// same timestamp.
func oneTimestampPerTxn(t *testing.T, c *Cluster) {
	t.Helper()
	agreed := make(map[txn.ID]txn.Timestamp)
	for sh := range c.Servers {
		for _, e := range c.Leader(sh).Log() {
			if ts, logged := agreed[e.ID]; logged && ts != e.TS {
				t.Errorf("txn %v: shard %d's leader logged it at %v, an earlier shard's at %v", e.ID, sh, e.TS, ts)
			}
			agreed[e.ID] = e.TS
		}
	}
}

// TestRetryRepositionsAReleasedRecord pins an open fault of the Appendix-B
// retry path (ROADMAP, "Correctness first", stage 1): when a hot key's queue
// takes longer to drain than retry-timeout, a coordinator's retry repositions
// the record on the leaders that have not agreed yet while another leader has
// already released it at the old timestamp. Here 32 three-shard increments of
// one key per shard, 3 ms apart, meet rotated leaders (detective mode, a
// release per wide-area round) at the default 1.2 s timeout: two transactions
// end up logged at different timestamps on different shards — the increments
// no longer serialize — and one never completes. The load is
// TestDetectiveModeRotatedLeaders' (40 transactions, "near-complete
// commitment"); EXPERIMENTS.md § PR 15 found it with 240 transactions at 10 s.
// The fix may move golden cells, so it is its own change.
func TestRetryRepositionsAReleasedRecord(t *testing.T) {
	t.Skip("known fault: a retry moves a record another leader already released")
	sim, c := testCluster(t, 11, DefaultConfig(3, 1), Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: []simnet.Region{0, 1, 2}}, clocks.ModelChrony)
	const n = 32
	committed := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(100*time.Millisecond+time.Duration(i)*3*time.Millisecond, func() {
			c.Coords[i%3].Submit(incTxn(0, 1, 2), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(2 * time.Minute)
	if committed != n {
		t.Errorf("committed %d of %d", committed, n)
	}
	oneTimestampPerTxn(t, c)
}
