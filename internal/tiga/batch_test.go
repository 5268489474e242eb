package tiga

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// TestBatchedSlowReplies exercises the Appendix E optimization end to end:
// followers answer periodic coordinator inquiries instead of pushing
// per-entry slow replies, and transactions still commit.
func TestBatchedSlowReplies(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.BatchSlowReplies = true
	sim, c := testCluster(t, 71, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	const n = 30
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(100+i*20)*time.Millisecond, func() {
			c.Coords[i%3].Submit(incTxn(0, 1, 2), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(6 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d with batched slow replies", committed, n)
	}
}

// TestBatchedSlowPathWaitsForTheLogPosition pins Appendix E's rule that a
// follower's sync-point vouches for a transaction only past the log position
// the leader released it at. With rotated leaders (detective mode) a
// multi-shard transaction executes, and the leader fast-replies, well before
// agreement lets it release; meanwhile single-shard releases grow the log, so
// the length of the log at execution names some other transaction's entry.
// Co-located leaders (preventive mode) execute and release in one step. Either
// way, every slow-path commit must find a follower of shard 0 holding the
// transaction in its synced log. A batching leader re-sends its reply when a
// delayed release gives it a position; without that, the coordinator learns
// the position only from the reply to its retry, so more transactions retry.
func TestBatchedSlowPathWaitsForTheLogPosition(t *testing.T) {
	regions := []simnet.Region{0, 1, 2}
	for _, pl := range []struct {
		name       string
		pl         Placement
		mode       Mode
		maxRetried int // measured: 90 and 0; 99 and 0 without the re-send
	}{
		{"rotated", Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: regions}, ModeDetective, 90},
		{"colocated", ColocatedPlacement(regions), ModePreventive, 0},
	} {
		t.Run(pl.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.BatchSlowReplies = true
			sim, c := testCluster(t, 71, cfg, pl.pl, clocks.ModelChrony)
			if c.Mode() != pl.mode {
				t.Fatalf("mode %v, want %v", c.Mode(), pl.mode)
			}
			synced := func(id txn.ID) bool {
				for _, s := range c.Servers[0] {
					if s == c.Leader(0) {
						continue
					}
					for _, got := range s.LogIDs()[:s.SyncPoint()] {
						if got == id {
							return true
						}
					}
				}
				return false
			}
			const n = 300
			slow, early, retried := 0, 0, 0
			for i := 0; i < n; i++ {
				t1 := incTxn(0, 1, 2)
				if i%3 != 0 {
					t1 = &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece(fmt.Sprintf("k0-s%d", i)).On(0))}
				}
				co := c.Coords[i%3]
				sim.At(time.Duration(100+i*3)*time.Millisecond, func() {
					co.Submit(t1, func(r txn.Result) {
						if r.Retries > 0 {
							retried++
						}
						if !r.OK || r.FastPath {
							return
						}
						slow++
						if !synced(t1.ID) {
							early++
						}
					})
				})
			}
			sim.Run(10 * time.Second)
			if slow == 0 {
				t.Fatal("no slow-path commits: the probe exercises nothing")
			}
			if early != 0 {
				t.Fatalf("%d of %d slow-path commits completed before any follower of shard 0 synced the transaction", early, slow)
			}
			if retried > pl.maxRetried {
				t.Fatalf("%d transactions retried, at most %d with the release-time re-send", retried, pl.maxRetried)
			}
		})
	}
}
