package tiga

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestMixedFormPiecesSerialize: a piece that names a key and a piece that
// carries the same key's id must meet in the conflict sets. Two coordinators
// increment one seeded key per shard concurrently, one with string-only pieces
// (txn.IncrementPiece) and one with interned ones (txn.IncrementPieceID), the
// string form first in even rounds and second in odd ones, in the detective
// mode and in the preventive mode at zero headroom (late arrivals, bumps,
// Case-3). If the two forms could miss each other the increments would not
// serialize: the history must pass the strict-serializability checker, every
// shard's increments must return 1..n in agreed-timestamp order, the final
// value must be the number of commits (of applied entries on a follower), and the parked-pump
// invariants must hold on every scan.
func TestMixedFormPiecesSerialize(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		zero bool
	}{
		{"detective", ModeDetective, false},
		{"preventive/zero-headroom", ModePreventive, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.Mode = tc.mode
			cfg.ZeroHeadroom = tc.zero
			if tc.mode == ModeDetective {
				// One hot key behind rotated leaders queues for seconds; that
				// must not turn into retries. (At zero headroom retries are
				// what re-converges the leaders' queues: default timeout.)
				cfg.RetryTimeout = time.Minute
			}
			pl := ColocatedPlacement([]simnet.Region{0, 1})
			if tc.mode == ModeDetective {
				pl = Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: []simnet.Region{0, 1}}
			}
			// Bulk-seeded, as the workload generators seed: k<shard>-<i> is id i.
			const key = 7
			sim := simnet.NewSim(91)
			net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
			c := NewCluster(net, cfg, pl, clocks.NewFactory(clocks.ModelChrony, time.Minute, 92),
				func(shard int, st *store.Store) {
					names := make([]string, 20)
					for i := range names {
						names[i] = fmt.Sprintf("k%d-%d", shard, i)
					}
					st.SeedBulk(names, txn.EncodeInt(0))
				})
			c.Start()
			var sc scanCheck
			armAll(t, c, &sc)
			byNameTxn := func() *txn.Txn {
				tx := perShard(3, func(sh int) *txn.Piece { return txn.IncrementPiece(fmt.Sprintf("k%d-%d", sh, key)) })
				return tx
			}
			byIDTxn := func() *txn.Txn {
				tx := perShard(3, func(sh int) *txn.Piece { return txn.IncrementPieceID(fmt.Sprintf("k%d-%d", sh, key), key) })
				return tx
			}
			var commits []checker.Commit
			var results []txn.Result
			submit := func(co int, at time.Duration, tx *txn.Txn) {
				sim.At(at, func() {
					c.Coords[co].Submit(tx, func(r txn.Result) {
						if r.OK {
							commits = append(commits, checker.Commit{ID: tx.ID, TS: r.TS, Submit: at, Complete: sim.Now()})
							results = append(results, r)
						}
					})
				})
			}
			const rounds = 120
			for i := 0; i < rounds; i++ {
				at := 100*time.Millisecond + time.Duration(i)*3*time.Millisecond
				lag := time.Duration(i%7) * 100 * time.Microsecond
				if i%2 == 0 {
					submit(0, at, byNameTxn())
					submit(1, at+lag, byIDTxn())
				} else {
					submit(1, at, byIDTxn())
					submit(0, at+lag, byNameTxn())
				}
			}
			sim.Run(120 * time.Second)

			if len(commits) != 2*rounds {
				t.Fatalf("%d of %d transactions committed", len(commits), 2*rounds)
			}
			if err := checker.StrictSerializability(commits); err != nil {
				t.Fatal(err)
			}
			if err := checker.UniqueTimestamps(commits); err != nil {
				t.Fatal(err)
			}
			oneTimestampPerTxn(t, c)
			sort.Slice(results, func(i, j int) bool { return results[i].TS.Less(results[j].TS) })
			for i, r := range results {
				for sh := 0; sh < 3; sh++ {
					if got := txn.DecodeInt(r.Ret(sh)); got != int64(i+1) {
						t.Fatalf("shard %d: commit %d in timestamp order (ts %v) returned %d", sh, i+1, r.TS, got)
					}
				}
			}
			for sh := 0; sh < 3; sh++ {
				if got := txn.DecodeInt(c.Leader(sh).Store().Get(fmt.Sprintf("k%d-%d", sh, key))); got != int64(len(commits)) {
					t.Errorf("shard %d: final value %d after %d commits", sh, got, len(commits))
				}
				for rep, s := range c.Servers[sh] {
					// A follower executes up to the commit point it last heard of:
					// its value is exactly the number of entries it applied.
					if got := txn.DecodeInt(s.Store().Get(fmt.Sprintf("k%d-%d", sh, key))); got != int64(s.applied) || s.syncPoint != len(commits) {
						t.Errorf("shard %d replica %d: value %d with %d entries applied, %d of %d synced", sh, rep, got, s.applied, s.syncPoint, len(commits))
					}
					if s.keys.parked != 0 {
						t.Errorf("shard %d replica %d: %d parked keys after the drain", sh, rep, s.keys.parked)
					}
				}
			}
			if sc.scans == 0 || sc.cov.answers == 0 {
				t.Fatal("the scan check or the conflict-table oracle never ran")
			}
			checkDrained(t, c)
		})
	}
}
