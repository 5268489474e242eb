package tiga

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// These tests pin the two properties that make a server's steady state cost
// O(work) rather than O(state): checkpoints are positions whose image recovery
// rebuilds by replay (§4), and the pump steps over records parked on §3.5
// agreement instead of re-deriving their conflicts on every scan.

// conflicts reports whether two pieces have a read-write or write-write
// overlap (the relation blockedBy tests against the shadow sets).
func conflicts(a, b *txn.Piece) bool {
	hit := func(xs, ys []string) bool {
		for _, x := range xs {
			for _, y := range ys {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	return hit(a.WriteSet, b.WriteSet) || hit(a.WriteSet, b.ReadSet) || hit(a.ReadSet, b.WriteSet)
}

// checkParked verifies, over the whole queue, the invariant the parked-record
// pump relies on — a parked record never sits after a conflicting unparked
// record — and that parkR/parkW hold exactly the parked records' keys.
func checkParked(t *testing.T, s *Server) {
	t.Helper()
	wantR, wantW := map[string]int{}, map[string]int{}
	for j, p := range s.pq.items {
		if !p.parked {
			continue
		}
		for _, k := range p.piece.ReadSet {
			wantR[k]++
		}
		for _, k := range p.piece.WriteSet {
			wantW[k]++
		}
		for _, u := range s.pq.items[:j] {
			if !u.parked && conflicts(u.piece, p.piece) {
				t.Fatalf("shard %d: parked %v sits after conflicting unparked %v", s.shard, p.id, u.id)
			}
		}
	}
	for name, pair := range map[string][2]map[string]int{"parkR": {s.parkR, wantR}, "parkW": {s.parkW, wantW}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("shard %d: %s has %d keys, parked records hold %d", s.shard, name, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("shard %d: %s[%s] = %d, want %d", s.shard, name, k, got[k], n)
			}
		}
	}
}

// saturate submits increments spanning every shard, uniform over keys keys per
// shard, from every coordinator at a fixed interval. Leaders' queues then hold
// many records parked on agreement; with few keys, conflicting records queue
// behind them.
func saturate(sim *simnet.Sim, c *Cluster, keys int, from, until, every time.Duration, committed *int) int {
	rng := rand.New(rand.NewSource(99))
	n := 0
	for at := from; at < until; at += every {
		for co := range c.Coords {
			co := co
			tx := &txn.Txn{Pieces: make(map[int]*txn.Piece)}
			for sh := 0; sh < c.Cfg.Shards; sh++ {
				tx.Pieces[sh] = txn.IncrementPiece(fmt.Sprintf("k%d-%d", sh, rng.Intn(keys)))
			}
			sim.At(at, func() {
				c.Coords[co].Submit(tx, func(r txn.Result) {
					if r.OK {
						*committed++
					}
				})
			})
			n++
		}
	}
	return n
}

// parkedCluster is a detective-mode deployment with rotated leaders (executed
// records stay parked for a WAN round trip) whose servers check the parked
// invariant at every park.
func parkedCluster(t *testing.T, parks *int) (*simnet.Sim, *Cluster) {
	cfg := DefaultConfig(3, 1)
	cfg.Mode = ModeDetective
	cfg.RetryTimeout = 10 * time.Second // queueing delay must not turn into retries
	sim, c := testCluster(t, 71, cfg, RotatedPlacement([]simnet.Region{0, 1, 2}, 3), clocks.ModelChrony)
	for sh := 0; sh < 3; sh++ {
		for _, s := range c.Servers[sh] {
			s := s
			s.onPark = func(*rec) { *parks++; checkParked(t, s) }
		}
	}
	return sim, c
}

// TestPumpStepsOverParkedRecords: the pump must examine a record a bounded
// number of times per execution (the parent commit re-walked every parked
// record on every pump: hundreds of scans per execution), the invariant must
// hold at every park, and nothing stays parked after the drain.
func TestPumpStepsOverParkedRecords(t *testing.T) {
	parks, committed := 0, 0
	sim, c := parkedCluster(t, &parks)
	n := saturate(sim, c, 50_000, 100*time.Millisecond, 1100*time.Millisecond, time.Millisecond, &committed)
	sim.Run(20 * time.Second)
	if committed != n || parks == 0 {
		t.Fatalf("committed %d of %d, %d parks", committed, n, parks)
	}
	for sh := 0; sh < 3; sh++ {
		for rep, s := range c.Servers[sh] {
			if len(s.parkR) != 0 || len(s.parkW) != 0 {
				t.Errorf("shard %d replica %d: %d/%d parked keys after the drain", sh, rep, len(s.parkR), len(s.parkW))
			}
			if s.IsLeader() && (s.Executions == 0 || s.PumpScan > 4*s.Executions) {
				t.Errorf("shard %d leader: PumpScan %d > 4 x Executions %d", sh, s.PumpScan, s.Executions)
			}
		}
	}
}

// TestInstallLogClearsParkedSets: a log install drops the queue, so it must
// drop the parked sets with it.
func TestInstallLogClearsParkedSets(t *testing.T) {
	parks, committed := 0, 0
	sim, c := parkedCluster(t, &parks)
	saturate(sim, c, 100, 100*time.Millisecond, 700*time.Millisecond, time.Millisecond, &committed)
	sim.Run(600 * time.Millisecond)
	for sh := 0; sh < 3; sh++ {
		l := c.Leader(sh)
		if len(l.parkW) == 0 {
			t.Fatalf("shard %d leader has nothing parked mid-run", sh)
		}
		l.installLog(l.log)
		if len(l.parkR) != 0 || len(l.parkW) != 0 || l.pq.len() != 0 {
			t.Errorf("shard %d: installLog left %d/%d parked keys, %d queued", sh, len(l.parkR), len(l.parkW), l.pq.len())
		}
	}
}

// TestParkedPumpPreventiveMode runs the same load with co-located leaders:
// proposed records park, agreement unparks them in place (they still have to
// execute), and the invariant holds throughout.
func TestParkedPumpPreventiveMode(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 73, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	if c.Mode() != ModePreventive {
		t.Fatalf("want preventive mode, got %v", c.Mode())
	}
	parks := 0
	for sh := 0; sh < 3; sh++ {
		s := c.Leader(sh)
		s.onPark = func(*rec) { parks++; checkParked(t, s) }
	}
	committed := 0
	n := saturate(sim, c, 100, 100*time.Millisecond, 600*time.Millisecond, time.Millisecond, &committed)
	sim.Run(20 * time.Second)
	if committed != n || parks == 0 {
		t.Fatalf("committed %d of %d, %d parks", committed, n, parks)
	}
	for sh := 0; sh < 3; sh++ {
		if s := c.Leader(sh); len(s.parkR) != 0 || len(s.parkW) != 0 {
			t.Errorf("shard %d: %d/%d parked keys after the drain", sh, len(s.parkR), len(s.parkW))
		}
	}
}

// TestLazyCheckpointViewChange: a leader-partition view change with and
// without checkpoints converges every replica's store, finishes at the parent
// commit's simulated instant, and charges replay work only for the entries
// past the checkpoint. The instants — every live replica back to normal in the
// new view — were recorded on the parent commit, which kept a deep copy of the
// store per checkpoint; lazily materialised checkpoints must reproduce them
// exactly, since recovery charges the same simulated replay work.
func TestLazyCheckpointViewChange(t *testing.T) {
	for every, finished := range map[int]time.Duration{
		0: 2183590270 * time.Nanosecond,
		3: 2183586670 * time.Nanosecond, // 3 entries x ExecCost less to replay
		7: 2183590270 * time.Nanosecond, // no checkpoint yet when the view changes
	} {
		every, finished := every, finished
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.CheckpointEvery = every
			sim, c := testCluster(t, 47, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelPerfect)
			old := c.Servers[2][0]
			sim.At(600*time.Millisecond, func() { c.Net.Isolate(old.Node().ID()) })
			sim.At(8*time.Second, func() { c.Net.Heal(old.Node().ID()) })
			committed := 0
			const n = 50
			for i := 0; i < n; i++ {
				i := i
				sim.At(time.Duration(100+i*120)*time.Millisecond, func() {
					c.Coords[i%3].Submit(incTxn(0, 1, 2), func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			// Step to the first instant every live replica is normal in a
			// view past the initial one.
			recovered := func() bool {
				for sh := 0; sh < 3; sh++ {
					for _, s := range c.Servers[sh] {
						if s != old && (s.gview == 0 || s.status != statusNormal) {
							return false
						}
					}
				}
				return true
			}
			for !recovered() && sim.Now() < 8*time.Second && sim.Step() {
			}
			if done := sim.Now(); done != finished {
				t.Errorf("view change finished at %v, parent commit %v", done, finished)
			}
			// Every live replica has just installed the same log: whatever its
			// checkpoint and its role in the old view (the old leaders of
			// shards 0 and 1 executed optimistically), the stores agree.
			for sh := 0; sh < 3; sh++ {
				for rep, s := range c.Servers[sh] {
					if s != old && !s.Store().Equal(c.Leader(sh).Store()) {
						t.Errorf("shard %d replica %d store differs from the leader's after the view change", sh, rep)
					}
				}
			}
			sim.Run(30 * time.Second)
			if committed != n {
				t.Fatalf("committed %d of %d across a leader partition", committed, n)
			}
			for sh := 0; sh < 3; sh++ {
				if got := txn.DecodeInt(c.Leader(sh).Store().Get(fmt.Sprintf("k%d-0", sh))); got != n {
					t.Errorf("shard %d counter = %d, want %d", sh, got, n)
				}
				for rep, s := range c.Servers[sh] {
					if every > 0 && s != old && s.checkpointPos == 0 {
						t.Errorf("shard %d replica %d never checkpointed", sh, rep)
					}
					if len(s.checkpointIDs) != s.checkpointPos {
						t.Errorf("shard %d replica %d: %d checkpoint ids for position %d", sh, rep, len(s.checkpointIDs), s.checkpointPos)
					}
				}
			}

			// Recovery from a valid checkpoint charges ExecCost for the
			// entries past it only; an invalid one (prefix identity differs)
			// falls back to a full replay and resets the position.
			f := c.Servers[0][1]
			pos, busy := f.checkpointPos, f.node.Busy()
			f.installLog(f.log)
			if got, want := f.node.Busy()-busy, time.Duration(len(f.log)-pos)*cfg.ExecCost; got != want {
				t.Errorf("replay from checkpoint %d of %d charged %v, want %v", pos, len(f.log), got, want)
			}
			if f.checkpointPos != pos || !f.Store().Equal(c.Leader(0).Store()) {
				t.Errorf("replay from checkpoint moved it (%d -> %d) or diverged", pos, f.checkpointPos)
			}
			swapped := append([]logEntry(nil), f.log...)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			busy = f.node.Busy()
			f.installLog(swapped)
			if got, want := f.node.Busy()-busy, time.Duration(len(f.log))*cfg.ExecCost; got != want || f.checkpointPos != 0 {
				t.Errorf("replay past an invalid checkpoint charged %v (position %d), want %v (position 0)", got, f.checkpointPos, want)
			}
		})
	}
}

// TestRejoinKeepsVersionHistory: under local reads a rejoined replica rebuilds
// its store by replay; the rebuilt store must retain version history like the
// one it started with, or GetAt below the replica's own watermark finds
// nothing (the rebuild path used to skip EnableSnapshots).
func TestRejoinKeepsVersionHistory(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.LocalReads = true
	sim, c := testCluster(t, 43, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelPerfect)
	sim.At(50*time.Millisecond, func() { c.KillServer(1, 1) })
	sim.At(2*time.Second, func() { c.RestartServer(1, 1) })
	committed := 0
	const n = 45
	for i := 0; i < n; i++ {
		at := time.Duration(200+i*100) * time.Millisecond
		if i >= 15 {
			at = time.Duration(3000+(i-15)*100) * time.Millisecond
		}
		sim.At(at, func() {
			c.Coords[0].Submit(incTxn(0, 1, 2), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(12 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	rejoined, peer := c.Servers[1][1], c.Servers[1][2]
	for _, at := range []time.Duration{1800 * time.Millisecond, 4 * time.Second, 6500 * time.Millisecond} {
		if at > rejoined.SafeTime() {
			t.Fatalf("snapshot %v is above the rejoined replica's watermark %v", at, rejoined.SafeTime())
		}
		gv, gts, gok := rejoined.Store().GetAt("k1-0", at)
		wv, wts, wok := peer.Store().GetAt("k1-0", at)
		if gok != wok || !gts.Equal(wts) || txn.DecodeInt(gv) != txn.DecodeInt(wv) {
			t.Errorf("GetAt(k1-0, %v) = (%d, %v) on the rejoined replica, (%d, %v) on its peer",
				at, txn.DecodeInt(gv), gok, txn.DecodeInt(wv), wok)
		}
	}
	if got, want := rejoined.Store().HighWater("k1-0"), peer.Store().HighWater("k1-0"); !got.Equal(want) || want.Time == 0 {
		t.Errorf("HighWater(k1-0) = %v on the rejoined replica, %v on its peer", got, want)
	}
}
