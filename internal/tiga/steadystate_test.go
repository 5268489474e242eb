package tiga

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

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

// scanCheck arms the differential check on a server: (1) at every blockedBy
// verdict of every pump, the verdict equals the positional one — what the parent
// commit's scan, which re-derived its shadow sets from every pending record
// before the examined one on every pump, would have answered — so process runs
// on exactly the records it ran on before; (2) at the first verdict of every
// pump, checkParked. It counts the verdicts, those with a parked record queued,
// and the late arrivals: unblocked records examined while a conflicting record
// sits behind them that awaits agreement but was not parked because the conflict
// table does not cover its timestamp — the verdicts that parking it would get
// wrong.
type scanCheck struct {
	scans, parkedScans, lateArrivals int
	// cov is the coverage of the conflict-table oracle (oracle_test.go), which
	// armAll arms beside this check.
	cov *oracleCoverage
}

func (sc *scanCheck) arm(t *testing.T, s *Server) {
	// The positional shadow sets: the keys of pq.items[:folded], rebuilt per
	// pump. Within one pump the records before the examined index never change
	// (process only ever removes or moves the record it was called on).
	var (
		pump       int64
		folded     int
		posR, posW = map[string]bool{}, map[string]bool{}
		prev       *rec // examined by the previous call and found unblocked
		prevTS     txn.Timestamp
		unmapped   = map[*rec]txn.Timestamp{} // left waiting in place at this timestamp, not parked
	)
	waits := func(u *rec) bool { return u.inPQ && (u.executed || u.proposed) && !u.agreed && !u.parked }
	s.onScan = func(i int, blocked bool) {
		sc.scans++
		if prev != nil && waits(prev) && prev.ts == prevTS {
			unmapped[prev] = prevTS
		}
		if pump != s.PumpCalls {
			pump, folded = s.PumpCalls, 0
			clear(posR)
			clear(posW)
			checkParked(t, s)
		}
		for ; folded < i; folded++ {
			for _, k := range s.pq.items[folded].piece.ReadSet {
				posR[k] = true
			}
			for _, k := range s.pq.items[folded].piece.WriteSet {
				posW[k] = true
			}
		}
		r := s.pq.items[i]
		positional := false
		for _, k := range r.piece.ReadSet {
			positional = positional || posW[k]
		}
		for _, k := range r.piece.WriteSet {
			positional = positional || posW[k] || posR[k]
		}
		if blocked != positional {
			t.Fatalf("shard %d at %v: blockedBy(%v ts %v) = %v, the positional scan says %v (%d parked, mode %v)",
				s.shard, s.cluster.Net.Sim().Now(), r.id, r.ts, blocked, positional, s.keys.parked, s.view.GMode)
		}
		if s.keys.parked > 0 {
			sc.parkedScans++
		}
		prev = nil
		if !blocked {
			prev, prevTS = r, r.ts
			late := false
			for u, ts := range unmapped {
				if !waits(u) || u.ts != ts {
					delete(unmapped, u)
				} else if u != r && r.ts.Less(u.ts) && conflicts(u.piece, r.piece) {
					late = true
				}
			}
			if late {
				sc.lateArrivals++
			}
		}
	}
}

// checkParked verifies, over the whole queue, the invariant the parked-record
// pump relies on — no record sits before a conflicting parked record — and that
// the conflict table's parked counts are exactly the parked records' keys.
func checkParked(t *testing.T, s *Server) {
	t.Helper()
	wantR, wantW := map[string]int{}, map[string]int{}
	seenR, seenW := map[string]txn.ID{}, map[string]txn.ID{} // key -> a record before p touching it
	for _, p := range s.pq.items {
		if p.parked {
			for _, k := range p.piece.ReadSet {
				wantR[k]++
				if u, ok := seenW[k]; ok {
					t.Fatalf("shard %d: parked %v (ts %v) sits after %v, which writes its read key %s", s.shard, p.id, p.ts, u, k)
				}
			}
			for _, k := range p.piece.WriteSet {
				wantW[k]++
				if u, ok := seenW[k]; ok {
					t.Fatalf("shard %d: parked %v (ts %v) sits after %v, which writes its write key %s", s.shard, p.id, p.ts, u, k)
				}
				if u, ok := seenR[k]; ok {
					t.Fatalf("shard %d: parked %v (ts %v) sits after %v, which reads its write key %s", s.shard, p.id, p.ts, u, k)
				}
			}
		}
		for _, k := range p.piece.ReadSet {
			seenR[k] = p.id
		}
		for _, k := range p.piece.WriteSet {
			seenW[k] = p.id
		}
	}
	// The oracle above is by name, straight from the pieces; the server's
	// counts sit on entries found by KeyID: translate it through the store. The
	// wanted keys' counts adding up to the table's total leaves none elsewhere.
	total := 0
	for k := range wantR {
		wantW[k] += 0
	}
	for k, w := range wantW {
		id, ok := s.st.Lookup(k)
		if !ok {
			t.Fatalf("shard %d: parked key %s was never interned", s.shard, k)
		}
		if gotR, gotW := s.keys.parkedOn(id); int(gotR) != wantR[k] || int(gotW) != w {
			t.Fatalf("shard %d: key %s (id %d) has %d/%d parked readers/writers, want %d/%d", s.shard, k, id, gotR, gotW, wantR[k], w)
		}
		total += wantR[k] + w
	}
	if s.keys.parked != total {
		t.Fatalf("shard %d: the table counts %d parked, parked records hold %d keys", s.shard, s.keys.parked, total)
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
			tx := perShard(c.Cfg.Shards, func(sh int) *txn.Piece { return txn.IncrementPiece(fmt.Sprintf("k%d-%d", sh, rng.Intn(keys))) })
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

// armAll arms sc, and the conflict-table oracle, on every server of c.
func armAll(t *testing.T, c *Cluster, sc *scanCheck) {
	sc.cov = armShadows(t, c)
	for _, shard := range c.Servers {
		for _, s := range shard {
			sc.arm(t, s)
		}
	}
}

// parkedCluster is a detective-mode deployment with rotated leaders (executed
// records stay parked for a WAN round trip) whose servers run the differential
// check on every scan verdict.
func parkedCluster(t *testing.T, sc *scanCheck) (*simnet.Sim, *Cluster) {
	cfg := DefaultConfig(3, 1)
	cfg.Mode = ModeDetective
	cfg.RetryTimeout = 10 * time.Second // queueing delay must not turn into retries
	sim, c := testCluster(t, 71, cfg, Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: []simnet.Region{0, 1, 2}}, clocks.ModelChrony)
	armAll(t, c, sc)
	return sim, c
}

// TestPumpStepsOverParkedRecords: the pump must examine a record a bounded
// number of times per execution (the parent commit re-walked every parked
// record on every pump: hundreds of scans per execution), every scan verdict
// must equal the positional one, and nothing stays parked after the drain.
func TestPumpStepsOverParkedRecords(t *testing.T) {
	var sc scanCheck
	committed := 0
	sim, c := parkedCluster(t, &sc)
	n := saturate(sim, c, 50_000, 100*time.Millisecond, 1100*time.Millisecond, time.Millisecond, &committed)
	sim.Run(20 * time.Second)
	if committed != n || sc.parkedScans == 0 {
		t.Fatalf("committed %d of %d, %d of %d scan verdicts with records parked", committed, n, sc.parkedScans, sc.scans)
	}
	for sh := 0; sh < 3; sh++ {
		for rep, s := range c.Servers[sh] {
			if s.keys.parked != 0 {
				t.Errorf("shard %d replica %d: %d parked keys after the drain", sh, rep, s.keys.parked)
			}
			if s.IsLeader() && (s.Executions == 0 || s.PumpScan > 4*s.Executions) {
				t.Errorf("shard %d leader: PumpScan %d > 4 x Executions %d", sh, s.PumpScan, s.Executions)
			}
		}
	}
	checkDrained(t, c)
}

// TestInstallLogClearsParkedSets: a log install drops the queue, so it must
// drop the parked sets with it.
func TestInstallLogClearsParkedSets(t *testing.T) {
	var sc scanCheck
	committed := 0
	sim, c := parkedCluster(t, &sc)
	saturate(sim, c, 100, 100*time.Millisecond, 700*time.Millisecond, time.Millisecond, &committed)
	sim.Run(600 * time.Millisecond)
	for sh := 0; sh < 3; sh++ {
		l := c.Leader(sh)
		if l.keys.parked == 0 {
			t.Fatalf("shard %d leader has nothing parked mid-run", sh)
		}
		l.installLog(l.Log())
		if l.keys.parked != 0 || l.pq.len() != 0 {
			t.Errorf("shard %d: installLog left %d parked keys, %d queued", sh, l.keys.parked, l.pq.len())
		}
	}
}

// TestParkedPumpPreventiveMode runs the same load with co-located leaders:
// proposed records park, agreement unparks them in place (they still have to
// execute), and every scan verdict equals the positional one.
func TestParkedPumpPreventiveMode(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 73, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	if c.Mode() != ModePreventive {
		t.Fatalf("want preventive mode, got %v", c.Mode())
	}
	var sc scanCheck
	armAll(t, c, &sc)
	committed := 0
	n := saturate(sim, c, 100, 100*time.Millisecond, 600*time.Millisecond, time.Millisecond, &committed)
	sim.Run(20 * time.Second)
	if committed != n || sc.parkedScans == 0 {
		t.Fatalf("committed %d of %d, %d of %d scan verdicts with records parked", committed, n, sc.parkedScans, sc.scans)
	}
	for sh := 0; sh < 3; sh++ {
		if s := c.Leader(sh); s.keys.parked != 0 {
			t.Errorf("shard %d: %d parked keys after the drain", sh, s.keys.parked)
		}
	}
	checkDrained(t, c)
}

// TestParkedPumpLateArrivals is the regression test for a record that proposed
// (preventive mode), was repositioned to the agreed timestamp by Case-3 and
// went on waiting for round 2: its keys' timestamps stay at the proposal until
// release, so a conflicting transaction stamped between the two is admitted
// ahead of it and must be proposed, not blocked — such a record is not parked.
// Zero headroom makes transactions arrive after their timestamps (a leader that
// has to bump one causes a round-1 mismatch and Case-3 on the others), eight
// coordinators in four regions supply conflicting transactions stamped inside
// the window that arrive after it, and message loss adds retries at larger
// timestamps (the other reposition). Detective mode re-executes, hence re-maps,
// a repositioned record; it runs under the same check. Without the rec.mapped
// condition on parking, the first subtest fails within 0.2 simulated seconds.
func TestParkedPumpLateArrivals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		loss  float64
		every time.Duration // per-coordinator submission interval
	}{
		{"preventive/zero-headroom", ModeAuto, 0, 500 * time.Microsecond},
		{"preventive/zero-headroom+loss", ModeAuto, 0.01, 2 * time.Millisecond},
		{"detective/zero-headroom+loss", ModeDetective, 0.01, 4 * time.Millisecond},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.loss > 0 {
				t.Skip("lossy runs scan millions of records; the lossless subtest is the regression test")
			}
			cfg := DefaultConfig(3, 1)
			cfg.Mode = tc.mode
			cfg.ZeroHeadroom = true
			coords := []simnet.Region{0, 0, 1, 1, 2, 2, 3, 3}
			pl := ColocatedPlacement(coords)
			if tc.mode == ModeDetective {
				pl = Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: coords}
			}
			sim := simnet.NewSim(79)
			net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, tc.loss))
			c := NewCluster(net, cfg, pl, clocks.NewFactory(clocks.ModelChrony, time.Minute, 80), nil)
			c.Start()
			var sc scanCheck
			armAll(t, c, &sc)
			committed := 0
			n := saturate(sim, c, 500, 100*time.Millisecond, 500*time.Millisecond, tc.every, &committed)
			sim.Run(30 * time.Second)
			if committed < n/2 || sc.parkedScans == 0 {
				t.Fatalf("committed %d of %d, %d of %d scan verdicts with records parked", committed, n, sc.parkedScans, sc.scans)
			}
			if tc.mode == ModeAuto && sc.lateArrivals == 0 {
				t.Fatal("no conflicting record was admitted ahead of a repositioned one: the run does not exercise the case")
			}
			// The oracle's cases: Case-3 repositions (a rollback each, in the
			// detective mode), retry repositions and, under loss, records a
			// follower first heard of through log-sync.
			var retries int64
			for _, co := range c.Coords {
				retries += co.Retries
			}
			if tc.mode == ModeDetective && c.TotalRollbacks() == 0 {
				t.Error("no Case-3 rollback: the run does not exercise the case")
			}
			if tc.loss > 0 && (retries == 0 || logFirst(c) == 0) {
				t.Errorf("%d retries, %d records first heard of through log-sync: the run does not exercise the cases", retries, logFirst(c))
			}
			if committed == n {
				checkDrained(t, c)
			} else {
				// Under loss some retries hit the Appendix-B fault (retry_test.go)
				// and their transactions never finish agreeing.
				checkState(t, c)
			}
		})
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
			armShadows(t, c)
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
						if s != old && (s.view.GView == 0 || s.status != statusNormal) {
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
			checkDrained(t, c) // post-installLog: every live replica installed the recovered log
			for sh := 0; sh < 3; sh++ {
				if got := txn.DecodeInt(c.Leader(sh).Store().Get(fmt.Sprintf("k%d-0", sh))); got != n {
					t.Errorf("shard %d counter = %d, want %d", sh, got, n)
				}
				for rep, s := range c.Servers[sh] {
					if every > 0 && s != old && s.checkpointPos == 0 {
						t.Errorf("shard %d replica %d never checkpointed", sh, rep)
					}
				}
			}

			// Recovery from a valid checkpoint charges ExecCost for the
			// entries past it only; an invalid one (prefix identity differs)
			// falls back to a full replay and resets the position.
			f := c.Servers[0][1]
			pos, busy := f.checkpointPos, f.node.Busy()
			f.installLog(f.Log())
			if got, want := f.node.Busy()-busy, time.Duration(f.log.Len()-pos)*cfg.ExecCost; got != want {
				t.Errorf("replay from checkpoint %d of %d charged %v, want %v", pos, f.log.Len(), got, want)
			}
			if f.checkpointPos != pos || !f.Store().Equal(c.Leader(0).Store()) {
				t.Errorf("replay from checkpoint moved it (%d -> %d) or diverged", pos, f.checkpointPos)
			}
			swapped := f.Log()
			swapped[0], swapped[1] = swapped[1], swapped[0]
			busy = f.node.Busy()
			f.installLog(swapped)
			if got, want := f.node.Busy()-busy, time.Duration(f.log.Len())*cfg.ExecCost; got != want || f.checkpointPos != 0 {
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
	gid, _ := rejoined.Store().Lookup("k1-0")
	wid, _ := peer.Store().Lookup("k1-0")
	for _, at := range []time.Duration{1800 * time.Millisecond, 4 * time.Second, 6500 * time.Millisecond} {
		if at > rejoined.SafeTime() {
			t.Fatalf("snapshot %v is above the rejoined replica's watermark %v", at, rejoined.SafeTime())
		}
		gv, gts, gok := rejoined.Store().GetAtID(gid, at)
		wv, wts, wok := peer.Store().GetAtID(wid, at)
		if gok != wok || !gts.Equal(wts) || txn.DecodeInt(gv) != txn.DecodeInt(wv) {
			t.Errorf("GetAt(k1-0, %v) = (%d, %v) on the rejoined replica, (%d, %v) on its peer",
				at, txn.DecodeInt(gv), gok, txn.DecodeInt(wv), wok)
		}
	}
	_, got, _ := rejoined.Store().GetAtID(gid, math.MaxInt64)
	_, want, _ := peer.Store().GetAtID(wid, math.MaxInt64)
	if !got.Equal(want) || want.Time == 0 {
		t.Errorf("newest committed version of k1-0 at %v on the rejoined replica, %v on its peer", got, want)
	}
}

// TestRecStaysInItsSizeClass: every replica keeps one rec per transaction of
// its last checkpoint intervals and in flight, thousands of them, so the
// struct's allocation size class is live heap (the benchmark bounds it at
// 3 %). 192 B is a Go size class; the next is 208. A conflict-table entry is
// one cache line.
func TestRecStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got > 192 {
		t.Errorf("rec is %d bytes, over the 192 B size class", got)
	}
	if got := unsafe.Sizeof(keyState{}); got != 64 {
		t.Errorf("a conflict-table entry is %d bytes, not one 64 B cache line", got)
	}
}
