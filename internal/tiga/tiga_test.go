package tiga

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Every test of the package runs with the freelists' double-free detector
// armed: the agreement objects are recycled mid-run, and a second owner of one
// must fail as itself.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

func testCluster(t *testing.T, seed int64, cfg Config, pl Placement, model clocks.Model) (*simnet.Sim, *Cluster) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	cf := clocks.NewFactory(model, time.Minute, seed+1)
	c := NewCluster(net, cfg, pl, cf, func(shard int, st *store.Store) {
		for i := 0; i < 100; i++ {
			st.Seed(fmt.Sprintf("k%d-%d", shard, i), txn.EncodeInt(0))
		}
	})
	c.Start()
	return sim, c
}

func incTxn(shards ...int) *txn.Txn {
	pieces := make([]txn.Piece, len(shards))
	for i, s := range shards {
		pieces[i] = txn.IncrementPiece(fmt.Sprintf("k%d-0", s)).On(s)
	}
	return &txn.Txn{Pieces: txn.ByShard(pieces...)}
}

// perShard builds the transaction that runs piece(sh) on each of shards 0..n-1.
func perShard(n int, piece func(sh int) *txn.Piece) *txn.Txn {
	pieces := make([]txn.Piece, n)
	for sh := range pieces {
		pieces[sh] = piece(sh).On(sh)
	}
	return &txn.Txn{Pieces: txn.ByShard(pieces...)}
}

func TestSingleTxnFastPathColocated(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 1, cfg, ColocatedPlacement([]simnet.Region{0}), clocks.ModelPerfect)
	if c.Mode() != ModePreventive {
		t.Fatalf("expected preventive mode for co-located leaders, got %v", c.Mode())
	}
	var res *txn.Result
	sim.At(100*time.Millisecond, func() {
		c.Coords[0].Submit(incTxn(0, 1, 2), func(r txn.Result) { res = &r })
	})
	sim.Run(2 * time.Second)
	if res == nil {
		t.Fatal("transaction never committed")
	}
	if !res.OK || !res.FastPath {
		t.Fatalf("want fast-path commit, got %+v", *res)
	}
	for _, sh := range []int{0, 1, 2} {
		if got := txn.DecodeInt(res.Ret(sh)); got != 1 {
			t.Errorf("shard %d result = %d, want 1", sh, got)
		}
	}
	// Commit latency should be ~1 WRTT + headroom: the coordinator is in
	// region 0 with leaders; the super quorum spans regions (OWD <= 62ms),
	// so expect roughly headroom (72ms) + return OWD.
}

func TestConflictingTxnsAllCommitAndReplicasConverge(t *testing.T) {
	for _, mode := range []Mode{ModePreventive, ModeDetective} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.Mode = mode
			sim, c := testCluster(t, 7, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
			committed := 0
			const n = 60
			for i := 0; i < n; i++ {
				i := i
				co := c.Coords[i%3]
				sim.At(time.Duration(100+i)*time.Millisecond, func() {
					co.Submit(incTxn(0, 1, 2), func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			sim.Run(5 * time.Second)
			if committed != n {
				t.Fatalf("committed %d of %d", committed, n)
			}
			// Every replica of every shard must converge on the same store
			// and the same log prefix (wait: logs may trail by commitPoint;
			// compare leader log with synced prefixes).
			for sh := 0; sh < 3; sh++ {
				leader := c.Servers[sh][0]
				if got := txn.DecodeInt(leader.Store().Get(fmt.Sprintf("k%d-0", sh))); got != n {
					t.Errorf("shard %d counter = %d, want %d", sh, got, n)
				}
				llog := leader.LogIDs()
				for rep := 1; rep < 3; rep++ {
					f := c.Servers[sh][rep]
					flog := f.LogIDs()
					if len(flog) > len(llog) {
						t.Fatalf("follower log longer than leader's")
					}
					for i := range flog {
						if flog[i] != llog[i] {
							t.Fatalf("shard %d replica %d log diverges at %d", sh, rep, i)
						}
					}
					if f.SyncPoint() != len(llog) {
						t.Errorf("shard %d replica %d sync-point %d, want %d", sh, rep, f.SyncPoint(), len(llog))
					}
				}
			}
		})
	}
}

func TestDetectiveModeRotatedLeaders(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 11, cfg, Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: []simnet.Region{0, 1, 2}}, clocks.ModelChrony)
	if c.Mode() != ModeDetective {
		t.Fatalf("expected detective mode for rotated leaders, got %v", c.Mode())
	}
	committed := 0
	const n = 40
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(100+i*3)*time.Millisecond, func() {
			c.Coords[i%3].Submit(incTxn(0, 1, 2), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(8 * time.Second)
	// Highly contended chains can exceed the retry window near the tail;
	// require near-complete commitment.
	if committed < n*9/10 {
		t.Fatalf("committed %d of %d", committed, n)
	}
	for sh := 0; sh < 3; sh++ {
		got := txn.DecodeInt(c.Servers[sh][0].Store().Get(fmt.Sprintf("k%d-0", sh)))
		if int(got) < committed {
			t.Errorf("shard %d counter = %d < %d commits", sh, got, committed)
		}
	}
}

func TestLeaderFailureRecovery(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 13, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelPerfect)
	committed := 0
	var after int
	const n = 80
	for i := 0; i < n; i++ {
		i := i
		at := time.Duration(100+i*20) * time.Millisecond
		sim.At(at, func() {
			c.Coords[i%3].Submit(incTxn(0, 1, 2), func(r txn.Result) {
				if r.OK {
					committed++
					if sim.Now() > 800*time.Millisecond {
						after++
					}
				}
			})
		})
	}
	// Kill shard 1's leader mid-run.
	sim.At(700*time.Millisecond, func() { c.KillServer(1, 0) })
	sim.Run(20 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d after leader failure", committed, n)
	}
	if after == 0 {
		t.Fatal("no commits after failure — recovery did not happen")
	}
	// The new view must have elected a different leader for shard 1.
	if c.VMs[0].view.GView == 0 {
		t.Fatal("view manager never changed views")
	}
	newLeader := c.Leader(1)
	if newLeader.replica == 0 {
		t.Fatal("failed leader still leading")
	}
	// All shards' counters must equal n on the current leaders.
	for sh := 0; sh < 3; sh++ {
		if got := txn.DecodeInt(c.Leader(sh).Store().Get(fmt.Sprintf("k%d-0", sh))); got != n {
			t.Errorf("shard %d counter = %d, want %d", sh, got, n)
		}
	}
}

// TestViewTravelsAsACopy: a global view travels as a copy. After a leader kill
// has run a view change and the rebooted server has rejoined, every holder of
// the view — server, coordinator, view-manager replica — owns its g-vec: none
// shares a backing array with another holder, with a view-change message a
// new leader kept in its quorum, or with any view a message delivered.
func TestViewTravelsAsACopy(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 13, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelPerfect)
	var delivered [][]int
	intercept := func(n *simnet.Node, h func(simnet.NodeID, simnet.Message)) {
		n.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			switch m := msg.(type) {
			case viewChangeReq:
				delivered = append(delivered, m.GVec)
			case viewChangeMsg:
				delivered = append(delivered, m.GVec)
			case startViewMsg:
				delivered = append(delivered, m.GVec)
			case vmInfo:
				delivered = append(delivered, m.GVec)
			case cmPrepare:
				delivered = append(delivered, m.GVec)
			case cmCommit:
				delivered = append(delivered, m.GVec)
			}
			h(from, msg)
		})
	}
	for _, shard := range c.Servers {
		for _, s := range shard {
			intercept(s.node, s.handle)
		}
	}
	for _, co := range c.Coords {
		intercept(co.node, co.handle)
	}
	for _, v := range c.VMs {
		intercept(v.node, v.handle)
	}
	committed := 0
	const n = 60
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
	sim.At(700*time.Millisecond, func() { c.KillServer(1, 0) })
	sim.At(6*time.Second, func() {
		c.RestartServer(1, 0)
		intercept(c.Servers[1][0].node, c.Servers[1][0].handle)
	})
	sim.Run(12 * time.Second)
	if committed != n || c.VMs[0].view.GView == 0 || c.Servers[1][0].status != statusNormal {
		t.Fatalf("committed %d of %d, view %d, rebooted server status %d: no completed view change and rejoin to check",
			committed, n, c.VMs[0].view.GView, c.Servers[1][0].status)
	}
	owner := map[*int]string{}
	hold := func(gvec []int, who string) {
		t.Helper()
		if other, ok := owner[&gvec[0]]; ok {
			t.Errorf("%s shares its g-vec with %s", who, other)
		}
		owner[&gvec[0]] = who
	}
	for sh, shard := range c.Servers {
		for rep, s := range shard {
			hold(s.view.GVec, fmt.Sprintf("server %d/%d", sh, rep))
		}
	}
	for i, co := range c.Coords {
		hold(co.view.GVec, fmt.Sprintf("coordinator %d", i))
	}
	for i, v := range c.VMs {
		hold(v.view.GVec, fmt.Sprintf("view-manager replica %d", i))
		if v.prep.GVec != nil {
			hold(v.prep.GVec, fmt.Sprintf("view-manager replica %d's prepared view", i))
		}
	}
	quorums := 0
	for _, shard := range c.Servers {
		for _, s := range shard {
			for rep, m := range s.vQuorum {
				quorums++
				if who, ok := owner[&m.GVec[0]]; ok {
					t.Errorf("%s holds the g-vec of replica %d's view-change message", who, rep)
				}
			}
		}
	}
	for _, gvec := range delivered {
		if who, ok := owner[&gvec[0]]; ok {
			t.Errorf("%s holds the g-vec of a delivered message", who)
		}
	}
	if quorums == 0 || len(delivered) == 0 {
		t.Fatalf("%d quorum messages and %d delivered views: nothing checked", quorums, len(delivered))
	}
}
