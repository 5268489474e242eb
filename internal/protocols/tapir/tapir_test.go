package tapir

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/tpcc"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

func build(t *testing.T, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	return buildSeeded(seed, func(shard int, st *store.Store) {
		for i := 0; i < 8; i++ {
			st.Seed(fmt.Sprintf("t%d-%d", shard, i), txn.EncodeInt(0))
		}
	})
}

func buildSeeded(seed int64, seedShard func(shard int, st *store.Store)) (*simnet.Sim, *System) {
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed:         seedShard,
		ExecCost:     time.Microsecond,
	})
	sys.Start()
	return sim, sys
}

func tx(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("t0-%d", i)).On(0),
		txn.IncrementPiece(fmt.Sprintf("t1-%d", i)).On(1),
	)}
}

// TestFastPathOneWRTT: an uncontended transaction commits on the fast path
// in one wide-area round trip to the farthest replica.
func TestFastPathOneWRTT(t *testing.T) {
	sim, sys := build(t, 1)
	var res *txn.Result
	var lat time.Duration
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(0, tx(0), func(r txn.Result) { res, lat = &r, sim.Now()-s })
	})
	sim.Run(3 * time.Second)
	if res == nil || !res.OK {
		t.Fatal("no commit")
	}
	if !res.FastPath {
		t.Fatal("uncontended prepare should take the fast path")
	}
	// Farthest replica from SC is Brazil (62 ms OWD): ~124 ms RTT.
	if lat < 120*time.Millisecond || lat > 180*time.Millisecond {
		t.Fatalf("fast-path latency %v, want ~1 WRTT (124ms)", lat)
	}
}

// TestConflictAborts: simultaneous conflicting prepares make replicas vote
// against the later arrival; it aborts and retries.
func TestConflictAborts(t *testing.T) {
	sim, sys := build(t, 2)
	hot := func() *txn.Txn {
		return &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("t0-0").On(0),
			txn.IncrementPiece("t1-0").On(1),
		)}
	}
	committed, retried := 0, 0
	for i := 0; i < 10; i++ {
		i := i
		sim.At(time.Duration(50+i)*time.Millisecond, func() {
			sys.Submit(0, hot(), func(r txn.Result) {
				if r.OK {
					committed++
					retried += r.Retries
				}
			})
		})
	}
	sim.Run(10 * time.Second)
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	if retried == 0 {
		t.Fatal("conflicting prepares should force aborts and retries")
	}
	// Exactly-once on commits.
	if got := txn.DecodeInt(sys.Store(0, 0).Get("t0-0")); got != int64(committed) {
		t.Fatalf("t0-0 = %d, want %d", got, committed)
	}
}

func TestReplicasConverge(t *testing.T) {
	t.Run("tpcc", replicasConvergeOnTPCC)
	sim, sys := build(t, 3)
	n := 6
	done := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*40)*time.Millisecond, func() {
			sys.Submit(0, tx(i), func(r txn.Result) {
				if r.OK {
					done++
				}
			})
		})
	}
	sim.Run(5 * time.Second)
	if done != n {
		t.Fatalf("committed %d of %d", done, n)
	}
	for sh := 0; sh < 2; sh++ {
		for rep := 1; rep < 3; rep++ {
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("t%d-%d", sh, i)
				if string(sys.Store(sh, 0).Get(k)) != string(sys.Store(sh, rep).Get(k)) {
					t.Fatalf("shard %d replica %d diverges on %s", sh, rep, k)
				}
			}
		}
	}
}

// replicasConvergeOnTPCC runs every TPC-C transaction type, one transaction at
// a time: the rows New-Order and Delivery insert are written by name, so each
// replica numbers them itself, and Order-Status reads them back by name.
func replicasConvergeOnTPCC(t *testing.T) {
	g := tpcc.New(tpcc.Config{Shards: 2, Warehouses: 2, Districts: 2, Customers: 3, Items: 40})
	sim, sys := buildSeeded(4, g.Seed)
	seeded := sys.Store(0, 0).Len()
	rng := rand.New(rand.NewSource(4))
	var jobs []workload.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, workload.Job{T: g.NewOrder(rng)})
	}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, workload.Job{I: g.Payment(rng)}, workload.Job{I: g.OrderStatus(rng)},
			workload.Job{I: g.Delivery(rng)}, workload.Job{T: g.StockLevel(rng)})
	}
	committed, ordersRead := 0, 0
	var next func()
	var stage func(ic *txn.Interactive, i int, prev *txn.Result)
	submit := func(tx *txn.Txn, then func(*txn.Result)) {
		// Let the decision reach every replica before the next prepare does.
		sim.After(200*time.Millisecond, func() {
			sys.Submit(0, tx, func(r txn.Result) {
				if !r.OK {
					t.Errorf("%s aborted", tx.Label)
				}
				committed++
				if tx.Label == "orderstatus-o" {
					for _, out := range r.PerShard {
						if len(out.Ret) == 16 && txn.DecodeInt(out.Ret) > 0 {
							ordersRead++
						}
					}
				}
				then(&r)
			})
		})
	}
	stage = func(ic *txn.Interactive, i int, prev *txn.Result) {
		switch tx, done, abort := ic.Next(i, prev); {
		case abort:
			stage(ic, 0, nil)
		case done:
			next()
		default:
			submit(tx, func(r *txn.Result) { stage(ic, i+1, r) })
		}
	}
	next = func() {
		if len(jobs) == 0 {
			return
		}
		job := jobs[0]
		jobs = jobs[1:]
		if job.I != nil {
			stage(job.I, 0, nil)
			return
		}
		submit(job.T, func(*txn.Result) { next() })
	}
	next()
	sim.Run(10 * time.Minute)
	if len(jobs) > 0 || committed < 40+8*4 || ordersRead == 0 {
		t.Fatalf("%d jobs left, %d transactions committed, %d inserted orders read back", len(jobs), committed, ordersRead)
	}
	for sh := 0; sh < 2; sh++ {
		lead := sys.Store(sh, 0)
		if lead.Len() <= seeded {
			t.Errorf("shard %d holds no inserted row", sh)
		}
		for rep := 1; rep < 3; rep++ {
			if fol := sys.Store(sh, rep); !lead.Equal(fol) || !fol.Equal(lead) {
				t.Errorf("shard %d replica %d diverges from replica 0", sh, rep)
			}
		}
	}
}
