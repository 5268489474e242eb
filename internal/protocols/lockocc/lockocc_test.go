package lockocc

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

func build(t *testing.T, cc CC, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		CC: cc, Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0, 1},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 10; i++ {
				st.Seed(fmt.Sprintf("x%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	return sim, sys
}

func crossTxn(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("x0-%d", i)).On(0),
		txn.IncrementPiece(fmt.Sprintf("x1-%d", i)).On(1),
	)}
}

func TestCommitAndReplicate(t *testing.T) {
	for _, cc := range []CC{TwoPL, OCC} {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			t.Run("tpcc", func(t *testing.T) { replicateTPCC(t, cc, false) })
			t.Run("tpcc-local-reads", func(t *testing.T) { replicateTPCC(t, cc, true) })
			sim, sys := build(t, cc, 1)
			committed := 0
			for i := 0; i < 8; i++ {
				i := i
				sim.At(time.Duration(50+i*40)*time.Millisecond, func() {
					sys.Submit(i%2, crossTxn(i), func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			sim.Run(5 * time.Second)
			if committed != 8 {
				t.Fatalf("committed %d of 8", committed)
			}
			// Paxos replicated the writes to followers of each shard.
			for sh := 0; sh < 2; sh++ {
				for rep := 1; rep < 3; rep++ {
					lead, fol := sys.servers[sh][0].st, sys.servers[sh][rep].st
					for i := 0; i < 8; i++ {
						k := fmt.Sprintf("x%d-%d", sh, i)
						if string(lead.Get(k)) != string(fol.Get(k)) {
							t.Fatalf("shard %d replica %d diverges on %s", sh, rep, k)
						}
					}
				}
			}
		})
	}
}

// replicateTPCC runs every TPC-C transaction type, one transaction at a time:
// the rows New-Order and Delivery insert are written by name, so the commit
// record carries their names and each follower numbers them itself, and
// Order-Status reads them back by name. With local reads on, the stores retain
// versions and the records are installed at their commit timestamps.
func replicateTPCC(t *testing.T, cc CC, localReads bool) {
	g := tpcc.New(tpcc.Config{Shards: 2, Warehouses: 2, Districts: 2, Customers: 3, Items: 40})
	sim := simnet.NewSim(5)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		CC: cc, Shards: 2, F: 1, Net: net, LocalReads: localReads,
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed:         g.Seed,
		ExecCost:     time.Microsecond,
	})
	seeded, seededVersions := sys.Store(0).Len(), sys.Store(0).Versions()
	rng := rand.New(rand.NewSource(5))
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
	sim.At(50*time.Millisecond, next)
	sim.Run(10 * time.Minute)
	if len(jobs) > 0 || committed < 40+8*4 || ordersRead == 0 {
		t.Fatalf("%d jobs left, %d transactions committed, %d inserted orders read back", len(jobs), committed, ordersRead)
	}
	for sh := 0; sh < 2; sh++ {
		lead := sys.servers[sh][0].st
		if lead.Len() <= seeded || localReads != (lead.Versions() > lead.Len()) || (sh == 0 && lead.Versions() <= seededVersions) {
			t.Errorf("shard %d: %d keys (%d seeded) in %d versions", sh, lead.Len(), seeded, lead.Versions())
		}
		for rep := 1; rep < 3; rep++ {
			fol := sys.servers[sh][rep].st
			if !lead.Equal(fol) || !fol.Equal(lead) || lead.Versions() != fol.Versions() {
				t.Errorf("shard %d replica %d diverges from the leader", sh, rep)
			}
		}
	}
}

func TestCommitLatencyIsLayered(t *testing.T) {
	// The layered design costs ~3 WRTTs: req + vote (1), commit + Paxos
	// (1.5), reply (0.5). The coordinator is co-located with the leaders
	// (region 0), so a WRTT here is to the nearest majority (~110 ms).
	sim, sys := build(t, TwoPL, 2)
	var lat time.Duration
	sim.At(50*time.Millisecond, func() {
		start := sim.Now()
		sys.Submit(0, crossTxn(0), func(r txn.Result) { lat = sim.Now() - start })
	})
	sim.Run(3 * time.Second)
	if lat < 100*time.Millisecond {
		t.Fatalf("2PL+Paxos latency %v implausibly low (no consensus round?)", lat)
	}
}

func TestContentionAborts(t *testing.T) {
	// Firing many conflicting transactions simultaneously wounds/invalidates
	// some; the retry budget is exhausted for a few, yielding client aborts.
	for _, cc := range []CC{TwoPL, OCC} {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			sim := simnet.NewSim(3)
			net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
			sys := New(Spec{
				CC: cc, Shards: 2, F: 1, Net: net,
				ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
				CoordRegions: []simnet.Region{0, 1, 2},
				Seed: func(shard int, st *store.Store) {
					st.Seed(fmt.Sprintf("hot%d", shard), txn.EncodeInt(0))
				},
				ExecCost: time.Microsecond, MaxRetries: 2, RetryBackoff: 5 * time.Millisecond,
			})
			committed, aborted := 0, 0
			hot := func() *txn.Txn {
				return &txn.Txn{Pieces: txn.ByShard(
					txn.IncrementPiece("hot0").On(0),
					txn.IncrementPiece("hot1").On(1),
				)}
			}
			for i := 0; i < 30; i++ {
				i := i
				sim.At(time.Duration(50+i)*time.Millisecond, func() {
					sys.Submit(i%3, hot(), func(r txn.Result) {
						if r.OK {
							committed++
						} else {
							aborted++
						}
					})
				})
			}
			sim.Run(10 * time.Second)
			if committed+aborted != 30 {
				t.Fatalf("lost transactions: %d+%d != 30", committed, aborted)
			}
			if committed == 0 {
				t.Fatal("livelock: nothing committed")
			}
			// Committed increments are applied exactly once.
			got := txn.DecodeInt(sys.Store(0).Get("hot0"))
			if got != int64(committed) {
				t.Fatalf("hot0 = %d, want %d commits", got, committed)
			}
		})
	}
}

// TestRefusedPrepareReleasesWhatItLocked: an OCC prepare refused on its
// second key has already locked its first. The refusal must release it, or
// the key refuses every later prepare, the same transaction's retries
// included.
func TestRefusedPrepareReleasesWhatItLocked(t *testing.T) {
	sim := simnet.NewSim(7)
	sys := New(Spec{
		CC: OCC, Shards: 1, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)),
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed: func(_ int, st *store.Store) {
			st.Seed("a", txn.EncodeInt(0))
			st.Seed("b", txn.EncodeInt(0))
		},
		ExecCost:   time.Microsecond,
		MaxRetries: 4, RetryBackoff: 25 * time.Millisecond,
	})
	committed := 0
	submit := func(at time.Duration, keys ...string) {
		sim.At(at, func() {
			tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece(keys...).On(0))}
			sys.Submit(0, tx, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	submit(50*time.Millisecond, "b")
	submit(51*time.Millisecond, "a", "b") // locks a, is refused on b
	submit(time.Second, "a")
	sim.Run(5 * time.Second)
	a, b := txn.DecodeInt(sys.Store(0).Get("a")), txn.DecodeInt(sys.Store(0).Get("b"))
	if committed != 3 || a != 2 || b != 2 {
		t.Fatalf("%d of 3 committed, a = %d, b = %d; want 3, 2, 2", committed, a, b)
	}
	if n := sys.servers[0][0].lt.Outstanding(); n != 0 {
		t.Fatalf("%d keys still locked after every transaction finished", n)
	}
}
