package lockocc

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/tpcc"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// TestMain arms pool.Check for every deployment the tests build, the reboot
// tests' included: putting a reply or a record back twice, or into a list it
// did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

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
	var stage func(ic txn.Interactive, i int, prev *txn.Result)
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
	stage = func(ic txn.Interactive, i int, prev *txn.Result) {
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

// TestMessagesComeHome drains a lossless contended run of each flavor: three
// coordinators submit increments over a few hot keys, so some prepares are
// wounded or refused and retried. Every vote and acknowledgement was
// delivered, so every one is back on the list of the leader that sent it;
// every attempt's record is back on its coordinator's list and every prepare
// record on its leader's. Each committed increment reports the value it wrote,
// so on every key the values reported are 1 to its commit count, each once: a
// vote the coordinator read after putting it back would report another
// transaction's value.
func TestMessagesComeHome(t *testing.T) {
	for _, cc := range []CC{TwoPL, OCC} {
		t.Run(cc.String(), func(t *testing.T) {
			sim := simnet.NewSim(9)
			sys := New(Spec{
				CC: cc, Shards: 2, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0)),
				ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
				CoordRegions: []simnet.Region{0, 1, 2},
				Seed: func(shard int, st *store.Store) {
					for i := 0; i < 3; i++ {
						st.Seed(fmt.Sprintf("x%d-%d", shard, i), txn.EncodeInt(0))
					}
				},
				ExecCost: time.Microsecond, MaxRetries: 100, RetryBackoff: 5 * time.Millisecond,
				VoteTimeout: time.Second,
			})
			const n = 60
			committed, retries := 0, 0
			reported := make([][2]map[int64]int, 3)
			for i := 0; i < n; i++ {
				sim.At(time.Duration(50+2*i)*time.Millisecond, func() {
					k := i % 3
					tx := &txn.Txn{Pieces: txn.ByShard(
						txn.IncrementPiece(fmt.Sprintf("x0-%d", k)).On(0),
						txn.IncrementPiece(fmt.Sprintf("x1-%d", k)).On(1),
					)}
					sys.Submit(i%3, tx, func(r txn.Result) {
						if !r.OK {
							return
						}
						committed++
						retries += r.Retries
						for _, out := range r.PerShard {
							if reported[k][out.Shard] == nil {
								reported[k][out.Shard] = map[int64]int{}
							}
							reported[k][out.Shard][txn.DecodeInt(out.Ret)]++
						}
					})
				})
			}
			for sim.Step() {
			}
			if committed != n || retries == 0 {
				t.Fatalf("%d of %d committed after %d retries: want all, after some", committed, n, retries)
			}
			for k, shards := range reported {
				for sh, vals := range shards {
					want := txn.DecodeInt(sys.Store(sh).Get(fmt.Sprintf("x%d-%d", sh, k)))
					for v := int64(1); v <= want; v++ {
						if vals[v] != 1 {
							t.Errorf("x%d-%d: value %d reported %d times", sh, k, v, vals[v])
						}
					}
					if len(vals) != int(want) {
						t.Errorf("x%d-%d: %d values reported for %d commits", sh, k, len(vals), want)
					}
				}
			}
			for sh, reps := range sys.servers {
				s := reps[0]
				if s.votes.News == 0 || s.votes.News != s.votes.Idle() {
					t.Errorf("leader %d votes: %d allocated, %d back", sh, s.votes.News, s.votes.Idle())
				}
				if s.acks.News == 0 || s.acks.News != s.acks.Idle() {
					t.Errorf("leader %d acks: %d allocated, %d back", sh, s.acks.News, s.acks.Idle())
				}
				if s.pend.News != s.pend.Idle() || len(s.pending) != 0 || s.lt.Outstanding() != 0 {
					t.Errorf("leader %d: %d prepare records allocated, %d back, %d pending, %d keys locked",
						sh, s.pend.News, s.pend.Idle(), len(s.pending), s.lt.Outstanding())
				}
			}
			for c, co := range sys.coords {
				if co.tab.News() != co.tab.Idle() || co.tab.InFlight() != 0 {
					t.Errorf("coordinator %d: %d records allocated, %d back, %d in flight", c, co.tab.News(), co.tab.Idle(), co.tab.InFlight())
				}
			}
		})
	}
}

// TestKeptWriteSetsDoNotAlias: the write sets commit records keep are copies
// carved out of the leader's write arena, each cap-limited, so appending to
// one reallocates it instead of overwriting the next, and the buffer they were
// copied from can be refilled. A set larger than a chunk is kept whole.
func TestKeptWriteSetsDoNotAlias(t *testing.T) {
	s := server{arena: pool.NewArena[store.Write](writeChunk)}
	buf := []store.Write{{Name: "a"}}
	a := s.keep(buf)
	b := s.keep([]store.Write{{Name: "b"}, {Name: "c"}})
	buf[0].Name = "refilled"
	if a[0].Name != "a" || cap(a) != 1 || cap(b) != 2 {
		t.Fatalf("kept %q with cap %d and a set with cap %d: want cap-limited copies", a[0].Name, cap(a), cap(b))
	}
	_ = append(a, store.Write{Name: "x"})
	if b[0].Name != "b" {
		t.Fatalf("appending to one kept write set overwrote the next: %q", b[0].Name)
	}
	ws := make([]store.Write, writeChunk+1)
	ws[writeChunk].Name = "last"
	if big := s.keep(ws); len(big) != writeChunk+1 || big[writeChunk].Name != "last" {
		t.Fatalf("a %d-write set was kept as %d writes", writeChunk+1, len(big))
	}
}

// TestSteadyCommitAllocatesPerTransaction: once the freelists are warm, a
// two-shard transaction on three replicas a shard allocates per transaction
// and not per message: nothing but amortised growth. The multicast request
// and commit payloads and the result list handed to the caller are carved
// from the coordinator's arenas, and the commit records, their write sets, the
// Paxos logs and the maps that index applied transactions grow.
func TestSteadyCommitAllocatesPerTransaction(t *testing.T) {
	pool.Check = false // its id maps allocate
	defer func() { pool.Check = true }()
	for _, cc := range []CC{TwoPL, OCC} {
		t.Run(cc.String(), func(t *testing.T) {
			sim := simnet.NewSim(1)
			sys := New(Spec{
				CC: cc, Shards: 2, F: 1,
				Net:          simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{{0}}, 0)}),
				ServerRegion: func(_, _ int) simnet.Region { return 0 },
				CoordRegions: []simnet.Region{0},
				Seed: func(shard int, st *store.Store) {
					for i := 0; i < 8; i++ {
						st.Seed(fmt.Sprintf("t%d-%d", shard, i), txn.EncodeInt(0))
					}
				},
				VoteTimeout: time.Second,
			})
			txns := make([]*txn.Txn, 1200)
			for i := range txns {
				k := i % 8
				txns[i] = &txn.Txn{Pieces: txn.ByShard(
					txn.IncrementPieceID(fmt.Sprintf("t0-%d", k), txn.KeyID(k)).On(0),
					txn.IncrementPieceID(fmt.Sprintf("t1-%d", k), txn.KeyID(k)).On(1),
				)}
			}
			next, committed := 0, 0
			done := func(r txn.Result) {
				if r.OK {
					committed++
				}
			}
			step := func() {
				sys.Submit(0, txns[next], done)
				next++
				for sim.Step() {
				}
			}
			for i := 0; i < 100; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(1000, step)
			if committed != next {
				t.Fatalf("%d submitted, %d committed", next, committed)
			}
			if got := txn.DecodeInt(sys.servers[1][2].st.Get("t1-7")); got != int64(next/8) {
				t.Fatalf("t1-7 = %d on a follower after %d transactions", got, next)
			}
			t.Logf("%.2f allocations per transaction", allocs)
			if allocs > 1 {
				t.Fatalf("%.2f allocations per transaction, want the amortised growth alone", allocs)
			}
		})
	}
}
