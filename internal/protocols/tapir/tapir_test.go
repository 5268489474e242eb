package tapir

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

// TestMain arms pool.Check for every deployment the tests build: putting a
// reply or a record back twice, or into a list it did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

func build(t *testing.T, seed int64, opts ...func(*Spec)) (*simnet.Sim, *System) {
	t.Helper()
	return buildSeeded(seed, seedKeys, opts...)
}

func seedKeys(shard int, st *store.Store) {
	for i := 0; i < 8; i++ {
		st.Seed(fmt.Sprintf("t%d-%d", shard, i), txn.EncodeInt(0))
	}
}

func buildSeeded(seed int64, seedShard func(shard int, st *store.Store), opts ...func(*Spec)) (*simnet.Sim, *System) {
	sim := simnet.NewSim(seed)
	spec := Spec{
		Shards: 2, F: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0)),
		ServerRegion: func(_, r int) simnet.Region { return simnet.Region(r) },
		CoordRegions: []simnet.Region{0},
		Seed:         seedShard,
		ExecCost:     time.Microsecond,
		MaxRetries:   5, RetryBackoff: 20 * time.Millisecond,
	}
	for _, o := range opts {
		o(&spec)
	}
	sys := New(spec)
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
	var stage func(ic txn.Interactive, i int, prev *txn.Result)
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

// TestMessagesComeHome submits conflicting transactions from two regions to a
// lossless deployment and drains it: replicas see them in different orders,
// so some abort and retry and some take the slow path. Every reply was
// delivered, so every one is back on the list of the replica that sent it,
// and every finished attempt's record is back on its coordinator's list —
// nothing leaked, nothing was put back twice.
func TestMessagesComeHome(t *testing.T) {
	sim, sys := build(t, 5, func(s *Spec) {
		s.CoordRegions = []simnet.Region{0, 2}
		s.MaxRetries = 100
	})
	const n = 40
	committed, retries, slow := 0, 0, 0
	for i := 0; i < n; i++ {
		tx := tx(i % 3) // replicas see overlapping ones in different orders
		sim.At(time.Duration(50+i)*time.Millisecond, func() {
			sys.Submit(i%2, tx, func(r txn.Result) {
				if r.OK {
					committed++
					retries += r.Retries
					if !r.FastPath {
						slow++
					}
				}
			})
		})
	}
	for sim.Step() {
	}
	if committed != n || retries == 0 || slow == 0 {
		t.Fatalf("%d of %d committed, %d retries, %d on the slow path: want all, after some of each", committed, n, retries, slow)
	}
	for s, reps := range sys.replicas {
		for r, rp := range reps {
			if rp.prepareReps.News == 0 || rp.prepareReps.News != rp.prepareReps.Idle() {
				t.Errorf("replica %d/%d prepare replies: %d allocated, %d back", s, r, rp.prepareReps.News, rp.prepareReps.Idle())
			}
			if rp.decideAcks.News != rp.decideAcks.Idle() {
				t.Errorf("replica %d/%d decision acks: %d allocated, %d back", s, r, rp.decideAcks.News, rp.decideAcks.Idle())
			}
		}
	}
	for c, co := range sys.coords {
		if co.tab.News() != co.tab.Idle() || co.tab.InFlight() != 0 {
			t.Errorf("coordinator %d: %d records allocated, %d back, %d in flight", c, co.tab.News(), co.tab.Idle(), co.tab.InFlight())
		}
	}
}

// TestSteadyCommitAllocatesPerTransaction: once the freelists are warm, a
// two-shard transaction on three replicas a shard allocates per transaction
// and not per replica or per vote: nothing but amortised growth. The
// multicast PREPARE and decision payloads and the result list handed to the
// caller are carved from the coordinator's arenas, and the maps that index
// prepared and applied transactions grow.
func TestSteadyCommitAllocatesPerTransaction(t *testing.T) {
	pool.Check = false // its id maps allocate
	defer func() { pool.Check = true }()
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{{0}}, 0)})
	sys := New(Spec{
		Shards: 2, F: 1, Net: net,
		ServerRegion: func(_, _ int) simnet.Region { return 0 },
		CoordRegions: []simnet.Region{0},
		Seed:         seedKeys,
	})
	txns := make([]*txn.Txn, 1200)
	for i := range txns {
		k := i % 8
		txns[i] = &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPieceID(fmt.Sprintf("t0-%d", k), txn.KeyID(k)).On(0),
			txn.IncrementPieceID(fmt.Sprintf("t1-%d", k), txn.KeyID(k)).On(1),
		)}
	}
	next, committed, fast := 0, 0, 0
	done := func(r txn.Result) {
		committed++
		if r.FastPath {
			fast++
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
	if committed != next || fast != next {
		t.Fatalf("%d submitted, %d committed, %d on the fast path", next, committed, fast)
	}
	if got := txn.DecodeInt(sys.Store(1, 2).Get("t1-7")); got != int64(next/8) {
		t.Fatalf("t1-7 = %d on a follower after %d transactions", got, next)
	}
	t.Logf("%.2f allocations per transaction", allocs)
	if allocs > 1 {
		t.Fatalf("%.2f allocations per transaction, want the amortised growth alone", allocs)
	}
}

// silent builds a deployment whose replicas never answer, so a test plays
// their votes and acknowledgements to coordinator 0 itself.
func silent(t *testing.T, opts ...func(*Spec)) (*simnet.Sim, *System) {
	sim, sys := build(t, 1, append(opts, func(s *Spec) {
		s.ServerRegion = func(_, r int) simnet.Region { return simnet.Region(r % 3) }
	})...)
	for _, reps := range sys.replicas {
		for _, rp := range reps {
			rp.node.SetHandler(func(simnet.NodeID, simnet.Message) {})
		}
	}
	return sim, sys
}

// vote hands coordinator 0 replica rep of shard's PREPARE reply, drawn from
// the replica's list as the replica draws it.
func vote(sys *System, shard, rep int, id txn.ID, try int, ok bool, ret string) {
	rp := sys.replicas[shard][rep]
	m := rp.prepareReps.Get()
	*m = prepareRep{src: rp, ID: id, Try: try, OK: ok}
	if ok {
		m.Ret = []byte(ret)
	}
	sys.coords[0].handle(rp.node.ID(), m)
}

// ack hands coordinator 0 replica rep of shard's slow-path acknowledgement.
func ack(sys *System, shard, rep int, id txn.ID, try int) {
	rp := sys.replicas[shard][rep]
	m := rp.decideAcks.Get()
	*m = decideAck{src: rp, ID: id, Try: try}
	sys.coords[0].handle(rp.node.ID(), m)
}

// submitted submits a two-shard transaction on coordinator 0 and returns its
// id and the results reported for it.
func submitted(sys *System) (txn.ID, *[]txn.Result) {
	var got []txn.Result
	t := tx(0)
	sys.Submit(0, t, func(r txn.Result) { got = append(got, r) })
	return t.ID, &got
}

// undecided fails t unless transaction id still waits for votes at
// coordinator 0 with nothing reported.
func undecided(t *testing.T, sys *System, id txn.ID, got *[]txn.Result) {
	t.Helper()
	if p := sys.coords[0].tab.Get(id); p == nil || p.decided || len(*got) != 0 {
		t.Fatalf("transaction %v decided early (results %+v)", id, *got)
	}
}

// TestVoteTally plays votes and acknowledgements to a coordinator in the
// orders the tally must get right; F is 1 (a super quorum is all three
// replicas, F+1 is two) unless a case says otherwise.
func TestVoteTally(t *testing.T) {
	t.Run("a duplicate vote counts once", func(t *testing.T) {
		_, sys := silent(t)
		id, got := submitted(sys)
		vote(sys, 0, 0, id, 0, false, "")
		vote(sys, 0, 0, id, 0, false, "") // not two NOs
		vote(sys, 0, 1, id, 0, true, "a1")
		vote(sys, 0, 2, id, 0, true, "a2") // shard 0: a classic quorum
		vote(sys, 1, 1, id, 0, true, "b1")
		vote(sys, 1, 1, id, 0, true, "b1") // not two OKs
		vote(sys, 1, 2, id, 0, true, "b2")
		undecided(t, sys, id, got)
		vote(sys, 1, 0, id, 0, true, "b0") // shard 1: a super quorum
		if p := sys.coords[0].tab.Get(id); p == nil || !p.decided || !p.slow || len(*got) != 0 {
			t.Fatalf("want a slow-path commit waiting for acknowledgements, have %+v", *got)
		}
	})
	t.Run("a replica's second vote replaces its first", func(t *testing.T) {
		_, sys := silent(t)
		id, got := submitted(sys)
		vote(sys, 0, 0, id, 0, true, "a0")
		vote(sys, 0, 0, id, 0, false, "")
		undecided(t, sys, id, got)
		vote(sys, 0, 1, id, 0, false, "")
		if sys.coords[0].tab.Get(id) != nil {
			t.Fatal("two NOs on shard 0 did not abort")
		}
	})
	t.Run("F+1 NOs abort, and a stale attempt's votes are ignored", func(t *testing.T) {
		sim, sys := silent(t, func(s *Spec) { s.MaxRetries = 1 })
		id, got := submitted(sys)
		vote(sys, 1, 1, id, 0, true, "b1")
		vote(sys, 0, 0, id, 0, false, "")
		undecided(t, sys, id, got)
		vote(sys, 0, 2, id, 0, false, "")
		if sys.coords[0].tab.InFlight() != 0 || len(*got) != 0 {
			t.Fatalf("after F+1 NOs: %d in flight, results %+v; want a retry pending", sys.coords[0].tab.InFlight(), *got)
		}
		sim.Run(sim.Now() + time.Second) // past the backoff
		// The retry is the only attempt in flight, filed under the
		// coordinator's next id.
		retry := txn.ID{Coord: id.Coord, Seq: id.Seq + 1}
		if p := sys.coords[0].tab.Get(retry); sys.coords[0].tab.InFlight() != 1 || p == nil || p.Retries != 1 {
			t.Fatalf("%d in flight, record under %v: %+v; want only the retry there, at attempt 1", sys.coords[0].tab.InFlight(), retry, p)
		}
		for s := 0; s < 2; s++ {
			for r := 0; r < 3; r++ {
				vote(sys, s, r, id, 0, true, "stale")    // the first attempt's id
				vote(sys, s, r, retry, 0, true, "stale") // the new id, the old try
			}
		}
		undecided(t, sys, retry, got)
		if p := sys.coords[0].tab.Get(retry); p.voted[0] != 0 || p.voted[1] != 0 {
			t.Fatalf("stale votes were tallied: %b %b", p.voted[0], p.voted[1])
		}
		vote(sys, 1, 0, retry, 1, false, "")
		vote(sys, 1, 2, retry, 1, false, "")
		if len(*got) != 1 || !(*got)[0].Aborted || (*got)[0].Retries != 1 || sys.coords[0].tab.InFlight() != 0 {
			t.Fatalf("after the last attempt's F+1 NOs: results %+v, %d in flight", *got, sys.coords[0].tab.InFlight())
		}
	})
	t.Run("a classic quorum completes on F+1 acks per shard", func(t *testing.T) {
		_, sys := silent(t)
		id, got := submitted(sys)
		for _, v := range []struct {
			shard, rep int
			ok         bool
		}{{0, 2, false}, {0, 1, true}, {1, 0, false}, {1, 2, true}, {0, 0, true}, {1, 1, true}} {
			vote(sys, v.shard, v.rep, id, 0, v.ok, fmt.Sprintf("%c%d", 'a'+v.shard, v.rep))
		}
		vote(sys, 1, 0, id, 0, true, "late") // after the decision
		for _, a := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 2}} {
			ack(sys, a[0], a[1], id, 0)
		}
		ack(sys, 1, 0, id, 1) // another attempt's
		if len(*got) != 0 {
			t.Fatalf("reported %+v with one distinct ack on shard 1", *got)
		}
		ack(sys, 1, 0, id, 0)
		if len(*got) != 1 {
			t.Fatalf("results %+v after F+1 acks on each shard", *got)
		}
		r := (*got)[0]
		if !r.OK || r.FastPath || r.Retries != 0 || len(r.PerShard) != 2 ||
			string(r.PerShard[0].Ret) != "a0" || string(r.PerShard[1].Ret) != "b1" {
			t.Fatalf("result %+v, want a slow-path commit returning a0 and b1", r)
		}
		if sys.coords[0].tab.InFlight() != 0 {
			t.Fatal("the committed transaction is still in flight")
		}
	})
	t.Run("decide takes the lowest-numbered OK replica's result", func(t *testing.T) {
		_, sys := silent(t, func(s *Spec) { s.F = 2 }) // five replicas, a super quorum of four
		id, got := submitted(sys)
		for _, r := range []int{4, 3, 1} {
			vote(sys, 0, r, id, 0, true, fmt.Sprint("a", r))
			vote(sys, 1, 4-r, id, 0, true, fmt.Sprint("b", 4-r))
		}
		vote(sys, 0, 0, id, 0, false, "")
		vote(sys, 1, 4, id, 0, false, "")
		undecided(t, sys, id, got)
		vote(sys, 0, 2, id, 0, true, "a2")
		vote(sys, 1, 2, id, 0, true, "b2")
		if len(*got) != 1 {
			t.Fatalf("results %+v after a super quorum on each shard", *got)
		}
		r := (*got)[0]
		if !r.OK || !r.FastPath || string(r.PerShard[0].Ret) != "a1" || string(r.PerShard[1].Ret) != "b0" {
			t.Fatalf("result %+v, want a fast-path commit returning a1 and b0", r)
		}
	})
}
