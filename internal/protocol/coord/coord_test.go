package coord

import (
	"os"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

type rec struct {
	Attempt
	n int
}

// table returns coordinator idx's table on a one-region network, and the
// simulation that runs its timers.
func table(idx int32) (*simnet.Sim, *Table[rec, *rec]) {
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{{0}}, 0)})
	return sim, New[rec](idx, net.AddNode(0, nil))
}

// pieces returns a transaction with one piece on each of shards.
func pieces(shards ...int) *txn.Txn {
	var ps []txn.Piece
	for _, s := range shards {
		ps = append(ps, txn.IncrementPiece("k").On(s))
	}
	return &txn.Txn{Pieces: txn.ByShard(ps...)}
}

func TestIdsFollowOneSequence(t *testing.T) {
	_, tb := table(3)
	var a, b, c txn.Txn
	tb.Begin(&a, nil)
	tb.Mint(&b) // a local read: an id and no record
	tb.Begin(&c, nil)
	for i, got := range []txn.ID{a.ID, b.ID, c.ID} {
		if want := (txn.ID{Coord: 3, Seq: uint64(i + 1)}); got != want {
			t.Errorf("id %d = %v, want %v", i, got, want)
		}
	}
	if tb.InFlight() != 2 || tb.Get(b.ID) != nil {
		t.Fatalf("%d in flight, minted id filed: %v; want two records and none for the minted id", tb.InFlight(), tb.Get(b.ID))
	}
}

func TestEndForgetsAndRecycles(t *testing.T) {
	_, tb := table(1)
	var a, b txn.Txn
	p := tb.Begin(&a, nil)
	p.n = 7
	if tb.Get(a.ID) != p {
		t.Fatal("Get does not return the record Begin filed")
	}
	tb.end(p)
	if tb.Get(a.ID) != nil || tb.InFlight() != 0 {
		t.Fatalf("after end: Get = %v, %d in flight; want nil and none", tb.Get(a.ID), tb.InFlight())
	}
	if tb.News() != 1 || tb.Idle() != 1 {
		t.Fatalf("News %d, Idle %d after one attempt; want 1 and 1", tb.News(), tb.Idle())
	}
	if q := tb.Begin(&b, nil); q != p || b.ID == a.ID {
		t.Fatalf("second attempt: record reused %v, ids %v and %v; want the same record under a new id", q == p, a.ID, b.ID)
	}
	if tb.News() != 1 || tb.Idle() != 0 {
		t.Fatalf("News %d, Idle %d with one attempt in flight; want 1 and 0", tb.News(), tb.Idle())
	}
}

func TestDoubleEndPanics(t *testing.T) {
	_, tb := table(1)
	var a txn.Txn
	p := tb.Begin(&a, nil)
	tb.end(p)
	defer func() {
		if recover() == nil {
			t.Fatal("a second end of one record did not panic")
		}
	}()
	tb.end(p)
}

// TestFinishEndsBeforeCallback: a callback that begins the next transaction
// from inside Finish gets the recycled record under a fresh id, with nothing
// of the finished attempt in its Attempt, and the finished one is forgotten.
func TestFinishEndsBeforeCallback(t *testing.T) {
	_, tb := table(1)
	first, next := pieces(0, 1), pieces(2)
	var got txn.Result
	var q *rec
	p := tb.Begin(first, func(r txn.Result) {
		got = r
		q = tb.Begin(next, nil)
	})
	tb.Fold(p, 0, []byte("a"))
	tb.Fold(p, 1, []byte("b"))
	tb.Finish(p, txn.Result{OK: true, FastPath: true})
	if q != p || next.ID == first.ID {
		t.Fatalf("the callback's Begin: record reused %v, ids %v and %v; want the finished record under a new id", q == p, first.ID, next.ID)
	}
	if q.T != next || q.Retries != 0 || q.results != nil || q.done != nil {
		t.Fatalf("the next attempt starts with %+v; want only its own transaction", q.Attempt)
	}
	if tb.Get(first.ID) != nil || tb.Get(next.ID) != q || tb.InFlight() != 1 {
		t.Fatalf("after Finish: %d in flight, the finished id filed %v; want only the next attempt", tb.InFlight(), tb.Get(first.ID) != nil)
	}
	if !got.OK || !got.FastPath || len(got.PerShard) != 2 || string(got.PerShard[1].Ret) != "b" {
		t.Fatalf("reported %+v, want the commit with both folded returns", got)
	}
}

// TestFoldCompletesAtEveryPiece: Fold reports completion at the last piece's
// first return and not before, keeps the returns in shard order, and a shard
// that reports again replaces its entry.
func TestFoldCompletesAtEveryPiece(t *testing.T) {
	_, tb := table(1)
	p := tb.Begin(pieces(1, 4, 7), nil)
	for i, f := range []struct {
		shard int
		ret   string
		done  bool
	}{{7, "c", false}, {1, "a", false}, {7, "c2", false}, {4, "b", true}, {1, "a2", true}} {
		if got := tb.Fold(p, f.shard, []byte(f.ret)); got != f.done {
			t.Fatalf("fold %d (shard %d): complete %v, want %v", i, f.shard, got, f.done)
		}
	}
	want := []txn.ShardRet{{Shard: 1, Ret: []byte("a2")}, {Shard: 4, Ret: []byte("b")}, {Shard: 7, Ret: []byte("c2")}}
	if len(p.results) != len(want) {
		t.Fatalf("folded %+v, want %+v", p.results, want)
	}
	for i := range want {
		if p.results[i].Shard != want[i].Shard || string(p.results[i].Ret) != string(want[i].Ret) {
			t.Fatalf("folded %+v, want %+v", p.results, want)
		}
	}
}

// TestRetryBacksOffThenAborts: with a budget of two retries and a backoff of
// 10 ms, the first abort resends 10 ms later and the second 20 ms after that,
// each under a fresh id, and the third reports the abort with two retries.
func TestRetryBacksOffThenAborts(t *testing.T) {
	sim, tb := table(1)
	const backoff = 10 * time.Millisecond
	var sent []time.Duration
	var ids []txn.ID
	tb.Retrying(2, backoff, func(p *rec) {
		sent = append(sent, sim.Now())
		ids = append(ids, p.T.ID)
	})
	var got []txn.Result
	tx := pieces(0)
	p := tb.Begin(tx, func(r txn.Result) { got = append(got, r) })
	first := tx.ID
	tb.Retry(p, 0)
	if tb.Get(first) != nil || tb.InFlight() != 0 || len(got) != 0 {
		t.Fatalf("during the backoff: %d in flight, results %+v; want nothing", tb.InFlight(), got)
	}
	sim.Run(sim.Now() + time.Second)
	tb.Retry(tb.Get(tx.ID), 0)
	sim.Run(sim.Now() + time.Second)
	if len(sent) != 2 || sent[0] != backoff || sent[1] != time.Second+2*backoff {
		t.Fatalf("resent at %v, want %v and %v", sent, backoff, time.Second+2*backoff)
	}
	if ids[0] == first || ids[1] == ids[0] || tb.Get(ids[1]).Retries != 2 {
		t.Fatalf("resent under %v after %v; want two fresh ids, the last at retry 2", ids, first)
	}
	tb.Retry(tb.Get(tx.ID), 0)
	sim.Run(sim.Now() + time.Second)
	if len(got) != 1 || !got[0].Aborted || got[0].OK || got[0].Retries != 2 || len(sent) != 2 {
		t.Fatalf("after the last attempt: results %+v, %d resends; want one abort after 2 retries", got, len(sent))
	}
	if tb.InFlight() != 0 || tb.Idle() != tb.News() {
		t.Fatalf("%d in flight, %d of %d records back; want none and all", tb.InFlight(), tb.Idle(), tb.News())
	}
}

// TestArmOfAnEndedAttemptNeverFires: an arm left by an attempt that finished
// or retried never fires on the record's next attempt, also when the callback
// of Finish begins that attempt on the same record at once. The first arm is
// taken at gen 0, so a Begin that reset gen to 0 would revive it.
func TestArmOfAnEndedAttemptNeverFires(t *testing.T) {
	sim, tb := table(1)
	var fired []txn.ID
	tb.OnTimeout(func(p *rec) { fired = append(fired, p.T.ID) })
	tb.Retrying(1, 50*time.Millisecond, func(*rec) {})
	first, next := pieces(0), pieces(1)
	var q *rec
	p := tb.Begin(first, func(txn.Result) { q = tb.Begin(next, nil) })
	tb.Arm(p, 10*time.Millisecond)
	tb.Finish(p, txn.Result{OK: true})
	if q != p {
		t.Fatal("the callback's Begin did not reuse the finished record")
	}
	tb.Arm(q, 30*time.Millisecond)
	sim.Run(20 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("the finished attempt's arm fired on %v", fired)
	}
	sim.Run(40 * time.Millisecond)
	if len(fired) != 1 || fired[0] != next.ID {
		t.Fatalf("fired on %v, want the live attempt's own arm once, on %v", fired, next.ID)
	}
	// An arm left by Retry never fires on the resent attempt.
	tb.Arm(q, 10*time.Millisecond)
	tb.Retry(q, 0)
	sim.Run(200 * time.Millisecond)
	if len(fired) != 1 || tb.Get(next.ID) != q {
		t.Fatalf("after the retry: fired on %v, resent %v; want no more firings and the attempt resent", fired, tb.Get(next.ID) == q)
	}
}

// TestOldestSkipsEndedAttempts: Oldest is the oldest id in flight when
// attempts finish out of order, an attempt waiting out a Retry's backoff is not
// in flight, and its resend is in flight under its fresh id.
func TestOldestSkipsEndedAttempts(t *testing.T) {
	sim, tb := table(2)
	tb.Retrying(1, 10*time.Millisecond, func(*rec) {})
	if got := tb.Oldest(); got != (txn.ID{}) {
		t.Fatalf("Oldest of an empty table = %v, want the zero id", got)
	}
	var a, b, c, d txn.Txn
	pa, pb, pc := tb.Begin(&a, func(txn.Result) {}), tb.Begin(&b, func(txn.Result) {}), tb.Begin(&c, func(txn.Result) {})
	step := func(name string, want txn.ID) {
		t.Helper()
		if got := tb.Oldest(); got != want {
			t.Fatalf("after %s: Oldest = %v, want %v", name, got, want)
		}
	}
	tb.Finish(pb, txn.Result{OK: true})
	step("the middle one finishes", a.ID)
	tb.Retry(pa, 0)
	step("the oldest retries", c.ID)
	tb.Begin(&d, func(txn.Result) {})
	sim.Run(time.Second)
	if tb.Get(a.ID) != pa || a.ID.Seq <= d.ID.Seq {
		t.Fatalf("the retried attempt was resent under %v, want a fresh id after %v", a.ID, d.ID)
	}
	step("the retried one is resent", c.ID)
	tb.Finish(pc, txn.Result{OK: true})
	step("the oldest finishes", d.ID)
	tb.Finish(tb.Get(d.ID), txn.Result{OK: true})
	step("all but the resent one finish", a.ID)
	tb.Finish(pa, txn.Result{OK: true})
	step("every attempt ends", txn.ID{})
}

// TestInOrderIsASnapshot: a walk over InOrder visits exactly the attempts in
// flight when it began, in sequence order, also when finishing one of them
// begins the next attempt on its record during the walk.
func TestInOrderIsASnapshot(t *testing.T) {
	_, tb := table(1)
	var txns [3]txn.Txn
	var next [3]txn.Txn
	for i := range txns {
		tb.Begin(&txns[i], func(txn.Result) { tb.Begin(&next[i], nil) })
	}
	tb.Finish(tb.Get(txns[1].ID), txn.Result{OK: true}) // out of order: next[1] is newer than txns[2]
	want := []txn.ID{txns[0].ID, txns[2].ID, next[1].ID}
	var got []txn.ID
	for _, id := range tb.InOrder() {
		got = append(got, id)
		if p := tb.Get(id); p != nil && p.done != nil {
			tb.Finish(p, txn.Result{OK: true})
		}
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("walked %v, want %v", got, want)
	}
	if tb.InFlight() != 3 || tb.Get(next[0].ID) == nil || tb.Get(next[2].ID) == nil {
		t.Fatalf("%d in flight after the walk, want the three attempts it began and the one before", tb.InFlight())
	}
}

// TestFileMintsNothing: File files a record under the id its owner minted and
// draws nothing from the table's sequence, whose next Mint continues it.
func TestFileMintsNothing(t *testing.T) {
	_, tb := table(4)
	var a, read, b txn.Txn
	tb.Mint(&a)
	read.ID = txn.ID{Coord: 9, Seq: 70}
	p := tb.File(&read, nil)
	tb.Mint(&b)
	if read.ID != (txn.ID{Coord: 9, Seq: 70}) || tb.Get(read.ID) != p {
		t.Fatalf("File changed the id to %v or did not file under it", read.ID)
	}
	if a.ID != (txn.ID{Coord: 4, Seq: 1}) || b.ID != (txn.ID{Coord: 4, Seq: 2}) {
		t.Fatalf("Mints around a File gave %v and %v, want {4 1} and {4 2}", a.ID, b.ID)
	}
}
