package coord

import (
	"os"
	"testing"

	"tiga/internal/pool"
	"tiga/internal/txn"
)

func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

type rec struct{ n int }

func TestIdsFollowOneSequence(t *testing.T) {
	tb := New[rec](3)
	var a, b, c txn.Txn
	tb.Begin(&a)
	tb.Mint(&b) // a local read: an id and no record
	tb.Begin(&c)
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
	tb := New[rec](1)
	var a, b txn.Txn
	p := tb.Begin(&a)
	p.n = 7
	if tb.Get(a.ID) != p {
		t.Fatal("Get does not return the record Begin filed")
	}
	tb.End(a.ID, p)
	if tb.Get(a.ID) != nil || tb.InFlight() != 0 {
		t.Fatalf("after End: Get = %v, %d in flight; want nil and none", tb.Get(a.ID), tb.InFlight())
	}
	if tb.News() != 1 || tb.Idle() != 1 {
		t.Fatalf("News %d, Idle %d after one attempt; want 1 and 1", tb.News(), tb.Idle())
	}
	if q := tb.Begin(&b); q != p || b.ID == a.ID {
		t.Fatalf("second attempt: record reused %v, ids %v and %v; want the same record under a new id", q == p, a.ID, b.ID)
	}
	if tb.News() != 1 || tb.Idle() != 0 {
		t.Fatalf("News %d, Idle %d with one attempt in flight; want 1 and 0", tb.News(), tb.Idle())
	}
}

func TestDoubleEndPanics(t *testing.T) {
	tb := New[rec](1)
	var a txn.Txn
	p := tb.Begin(&a)
	tb.End(a.ID, p)
	defer func() {
		if recover() == nil {
			t.Fatal("a second End of one record did not panic")
		}
	}()
	tb.End(a.ID, p)
}
