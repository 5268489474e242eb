package tpcc

import (
	"math/rand"
	"testing"

	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestExecutingAPieceAllocatesNothing: once warm, a replica executes a
// New-Order piece and a Payment piece without allocating, through ExecuteID
// and through ExecuteBuffered. Both write integers above txn.SmallInts (the
// customer's last order, year-to-date sums) and build 16-byte results, so
// every execution takes bytes of the store's: the arenas' chunks, one per
// 128 values, are what testing.AllocsPerRun's floor of the mean absorbs.
func TestExecutingAPieceAllocatesNothing(t *testing.T) {
	g := New(TestConfig(1))
	sts := seededStores(g, 1)
	st := sts[0]
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	newOrder := &g.NewOrder(rng).Pieces[0]
	if newOrder.Exec == nil || len(newOrder.WriteSet) < 8 {
		t.Fatalf("drew a New-Order piece without the home district's writes: %v", newOrder.WriteSet)
	}
	// A Payment's second stage whose check passes against st: it is revoked or
	// never applied after every execution, so the balance stays the one read.
	pay := g.Payment(rng)
	t0, _, _ := pay.Next(0, nil)
	t1, _, _ := pay.Next(1, execAll(t, sts, t0, &seq))
	payment := &t1.Pieces[0]
	if ret, _ := st.ExecuteBuffered(nil, payment); txn.DecodeInt(ret[8:]) == -1 {
		t.Fatal("the Payment's check failed on a quiescent store")
	}

	var writes []store.Write
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"New-Order, ExecuteID and Commit", func() {
			seq++
			id := txn.ID{Coord: 1, Seq: seq}
			st.ExecuteID(id, txn.Timestamp{}, newOrder)
			st.Commit(id)
			st.Forget(id)
		}},
		{"New-Order, ExecuteBuffered and Apply", func() {
			_, writes = st.ExecuteBuffered(writes[:0], newOrder)
			st.Apply(writes)
		}},
		{"Payment, ExecuteID and Revoke", func() {
			seq++
			id := txn.ID{Coord: 1, Seq: seq}
			st.ExecuteID(id, txn.Timestamp{}, payment)
			st.Revoke(id)
		}},
		{"Payment, ExecuteBuffered", func() {
			_, writes = st.ExecuteBuffered(writes[:0], payment)
		}},
	} {
		c.run() // warm: the inserted rows' names are interned once
		if allocs := testing.AllocsPerRun(1000, c.run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per execution, want 0", c.name, allocs)
		}
	}
}
