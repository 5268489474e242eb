package tpcc

import (
	"math/rand"
	"slices"
	"testing"

	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestExecutingAPieceAllocatesNothing: once warm, a replica executes every
// kind of piece the generator builds without allocating, through ExecuteID and
// through ExecuteBuffered, so the executor's dispatch through its interface
// costs nothing either. The kinds: New-Order's home piece and a piece of remote
// lines on a shard of its own; Payment's one piece and its warehouse-only and
// customer-only pieces; both Order-Status stages; both Delivery stages;
// Stock-Level. Several write integers above txn.SmallInts (the customer's last
// order, year-to-date sums) and build 16-byte results, so executions take bytes
// of the store's: the arenas' chunks, one per 128 values, are what
// testing.AllocsPerRun's floor of the mean absorbs.
func TestExecutingAPieceAllocatesNothing(t *testing.T) {
	cfg := TestConfig(2)
	g := New(cfg)
	sts := seededStores(g, cfg.Shards)
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	type kind struct {
		name string
		p    *txn.Piece
	}
	var kinds []kind
	have := func(name string) bool {
		return slices.ContainsFunc(kinds, func(k kind) bool { return k.name == name })
	}
	add := func(name string, p *txn.Piece) {
		if !have(name) {
			kinds = append(kinds, kind{name, p})
		}
	}

	// New-Orders, committed, so customers have orders and districts have
	// orders to deliver.
	for i := 0; i < 2000 && !(have("New-Order home piece") && have("New-Order remote piece")); i++ {
		tx := g.NewOrder(rng)
		for j := range tx.Pieces {
			p := &tx.Pieces[j]
			if slices.Contains(p.WriteIDs, txn.NoKeyID) {
				add("New-Order home piece", p)
			} else {
				add("New-Order remote piece", p)
			}
		}
		execAll(t, sts, tx, &seq)
	}
	// Payments whose checks pass against the stores: each execution below is
	// revoked or never applied, so the balance stays the one stage 0 read.
	for i := 0; i < 2000 && !(have("Payment, one piece") && have("Payment, warehouse piece")); i++ {
		pay := g.Payment(rng)
		t0, _, _ := pay.Next(0, nil)
		t1, _, _ := pay.Next(1, execAll(t, sts, t0, &seq))
		if len(t1.Pieces) == 1 {
			add("Payment, one piece", &t1.Pieces[0])
			continue
		}
		cust := t1.Pos(t0.Pieces[0].Shard())
		add("Payment, warehouse piece", &t1.Pieces[cust^1])
		add("Payment, customer piece", &t1.Pieces[cust])
	}
	for i := 0; i < 2000 && !have("Order-Status, order"); i++ {
		os := g.OrderStatus(rng)
		t0, _, _ := os.Next(0, nil)
		add("Order-Status, customer", &t0.Pieces[0])
		if t1, done, _ := os.Next(1, execAll(t, sts, t0, &seq)); !done {
			add("Order-Status, order", &t1.Pieces[0])
		}
	}
	for i := 0; i < 2000 && !have("Delivery, run"); i++ {
		dl := g.Delivery(rng)
		t0, _, _ := dl.Next(0, nil)
		add("Delivery, scan", &t0.Pieces[0])
		if t1, done, _ := dl.Next(1, execAll(t, sts, t0, &seq)); !done {
			add("Delivery, run", &t1.Pieces[0])
		}
	}
	add("Stock-Level", &g.StockLevel(rng).Pieces[0])
	if len(kinds) != 10 {
		t.Fatalf("drew %d kinds of piece, want 10: %v", len(kinds), kinds)
	}

	var writes []store.Write
	for _, k := range kinds {
		if k.p.Exec == nil {
			t.Fatalf("%s: no executor", k.name)
		}
		st := sts[k.p.Shard()]
		if k.name == "Payment, one piece" {
			if ret, _ := st.ExecuteBuffered(nil, k.p); txn.DecodeInt(ret[8:]) == -1 {
				t.Fatal("the Payment's check failed on a quiescent store")
			}
		}
		type path struct {
			name string
			run  func()
		}
		paths := []path{
			{"ExecuteID and Revoke", func() {
				seq++
				id := txn.ID{Coord: 1, Seq: seq}
				st.ExecuteID(id, txn.Timestamp{}, k.p)
				st.Revoke(id)
			}},
			{"ExecuteBuffered", func() {
				_, writes = st.ExecuteBuffered(writes[:0], k.p)
			}},
		}
		if k.name == "New-Order home piece" {
			// Its writes also reach the store: the other kinds leave it as it
			// was, so a Payment's check keeps passing.
			paths = append(paths, path{"ExecuteID and Commit", func() {
				seq++
				id := txn.ID{Coord: 1, Seq: seq}
				st.ExecuteID(id, txn.Timestamp{}, k.p)
				st.Commit(id)
				st.Forget(id)
			}}, path{"ExecuteBuffered and Apply", func() {
				_, writes = st.ExecuteBuffered(writes[:0], k.p)
				st.Apply(writes)
			}})
		}
		for _, c := range paths {
			c.run() // warm: the inserted rows' names are interned once
			if allocs := testing.AllocsPerRun(1000, c.run); allocs != 0 {
				t.Errorf("%s, %s: %.0f allocations per execution, want 0", k.name, c.name, allocs)
			}
		}
	}
}
