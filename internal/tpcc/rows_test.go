package tpcc

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tiga/internal/txn"
)

// insertedRows returns the names tx declares written without an id: the rows
// it inserts.
func insertedRows(tx *txn.Txn) []string {
	var rows []string
	for i := range tx.Pieces {
		p := &tx.Pieces[i]
		for j, id := range p.WriteIDs {
			if id == txn.NoKeyID {
				rows = append(rows, p.WriteSet[j])
			}
		}
	}
	return rows
}

// TestCarvedRowNamesStayValid guards the unsafe.String carve of inserted rows'
// names (Gen.rowNames): the names one draw of each inserting kind declares —
// New-Order's order and total rows, Payment's history row, Delivery's carrier
// rows — read the same after the generator has carved more than two chunks of
// row bytes past them and the collector has run, and no two names of any live
// draw share a byte.
func TestCarvedRowNamesStayValid(t *testing.T) {
	g := New(TestConfig(1))
	rng := rand.New(rand.NewSource(8))
	ret := func(vals ...int64) *txn.Result {
		var b []byte
		for _, v := range vals {
			b = txn.AppendInt(b, v)
		}
		return &txn.Result{OK: true, PerShard: []txn.ShardRet{{Shard: 0, Ret: b}}}
	}
	var heads []int64
	for d := 0; d < g.cfg.Districts; d++ {
		heads = append(heads, 0, 5)
	}
	scan, balance := ret(heads...), ret(-1000)
	// draw returns the rows one draw of each kind inserts.
	draw := func() (order, pay, carriers []string) {
		order = insertedRows(g.NewOrder(rng))
		p := g.Payment(rng)
		p.Next(0, nil)
		t1, _, _ := p.Next(1, balance)
		d := g.Delivery(rng)
		d.Next(0, nil)
		t2, _, _ := d.Next(1, scan)
		return order, insertedRows(t1), insertedRows(t2)
	}

	order, pay, carriers := draw()
	if len(order) != 2 || !strings.HasPrefix(order[0], "o:") || !strings.HasPrefix(order[1], "o_total:") ||
		len(pay) != 1 || !strings.HasPrefix(pay[0], "h:") || len(carriers) != g.cfg.Districts {
		t.Fatalf("the first draws insert %q, %q and %q", order, pay, carriers)
	}
	kept := slices.Concat(order, pay, carriers)
	want := make([]string, len(kept))
	for i, name := range kept {
		want[i] = strings.Clone(name)
	}
	all, carved := slices.Clone(kept), 0
	for _, name := range kept {
		carved += len(name)
	}
	// The zero pool.Arena[byte] carves 8 KB chunks: more than three chunks'
	// worth of names fills at least two after the kept ones.
	for carved < 3*8<<10 {
		o, p, c := draw()
		for _, name := range slices.Concat(o, p, c) {
			all = append(all, name)
			carved += len(name)
		}
	}
	runtime.GC()
	for i, name := range kept {
		if name != want[i] {
			t.Errorf("kept name %d reads %q, was %q", i, name, want[i])
		}
	}
	// No two names share a byte: sorted by where their bytes start, each ends
	// before the next begins.
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	slices.SortFunc(all, func(a, b string) int { return cmp.Compare(addr(a), addr(b)) })
	for i := 1; i < len(all); i++ {
		if addr(all[i]) < addr(all[i-1])+uintptr(len(all[i-1])) {
			t.Fatalf("names %q and %q share bytes", all[i-1], all[i])
		}
	}
}
