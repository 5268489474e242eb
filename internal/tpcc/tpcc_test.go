package tpcc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tiga/internal/store"
	"tiga/internal/txn"
)

func seededStores(g *Gen, shards int) []*store.Store {
	sts := make([]*store.Store, shards)
	for s := range sts {
		sts[s] = store.New()
		g.Seed(s, sts[s])
	}
	return sts
}

func execAll(t *testing.T, sts []*store.Store, tx *txn.Txn, seq *uint64) *txn.Result {
	t.Helper()
	*seq++
	res := &txn.Result{OK: true, PerShard: make([]txn.ShardRet, 0, len(tx.Pieces))}
	for i := range tx.Pieces {
		p := &tx.Pieces[i]
		sh := p.Shard()
		ret := sts[sh].ExecuteID(txn.ID{Coord: 9, Seq: *seq}, txn.Timestamp{}, p)
		res.PerShard = append(res.PerShard, txn.ShardRet{Shard: sh, Ret: ret})
		sts[sh].Commit(txn.ID{Coord: 9, Seq: *seq})
	}
	return res
}

func TestMixDistribution(t *testing.T) {
	g := New(TestConfig(3))
	rng := rand.New(rand.NewSource(1))
	counts := make(map[string]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next(rng).Label]++
	}
	check := func(label string, want float64) {
		got := float64(counts[label]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s fraction %.3f, want ~%.2f", label, got, want)
		}
	}
	check("neworder", 0.45)
	check("payment", 0.43)
	check("orderstatus", 0.04)
	check("delivery", 0.04)
	check("stocklevel", 0.04)
}

func TestNewOrderSemantics(t *testing.T) {
	g := New(TestConfig(3))
	sts := seededStores(g, 3)
	rng := rand.New(rand.NewSource(2))
	var seq uint64
	for i := 0; i < 50; i++ {
		tx := g.NewOrder(rng)
		if len(tx.Pieces) < 1 {
			t.Fatal("neworder must have pieces")
		}
		for _, p := range tx.Pieces {
			if len(p.WriteSet) == 0 {
				t.Fatal("neworder pieces write")
			}
		}
		execAll(t, sts, tx, &seq)
	}
	// d_next_o_id advanced: sum across districts == initial + #orders.
	var totalNext int64
	districts := 0
	for w := 1; w <= 3; w++ {
		sh := g.ShardOf(w)
		for d := 1; d <= g.cfg.Districts; d++ {
			totalNext += txn.DecodeInt(sts[sh].Get(kDNextOID(w, d)))
			districts++
		}
	}
	if totalNext != int64(districts)+50 {
		t.Fatalf("next_o_id sum %d, want %d", totalNext, districts+50)
	}
}

func TestNewOrderDeclaredSetsCoverAccesses(t *testing.T) {
	g := New(TestConfig(3))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tx := g.NewOrder(rng)
		for i := range tx.Pieces {
			p := &tx.Pieces[i]
			sh := p.Shard()
			declared := make(map[string]bool)
			for _, k := range p.ReadSet {
				declared[k] = true
			}
			for _, k := range p.WriteSet {
				declared[k] = true
			}
			tr := &trackingKV{declared: declared, t: t, shard: sh, names: g.tab(sh)}
			p.Run(tr)
		}
	}
}

type trackingKV struct {
	declared map[string]bool
	t        *testing.T
	shard    int
	names    []string // the shard's key names in id order
	vals     map[string][]byte
}

func (k *trackingKV) GetID(id txn.KeyID) []byte    { return k.Get(k.names[id]) }
func (k *trackingKV) PutID(id txn.KeyID, v []byte) { k.Put(k.names[id], v) }
func (k *trackingKV) Bytes(n int) []byte           { return make([]byte, 0, n) }

func (k *trackingKV) Get(key string) []byte {
	if !k.declared[key] {
		k.t.Fatalf("undeclared read of %q on shard %d", key, k.shard)
	}
	if k.vals == nil {
		return txn.EncodeInt(100)
	}
	return k.vals[key]
}

func (k *trackingKV) Put(key string, v []byte) {
	if !k.declared[key] {
		k.t.Fatalf("undeclared write of %q on shard %d", key, k.shard)
	}
	if k.vals == nil {
		k.vals = make(map[string][]byte)
	}
	k.vals[key] = v
}

func TestPaymentChainMovesMoney(t *testing.T) {
	g := New(TestConfig(3))
	sts := seededStores(g, 3)
	rng := rand.New(rand.NewSource(4))
	var seq uint64
	ic := g.Payment(rng)
	// Drive the chain by hand.
	var prev *txn.Result
	stage := 0
	for {
		tx, done, abort := ic.Next(stage, prev)
		if abort {
			t.Fatal("unexpected abort on quiescent store")
		}
		if done {
			break
		}
		prev = execAll(t, sts, tx, &seq)
		stage++
	}
	// Some w_ytd must have increased.
	var ytd int64
	for w := 1; w <= 3; w++ {
		ytd += txn.DecodeInt(sts[g.ShardOf(w)].Get(kWYtd(w)))
	}
	if ytd <= 0 {
		t.Fatalf("w_ytd sum %d after payment", ytd)
	}
}

func TestPaymentValidationAbortsOnIntervening(t *testing.T) {
	g := New(TestConfig(1))
	sts := seededStores(g, 1)
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	ic := g.Payment(rng)
	tx0, _, _ := ic.Next(0, nil)
	prev := execAll(t, sts, tx0, &seq)
	// Intervene: another payment writes the same customer's balance.
	// Find the read key of stage 0 and bump it.
	for _, p := range tx0.Pieces {
		for _, k := range p.ReadSet {
			cur := txn.DecodeInt(sts[0].Get(k))
			sts[0].Seed(k, txn.EncodeInt(cur-777))
		}
	}
	tx1, _, _ := ic.Next(1, prev)
	// One warehouse: home and customer share the shard, so stage 1 is one
	// piece, and it must not pay the warehouse before its check fails.
	if len(tx1.Pieces) != 1 {
		t.Fatalf("stage 1 has %d pieces, want the one same-shard piece", len(tx1.Pieces))
	}
	paid := func() (wYtd, dYtd int64, history []byte) {
		for d := 1; d <= g.cfg.Districts; d++ {
			dYtd += txn.DecodeInt(sts[0].Get(kDYtd(1, d)))
		}
		for _, k := range tx1.Pieces[0].WriteSet {
			if strings.HasPrefix(k, "h:") {
				history = sts[0].Get(k)
			}
		}
		return txn.DecodeInt(sts[0].Get(kWYtd(1))), dYtd, history
	}
	w0, d0, h0 := paid()
	prev1 := execAll(t, sts, tx1, &seq)
	_, done, abort := ic.Next(2, prev1)
	if !abort {
		t.Fatalf("stale balance must abort the chain (done=%v)", done)
	}
	if w1, d1, h1 := paid(); w1 != w0 || d1 != d0 || h1 != nil || h0 != nil {
		t.Fatalf("the aborted payment paid: w_ytd %d -> %d, sum of d_ytd %d -> %d, history row %v -> %v",
			w0, w1, d0, d1, h0, h1)
	}
}

func TestDeliveryAdvancesHeads(t *testing.T) {
	g := New(TestConfig(1))
	sts := seededStores(g, 1)
	rng := rand.New(rand.NewSource(6))
	var seq uint64
	// Create some orders first.
	for i := 0; i < 30; i++ {
		execAll(t, sts, g.NewOrder(rng), &seq)
	}
	ic := g.Delivery(rng)
	var prev *txn.Result
	stage := 0
	for {
		tx, done, abort := ic.Next(stage, prev)
		if abort {
			t.Fatal("delivery abort")
		}
		if done {
			break
		}
		prev = execAll(t, sts, tx, &seq)
		stage++
	}
	var heads int64
	for d := 1; d <= g.cfg.Districts; d++ {
		heads += txn.DecodeInt(sts[0].Get(kNoHead(1, d)))
	}
	if heads == 0 {
		t.Fatal("delivery advanced no district heads despite pending orders")
	}
}

func TestStockLevelReadOnly(t *testing.T) {
	g := New(TestConfig(2))
	rng := rand.New(rand.NewSource(7))
	tx := g.StockLevel(rng)
	if !tx.ReadOnly {
		t.Fatal("stocklevel must be read-only")
	}
	for _, p := range tx.Pieces {
		if len(p.WriteSet) != 0 {
			t.Fatal("stocklevel writes")
		}
		if len(p.ReadSet) != 21 { // district cursor + 20 stock keys
			t.Fatalf("read set size %d", len(p.ReadSet))
		}
	}
}

func TestOrderStatusFollowsLastOrder(t *testing.T) {
	g := New(TestConfig(1))
	sts := seededStores(g, 1)
	rng := rand.New(rand.NewSource(8))
	var seq uint64
	for i := 0; i < 40; i++ {
		execAll(t, sts, g.NewOrder(rng), &seq)
	}
	// Run many order-status chains; all must terminate without abort.
	for i := 0; i < 20; i++ {
		ic := g.OrderStatus(rng)
		var prev *txn.Result
		stage := 0
		for {
			tx, done, abort := ic.Next(stage, prev)
			if abort {
				t.Fatal("orderstatus abort")
			}
			if done {
				break
			}
			prev = execAll(t, sts, tx, &seq)
			stage++
		}
	}
}

func TestShardOf(t *testing.T) {
	g := New(TestConfig(3))
	if g.ShardOf(1) != 0 || g.ShardOf(2) != 1 || g.ShardOf(4) != 0 {
		t.Fatal("warehouse sharding")
	}
}

// key formats one name by itself, as the generator once formatted each seeded
// column's: the reference the carved names are checked against.
func key(prefix string, parts ...int64) string {
	return string(appendKey(make([]byte, 0, 40), prefix, parts...))
}

func kWTax(w int) string         { return key("w_tax", int64(w)) }
func kWYtd(w int) string         { return key("w_ytd", int64(w)) }
func kDTax(w, d int) string      { return key("d_tax", int64(w), int64(d)) }
func kDYtd(w, d int) string      { return key("d_ytd", int64(w), int64(d)) }
func kDNextOID(w, d int) string  { return key("d_next_o_id", int64(w), int64(d)) }
func kNoHead(w, d int) string    { return key("no_head", int64(w), int64(d)) }
func kCBal(w, d, c int) string   { return key("c_bal", int64(w), int64(d), int64(c)) }
func kCYtd(w, d, c int) string   { return key("c_ytd", int64(w), int64(d), int64(c)) }
func kCCnt(w, d, c int) string   { return key("c_cnt", int64(w), int64(d), int64(c)) }
func kCDisc(w, d, c int) string  { return key("c_disc", int64(w), int64(d), int64(c)) }
func kCLastO(w, d, c int) string { return key("c_last_o", int64(w), int64(d), int64(c)) }
func kIPrice(w, i int) string    { return key("i_price", int64(w), int64(i)) }
func kSQty(w, i int) string      { return key("s_qty", int64(w), int64(i)) }
func kSYtd(w, i int) string      { return key("s_ytd", int64(w), int64(i)) }
func kSCnt(w, i int) string      { return key("s_cnt", int64(w), int64(i)) }

// eachColumn calls f with the id the layout gives every seeded column and
// the name and initial value the specification (the k* formatters and the
// pre-population rules) gives it.
func eachColumn(g *Gen, f func(shard int, id txn.KeyID, name string, val int64)) {
	for w := 1; w <= g.cfg.Warehouses; w++ {
		sh := g.ShardOf(w)
		f(sh, g.wID(w)+colWTax, kWTax(w), 7)
		f(sh, g.wID(w)+colWYtd, kWYtd(w), 0)
		for d := 1; d <= g.cfg.Districts; d++ {
			f(sh, g.dID(w, d)+colDTax, kDTax(w, d), 8)
			f(sh, g.dID(w, d)+colDYtd, kDYtd(w, d), 0)
			f(sh, g.dID(w, d)+colDNextOID, kDNextOID(w, d), 1)
			f(sh, g.dID(w, d)+colNoHead, kNoHead(w, d), 0)
			for c := 1; c <= g.cfg.Customers; c++ {
				f(sh, g.cID(w, d, c)+colCBal, kCBal(w, d, c), -1000)
				f(sh, g.cID(w, d, c)+colCYtd, kCYtd(w, d, c), 1000)
				f(sh, g.cID(w, d, c)+colCCnt, kCCnt(w, d, c), 1)
				f(sh, g.cID(w, d, c)+colCDisc, kCDisc(w, d, c), 5)
				f(sh, g.cID(w, d, c)+colCLast, kCLastO(w, d, c), 0)
			}
		}
		for i := 1; i <= g.cfg.Items; i++ {
			f(sh, g.iID(w, i)+colIPrice, kIPrice(w, i), int64(100+i%900))
			f(sh, g.iID(w, i)+colSQty, kSQty(w, i), 100)
			f(sh, g.iID(w, i)+colSYtd, kSYtd(w, i), 0)
			f(sh, g.iID(w, i)+colSCnt, kSCnt(w, i), 0)
		}
	}
}

// The closed-form layout is the seeding order: after Seed every row is
// interned, id i of a shard's store is the column the layout puts at i, named
// as its formatter names it and holding its specified initial value. Two
// warehouses share a shard in the second configuration.
func TestSeedInternsTheLayout(t *testing.T) {
	for _, cfg := range []Config{TestConfig(3), {Shards: 2, Warehouses: 5, Districts: 3, Customers: 7, Items: 1100}} {
		g := New(cfg)
		sts := seededStores(g, cfg.Shards)
		rows := make([]int, cfg.Shards)
		eachColumn(g, func(sh int, id txn.KeyID, name string, val int64) {
			rows[sh]++
			if int(id) >= sts[sh].Interned() {
				t.Fatalf("%s: id %d beyond the %d interned keys of shard %d", name, id, sts[sh].Interned(), sh)
			}
			if got, ok := sts[sh].Lookup(name); !ok || got != id {
				t.Fatalf("shard %d interned %q as %d (%v), the layout says %d", sh, name, got, ok, id)
			}
			if got := g.tab(sh)[id]; got != name {
				t.Fatalf("shard %d: name table entry %d is %q, want %q", sh, id, got, name)
			}
			if got := txn.DecodeInt(sts[sh].GetID(id)); got != val || txn.DecodeInt(sts[sh].Get(name)) != val {
				t.Fatalf("%s seeded with %d, want %d", name, got, val)
			}
		})
		for sh, st := range sts {
			if st.Interned() != rows[sh] || st.Len() != rows[sh] {
				t.Errorf("shard %d: %d interned, %d present, want %d rows", sh, st.Interned(), st.Len(), rows[sh])
			}
		}
	}
}

// TestSeededNamesAreCarved: a shard's name table, cut from one buffer, holds
// in id order exactly the names the k* formatters give its columns one by one,
// and building it costs the same few allocations however many columns the
// shard has.
func TestSeededNamesAreCarved(t *testing.T) {
	small := Config{Shards: 2, Warehouses: 5, Districts: 3, Customers: 7, Items: 1100}
	g := New(small)
	want := make([][]string, small.Shards)
	eachColumn(g, func(sh int, id txn.KeyID, name string, _ int64) {
		for len(want[sh]) <= int(id) {
			want[sh] = append(want[sh], "")
		}
		want[sh][id] = name
	})
	for sh := range want {
		if got := g.names(sh); !slices.Equal(got, want[sh]) {
			t.Fatalf("shard %d: %d carved names differ from the %d formatted one by one", sh, len(got), len(want[sh]))
		}
	}
	if got := New(Config{Shards: 4, Warehouses: 2, Districts: 1, Customers: 1, Items: 1}).names(3); got == nil || len(got) != 0 {
		t.Fatalf("a shard without warehouses got names %v, want an empty non-nil table", got)
	}
	big := small
	big.Warehouses, big.Customers, big.Items = 9, 60, 5000
	for _, cfg := range []Config{small, big} {
		g := New(cfg)
		// The buffer, the table, and eachName's stack buffer, which a pass
		// hands to a func value and so moves to the heap, once a pass.
		if allocs := testing.AllocsPerRun(3, func() { g.names(0) }); allocs > 4 {
			t.Errorf("building %d names cost %v allocations, want at most 4", len(g.names(0)), allocs)
		}
	}
}

// Next must not depend on Seed having built the name tables (the benchmark's
// generator rows draw from a generator that never seeds a store).
func TestNextBeforeSeed(t *testing.T) {
	g := New(TestConfig(3))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		job := g.Next(rng)
		tx := job.T
		if job.I != nil {
			tx, _, _ = job.I.Next(0, nil)
		}
		for i := range tx.Pieces {
			p := &tx.Pieces[i]
			sh := p.Shard()
			if len(p.ReadSet) == 0 || len(p.ReadIDs) != len(p.ReadSet) || len(p.WriteIDs) != len(p.WriteSet) {
				t.Fatalf("%s piece on shard %d: %d/%d read ids, %d/%d write ids", job.Label, sh,
					len(p.ReadIDs), len(p.ReadSet), len(p.WriteIDs), len(p.WriteSet))
			}
		}
	}
}

// execBuffered is execAll the way lockocc, Tapir and Detock execute: every
// piece against a buffered view, its write set applied afterwards.
func execBuffered(sts []*store.Store, tx *txn.Txn) *txn.Result {
	res := &txn.Result{OK: true, PerShard: make([]txn.ShardRet, 0, len(tx.Pieces))}
	for i := range tx.Pieces {
		p := &tx.Pieces[i]
		sh := p.Shard()
		ret, ws := sts[sh].ExecuteBuffered(nil, p)
		sts[sh].Apply(ws)
		res.PerShard = append(res.PerShard, txn.ShardRet{Shard: sh, Ret: ret})
	}
	return res
}

// The two ways a piece is executed are one behaviour: the same seeded job
// stream through ExecuteID + Commit (Tiga, Calvin+, Janus, NCC) and through
// ExecuteBuffered + Apply (lockocc, Tapir, Detock) gives byte-identical piece
// results at every stage and equal stores, for every transaction type — a
// merged home+stock New-Order, a same-shard (merged) Payment, a Payment chain
// that fails validation and restarts, Order-Status on an inserted order, a
// Delivery that assigns carriers, Stock-Level. (The test keeps the name it had
// when the two paths were the executors' id body and name body.)
func TestIDAndNamePathsAgree(t *testing.T) {
	cfg := Config{Shards: 3, Warehouses: 3, Districts: 2, Customers: 5, Items: 60}
	type side struct {
		g   *Gen
		rng *rand.Rand
		sts []*store.Store
		seq uint64
	}
	mk := func() *side {
		g := New(cfg)
		return &side{g: g, rng: rand.New(rand.NewSource(12)), sts: seededStores(g, cfg.Shards)}
	}
	opt, buf := mk(), mk()
	covered := map[string]int{}
	// run executes the same transaction on both sides and returns the
	// optimistic side's result after checking the buffered side produced the
	// same bytes.
	run := func(label string, a, b *txn.Txn) *txn.Result {
		t.Helper()
		ra := &txn.Result{OK: true, PerShard: make([]txn.ShardRet, 0, len(a.Pieces))}
		opt.seq++
		for i := range a.Pieces {
			p := &a.Pieces[i]
			sh := p.Shard()
			ret := opt.sts[sh].ExecuteID(txn.ID{Coord: 9, Seq: opt.seq}, txn.Timestamp{}, p)
			ra.PerShard = append(ra.PerShard, txn.ShardRet{Shard: sh, Ret: ret})
			opt.sts[sh].Commit(txn.ID{Coord: 9, Seq: opt.seq})
		}
		rb := execBuffered(buf.sts, b)
		if len(ra.PerShard) != len(rb.PerShard) {
			t.Fatalf("%s: %d vs %d piece results", label, len(ra.PerShard), len(rb.PerShard))
		}
		for i, out := range ra.PerShard {
			if out.Shard != rb.PerShard[i].Shard || string(out.Ret) != string(rb.PerShard[i].Ret) {
				t.Fatalf("%s, piece %d: optimistic execution returned %+v, buffered %+v", label, i, out, rb.PerShard[i])
			}
		}
		return ra
	}
	var chain func(label string, a, b txn.Interactive, sabotage bool)
	chain = func(label string, a, b txn.Interactive, sabotage bool) {
		t.Helper()
		var prev *txn.Result
		for stage := 0; ; stage++ {
			ta, done, abort := a.Next(stage, prev)
			tb, doneB, abortB := b.Next(stage, prev)
			if done != doneB || abort != abortB {
				t.Fatalf("%s stage %d: optimistic done=%v abort=%v, buffered done=%v abort=%v", label, stage, done, abort, doneB, abortB)
			}
			if abort {
				covered[label+"-restart"]++
				chain(label, a, b, false) // restart from stage 0, as the chain driver does
				return
			}
			if done {
				return
			}
			if len(ta.Pieces) == 1 && stage == 1 {
				covered[label+"-one-shard"]++
			}
			prev = run(ta.Label, ta, tb)
			covered[ta.Label]++
			if ta.Label == "delivery-run" {
				for _, out := range prev.PerShard {
					covered["carriers"] += int(txn.DecodeInt(out.Ret))
				}
			}
			if sabotage && stage == 0 {
				// An intervening writer moves the balance stage 0 just read.
				for i := range ta.Pieces {
					p := &ta.Pieces[i]
					sh := p.Shard()
					k := p.ReadSet[0]
					v := txn.EncodeInt(txn.DecodeInt(opt.sts[sh].Get(k)) - 777)
					opt.sts[sh].Seed(k, v)
					buf.sts[sh].Seed(k, v)
				}
			}
		}
	}
	chains := 0
	for i := 0; i < 600; i++ {
		ja, jb := opt.g.Next(opt.rng), buf.g.Next(buf.rng)
		if ja.Label != jb.Label {
			t.Fatalf("job %d: the two generators diverged (%s vs %s)", i, ja.Label, jb.Label)
		}
		switch {
		case ja.T != nil:
			for _, p := range ja.T.Pieces {
				if len(p.WriteSet) > 4 && slices.Contains(p.WriteIDs, txn.NoKeyID) {
					covered["merged-neworder"]++
				}
			}
			run(ja.Label, ja.T, jb.T)
			covered[ja.Label]++
		default:
			chains++
			chain(ja.Label, ja.I, jb.I, ja.Label == "payment" && chains%5 == 0)
		}
	}
	for _, want := range []string{"neworder", "merged-neworder", "stocklevel", "payment-read", "payment-write",
		"payment-one-shard", "payment-restart", "orderstatus-c", "orderstatus-o", "delivery-scan", "delivery-run", "carriers"} {
		if covered[want] == 0 {
			t.Errorf("the job stream never exercised %s (covered: %v)", want, covered)
		}
	}
	for sh := range opt.sts {
		if !opt.sts[sh].Equal(buf.sts[sh]) || !buf.sts[sh].Equal(opt.sts[sh]) {
			t.Errorf("shard %d: stores differ between optimistic and buffered execution", sh)
		}
	}
}
