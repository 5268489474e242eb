package tpcc

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tiga/internal/store"
	"tiga/internal/txn"
)

// sameStage fails the test unless got is the stage want is, element by
// element: label, ReadOnly, the pieces' shard order, sets and ids (NoKeyID
// where a row is inserted) and op.
func sameStage(t *testing.T, what string, got, want *txn.Txn) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: built %v, the reference %v", what, got, want)
	}
	if got == nil {
		return
	}
	if got.Label != want.Label || got.ReadOnly != want.ReadOnly || len(got.Pieces) != len(want.Pieces) {
		t.Fatalf("%s: %s read-only=%v with %d pieces, the reference %s read-only=%v with %d", what,
			got.Label, got.ReadOnly, len(got.Pieces), want.Label, want.ReadOnly, len(want.Pieces))
	}
	for i := range got.Pieces {
		g, w := &got.Pieces[i], &want.Pieces[i]
		if g.Shard() != w.Shard() || g.Op != w.Op || (g.Exec == nil) != (w.Exec == nil) ||
			!slices.Equal(g.ReadSet, w.ReadSet) || !slices.Equal(g.ReadIDs, w.ReadIDs) ||
			!slices.Equal(g.WriteSet, w.WriteSet) || !slices.Equal(g.WriteIDs, w.WriteIDs) {
			t.Fatalf("%s, piece %d:\n built     shard %d op %d reads %v %v writes %v %v\n reference shard %d op %d reads %v %v writes %v %v",
				what, i, g.Shard(), g.Op, g.ReadSet, g.ReadIDs, g.WriteSet, g.WriteIDs,
				w.Shard(), w.Op, w.ReadSet, w.ReadIDs, w.WriteSet, w.WriteIDs)
		}
	}
}

// sameRets fails the test unless the two results carry the same bytes per shard.
func sameRets(t *testing.T, what string, got, want *txn.Result) {
	t.Helper()
	if len(got.PerShard) != len(want.PerShard) {
		t.Fatalf("%s: %d piece results, the reference %d", what, len(got.PerShard), len(want.PerShard))
	}
	for i, r := range got.PerShard {
		if w := want.PerShard[i]; r.Shard != w.Shard || string(r.Ret) != string(w.Ret) {
			t.Fatalf("%s: shard %d returned %v, the reference's shard %d %v", what, r.Shard, r.Ret, w.Shard, w.Ret)
		}
	}
}

// sameStores fails the test unless the two sets of stores hold equal values.
func sameStores(t *testing.T, what string, a, b []*store.Store) {
	t.Helper()
	if sh := differ(a, b); sh >= 0 {
		t.Fatalf("%s: shard %d's store differs from the reference's", what, sh)
	}
}

// differ returns the first shard whose two stores hold different values, -1
// when none does.
func differ(a, b []*store.Store) int {
	for sh := range a {
		if !a[sh].Equal(b[sh]) || !b[sh].Equal(a[sh]) {
			return sh
		}
	}
	return -1
}

// TestStagesMatchTheReference: every stage the generator builds is the one
// the reference builders (reference_test.go) build from the same draws, and
// its executors return the same bytes and leave identically seeded stores
// equal. The mix is drawn from two generators and two rngs of one seed, every
// chain runs to its end on both sides, and afterwards the rngs are at the same
// position. The configurations put one, two or more warehouses on a shard and
// run 2, 3, 4 and 10 districts, so New-Order has remote lines on shards of
// their own and on the home shard, Payment has remote customers on either, and
// Delivery fills its arena.
func TestStagesMatchTheReference(t *testing.T) {
	configs := []Config{
		TestConfig(1),
		{Shards: 3, Warehouses: 3, Districts: 2, Customers: 5, Items: 60},
		{Shards: 2, Warehouses: 5, Districts: 3, Customers: 4, Items: 40},
		{Shards: 4, Warehouses: 8, Districts: maxDistricts, Customers: 3, Items: 30},
	}
	for _, cfg := range configs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%dw%ds%dd/seed%d", cfg.Warehouses, cfg.Shards, cfg.Districts, seed), func(t *testing.T) {
				stagesMatch(t, cfg, seed)
			})
		}
	}
}

func stagesMatch(t *testing.T, cfg Config, seed int64) {
	gen, ref := New(cfg), New(cfg)
	rg, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	sg, sr := seededStores(gen, cfg.Shards), seededStores(ref, cfg.Shards)
	var seq uint64
	covered := map[string]int{}
	for i := 0; i < 400; i++ {
		jg, jr := gen.Next(rg), ref.refNext(rr)
		what := fmt.Sprintf("job %d (%s)", i, jr.Label)
		if jg.Label != jr.Label || (jg.T == nil) != (jr.T == nil) {
			t.Fatalf("%s: the generator drew %s", what, jg.Label)
		}
		if jg.T != nil {
			sameStage(t, what, jg.T, jr.T)
			sameRets(t, what, execAll(t, sg, jg.T, &seq), execAll(t, sr, jr.T, &seq))
			sameStores(t, what, sg, sr)
			covered[jg.T.Label+fmt.Sprintf("/%d-piece", len(jg.T.Pieces))]++
			continue
		}
		var pg, pr *txn.Result
		for stage := 0; ; stage++ {
			tg, doneG, abortG := jg.I.Next(stage, pg)
			tr, doneR, abortR := jr.I.Next(stage, pr)
			what := fmt.Sprintf("%s stage %d", what, stage)
			if doneG != doneR || abortG != abortR {
				t.Fatalf("%s: done=%v abort=%v, the reference done=%v abort=%v", what, doneG, abortG, doneR, abortR)
			}
			if abortG {
				t.Fatalf("%s: a chain aborted on quiescent stores", what)
			}
			sameStage(t, what, tg, tr)
			if doneG {
				break
			}
			pg, pr = execAll(t, sg, tg, &seq), execAll(t, sr, tr, &seq)
			sameRets(t, what, pg, pr)
			sameStores(t, what, sg, sr)
			covered[tg.Label+fmt.Sprintf("/%d-piece", len(tg.Pieces))]++
		}
	}
	if a, b := rg.Int63(), rr.Int63(); a != b {
		t.Fatalf("after the stream the rngs draw %d and %d", a, b)
	}
	want := []string{"neworder/1-piece", "payment-read/1-piece", "payment-write/1-piece",
		"orderstatus-c/1-piece", "orderstatus-o/1-piece", "delivery-scan/1-piece", "delivery-run/1-piece", "stocklevel/1-piece"}
	if cfg.Shards > 1 {
		want = append(want, "payment-write/2-piece")
	}
	for _, w := range want {
		if covered[w] == 0 {
			t.Errorf("the stream never built %s (built: %v)", w, covered)
		}
	}
}

// TestFailedPaymentMatchesTheReference: a Payment whose customer check fails
// returns the bytes the reference's does. When warehouse and customer share a
// shard it writes nothing, where the reference paid the warehouse and the
// district and wrote the history row before its check; when they do not, both
// pay the warehouse (EXPERIMENTS.md, "Known deviations").
func TestFailedPaymentMatchesTheReference(t *testing.T) {
	cfg := Config{Shards: 2, Warehouses: 4, Districts: 2, Customers: 4, Items: 30}
	gen, ref := New(cfg), New(cfg)
	rg, rr := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	var seq uint64
	seen := map[int]int{}
	for i := 0; i < 60; i++ {
		pg, pr := gen.Payment(rg), ref.refPayment(rr)
		sg, sr, untouched := seededStores(gen, cfg.Shards), seededStores(ref, cfg.Shards), seededStores(gen, cfg.Shards)
		t0, _, _ := pg.Next(0, nil)
		r0, _, _ := pr.Next(0, nil)
		sameStage(t, "stage 0", t0, r0)
		resG, resR := execAll(t, sg, t0, &seq), execAll(t, sr, r0, &seq)
		execAll(t, untouched, t0, &seq)
		// An intervening writer moves the balance stage 0 read.
		sh, k := t0.Pieces[0].Shard(), t0.Pieces[0].ReadSet[0]
		v := txn.EncodeInt(txn.DecodeInt(sg[sh].Get(k)) - 777)
		for _, sts := range [][]*store.Store{sg, sr, untouched} {
			sts[sh].Seed(k, v)
		}
		t1, _, _ := pg.Next(1, resG)
		r1, _, _ := pr.Next(1, resR)
		sameStage(t, "stage 1", t1, r1)
		resG, resR = execAll(t, sg, t1, &seq), execAll(t, sr, r1, &seq)
		sameRets(t, "stage 1", resG, resR)
		_, _, abortG := pg.Next(2, resG)
		_, _, abortR := pr.Next(2, resR)
		if !abortG || !abortR {
			t.Fatalf("payment %d: a failed check must abort (abort=%v, the reference %v)", i, abortG, abortR)
		}
		seen[len(t1.Pieces)]++
		if len(t1.Pieces) == 1 {
			sameStores(t, "same-shard payment", sg, untouched)
			if differ(sr, untouched) < 0 {
				t.Fatalf("payment %d: the reference's failed same-shard payment wrote nothing", i)
			}
			continue
		}
		sameStores(t, "remote-customer payment", sg, sr)
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("drew %d same-shard and %d remote-customer payments, want both", seen[1], seen[2])
	}
}

// TestStagesAllocatePerStage pins what building each TPC-C transaction's
// stages costs: nothing of its own. Every stage — its transaction, pieces,
// declared sets and executors, its chain, the names of the rows it inserts —
// is carved from the generator's arenas, whose chunks add less than half an
// allocation a draw. One warehouse, so no New-Order has a remote line and
// every count is fixed.
func TestStagesAllocatePerStage(t *testing.T) {
	g := New(TestConfig(1))
	g.tab(0) // the shard's name table, built on first use
	rng := rand.New(rand.NewSource(3))
	ret := func(vals ...int64) *txn.Result {
		var b []byte
		for _, v := range vals {
			b = txn.AppendInt(b, v)
		}
		return &txn.Result{OK: true, PerShard: []txn.ShardRet{{Shard: 0, Ret: b}}}
	}
	// A stage-0 balance and a passed check; a customer with an order; every
	// district with an order to deliver.
	balance, charged, lastOrder := ret(-1000), ret(0, -1500), ret(-1000, 7)
	var heads []int64
	for d := 0; d < g.cfg.Districts; d++ {
		heads = append(heads, 0, 5)
	}
	scan := ret(heads...)
	var sink *txn.Txn
	cases := []struct {
		label string
		want  float64
		build func()
	}{
		{"neworder", 0, func() { sink = g.NewOrder(rng) }},
		{"payment", 0, func() { sink = chain(g.Payment(rng), balance, charged) }},
		{"orderstatus", 0, func() { sink = chain(g.OrderStatus(rng), lastOrder, nil) }},
		{"delivery", 0, func() { sink = chain(g.Delivery(rng), scan, nil) }},
		{"stocklevel", 0, func() { sink = g.StockLevel(rng) }},
	}
	const runs = 400
	for _, c := range cases {
		c.build() // warm up
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			c.build()
		}
		runtime.ReadMemStats(&m1)
		got := float64(m1.Mallocs-m0.Mallocs) / runs
		t.Logf("%s: %.2f allocations", c.label, got)
		if got < c.want || got >= c.want+0.5 {
			t.Errorf("building a %s allocates %.2f objects, want %.0f and less than half a chunk", c.label, got, c.want)
		}
	}
	_ = sink
}

// chain builds every stage of ic, stage i+1 from prevs[i], and returns the
// last one.
func chain(ic txn.Interactive, prevs ...*txn.Result) *txn.Txn {
	var last *txn.Txn
	var res *txn.Result
	for stage := 0; ; stage++ {
		tx, done, _ := ic.Next(stage, res)
		if done {
			return last
		}
		last, res = tx, prevs[stage]
	}
}
