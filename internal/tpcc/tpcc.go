// Package tpcc implements the TPC-C benchmark (§5.1, §5.3) over the shared
// transaction model: all five transaction types per the specification, with
// warehouse-based sharding and a column-keyed data layout (as in the Janus
// codebase the paper builds on, where transactions conflict whenever they
// write the same column). Following NCC's methodology, Payment and
// Order-Status run as multi-shot (interactive) transactions via the
// decomposition technique of Appendix F; Delivery also decomposes because its
// read set is data-dependent.
//
// Every seeded column has a txn.KeyID fixed by a closed-form per-shard layout
// (see Gen) that is also the seeding order, so pieces carry ids next to their
// names and their executors drive a store by id; only the rows a transaction
// inserts (order, order total, history, carrier) are known by name alone.
package tpcc

import (
	"math/rand"
	"slices"
	"strconv"

	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// Config scales the benchmark. Production TPC-C uses 10 districts, 3000
// customers/district, and 100k items; tests shrink these.
type Config struct {
	Shards     int
	Warehouses int // default: one per shard
	Districts  int
	Customers  int // per district
	Items      int
}

// DefaultConfig returns the paper-scale configuration for the given shards.
func DefaultConfig(shards int) Config {
	return Config{Shards: shards, Warehouses: shards, Districts: 10, Customers: 3000, Items: 100000}
}

// TestConfig returns a down-scaled configuration for unit tests.
func TestConfig(shards int) Config {
	return Config{Shards: shards, Warehouses: shards, Districts: 4, Customers: 50, Items: 200}
}

// Gen generates TPC-C jobs.
//
// A shard holds the warehouses w with ShardOf(w) == shard, in ascending order,
// and numbers its seeded columns warehouse by warehouse, perW ids each:
//
//	w_tax, w_ytd
//	per district d = 1..Districts, perD ids:
//	    d_tax, d_ytd, d_next_o_id, no_head
//	    per customer c = 1..Customers: c_bal, c_ytd, c_cnt, c_disc, c_last_o
//	per item i = 1..Items: i_price, s_qty, s_ytd, s_cnt
//
// wID/dID/cID/iID give the first id of a warehouse, district, customer or item
// group and the col* constants the column's offset in its group.
type Gen struct {
	cfg        Config
	uid        uint64
	perD, perW int
	// names caches each shard's key names in id order, built on first use:
	// Next takes its ReadSet/WriteSet names from it instead of formatting them,
	// and images holds the seed image built from it, which Seed attaches every
	// replica's store to. Generators are private to one experiment point, so
	// the caches need no locking.
	names  [][]string
	images []*store.Image
	// ints caches the encoded seed values (all within ±1000); stored values
	// are immutable, so every key and replica seeded with v shares one buffer.
	ints [][]byte
}

// Column offsets within their group.
const (
	colWTax, colWYtd                              = 0, 1
	colDTax, colDYtd, colDNextOID, colNoHead      = 0, 1, 2, 3
	colCBal, colCYtd, colCCnt, colCDisc, colCLast = 0, 1, 2, 3, 4
	colIPrice, colSQty, colSYtd, colSCnt          = 0, 1, 2, 3

	wCols, dCols, cCols, iCols = 2, 4, 5, 4
)

// New builds a TPC-C generator.
func New(cfg Config) *Gen {
	if cfg.Warehouses == 0 {
		cfg.Warehouses = cfg.Shards
	}
	perD := dCols + cCols*cfg.Customers
	return &Gen{cfg: cfg, perD: perD, perW: wCols + cfg.Districts*perD + iCols*cfg.Items}
}

func init() {
	workload.Register(workload.Def{
		Name:   "tpcc",
		Doc:    "TPC-C interactive mix (all five transaction types; Payment/Order-Status/Delivery run multi-shot); keys scales Customers (keys/10, floor 50) and Items (keys, floor 500)",
		Params: nil, // scaled through the shared per-shard keys parameter
		New: func(shards, keys int, _ protocol.Values) workload.Generator {
			cfg := DefaultConfig(shards)
			cfg.Customers = keys / 10
			if cfg.Customers < 50 {
				cfg.Customers = 50
			}
			cfg.Items = keys
			if cfg.Items < 500 {
				cfg.Items = 500
			}
			return New(cfg)
		},
	})
}

// ShardOf maps a warehouse (1-based) to its shard.
func (g *Gen) ShardOf(w int) int { return (w - 1) % g.cfg.Shards }

func (g *Gen) wID(w int) txn.KeyID { return txn.KeyID((w - 1) / g.cfg.Shards * g.perW) }
func (g *Gen) dID(w, d int) txn.KeyID {
	return g.wID(w) + wCols + txn.KeyID((d-1)*g.perD)
}
func (g *Gen) cID(w, d, c int) txn.KeyID { return g.dID(w, d) + dCols + txn.KeyID((c-1)*cCols) }
func (g *Gen) iID(w, i int) txn.KeyID {
	return g.wID(w) + wCols + txn.KeyID(g.cfg.Districts*g.perD+(i-1)*iCols)
}

// seedValue is the initial value of the column at id (any shard: the layout
// repeats per warehouse).
func (g *Gen) seedValue(id int) int64 {
	off := id % g.perW
	if off < wCols {
		return [wCols]int64{colWTax: 7, colWYtd: 0}[off]
	}
	off -= wCols
	if off < g.cfg.Districts*g.perD {
		off %= g.perD
		if off < dCols {
			return [dCols]int64{colDTax: 8, colDYtd: 0, colDNextOID: 1, colNoHead: 0}[off]
		}
		return [cCols]int64{colCBal: -1000, colCYtd: 1000, colCCnt: 1, colCDisc: 5, colCLast: 0}[(off-dCols)%cCols]
	}
	off -= g.cfg.Districts * g.perD
	item := off/iCols + 1
	return [iCols]int64{colIPrice: int64(100 + item%900), colSQty: 100, colSYtd: 0, colSCnt: 0}[off%iCols]
}

// enc returns the shared encoding of a seed value.
func (g *Gen) enc(v int64) []byte {
	if g.ints == nil {
		g.ints = make([][]byte, 2001)
	}
	if g.ints[v+1000] == nil {
		g.ints[v+1000] = txn.EncodeInt(v)
	}
	return g.ints[v+1000]
}

// ---- column keys ----

// key formats prefix:a:b:…, the name of every column and row.
func key(prefix string, parts ...int64) string {
	b := make([]byte, 0, 40)
	b = append(b, prefix...)
	for _, p := range parts {
		b = strconv.AppendInt(append(b, ':'), p, 10)
	}
	return string(b)
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

// The rows transactions insert: named, never numbered ahead of time.
func kOrder(w, d int, uid uint64) string   { return key("o", int64(w), int64(d), int64(uid)) }
func kOTotal(w, d int, uid uint64) string  { return key("o_total", int64(w), int64(d), int64(uid)) }
func kOCarrier(w, d int, idx int64) string { return key("o_carrier", int64(w), int64(d), idx) }
func kHistory(w, d int, uid uint64) string { return key("h", int64(w), int64(d), int64(uid)) }

// tab returns a shard's key names in id order, building them on first use.
func (g *Gen) tab(shard int) []string {
	if g.names == nil {
		g.names, g.images = make([][]string, g.cfg.Shards), make([]*store.Image, g.cfg.Shards)
	}
	if g.names[shard] != nil {
		return g.names[shard]
	}
	// Non-nil even for a shard without warehouses: built, and empty.
	names := make([]string, 0, (g.cfg.Warehouses-shard+g.cfg.Shards-1)/g.cfg.Shards*g.perW)
	for w := shard + 1; w <= g.cfg.Warehouses; w += g.cfg.Shards {
		names = append(names, kWTax(w), kWYtd(w))
		for d := 1; d <= g.cfg.Districts; d++ {
			names = append(names, kDTax(w, d), kDYtd(w, d), kDNextOID(w, d), kNoHead(w, d))
			for c := 1; c <= g.cfg.Customers; c++ {
				names = append(names, kCBal(w, d, c), kCYtd(w, d, c), kCCnt(w, d, c), kCDisc(w, d, c), kCLastO(w, d, c))
			}
		}
		for i := 1; i <= g.cfg.Items; i++ {
			names = append(names, kIPrice(w, i), kSQty(w, i), kSYtd(w, i), kSCnt(w, i))
		}
	}
	g.names[shard] = names
	return names
}

// Seed pre-populates one shard's store, which must be empty, with its
// warehouses in id order, so the store's intern ids are the layout's.
func (g *Gen) Seed(shard int, st *store.Store) {
	names := g.tab(shard)
	if g.images[shard] == nil {
		g.images[shard] = store.NewImage(names, func(id int) []byte { return g.enc(g.seedValue(id)) })
	}
	st.Attach(g.images[shard])
}

// keyset accumulates one declared access set in both forms.
type keyset struct {
	names []string
	ids   []txn.KeyID
}

func newKeyset(n int) keyset {
	return keyset{names: make([]string, 0, n), ids: make([]txn.KeyID, 0, n)}
}

// add declares seeded columns of the shard whose name table is tab.
func (s *keyset) add(tab []string, ids ...txn.KeyID) {
	for _, id := range ids {
		s.names = append(s.names, tab[id])
		s.ids = append(s.ids, id)
	}
}

// insert declares a row known by name only.
func (s *keyset) insert(name string) {
	s.names = append(s.names, name)
	s.ids = append(s.ids, txn.NoKeyID)
}

func (s *keyset) append(o keyset) {
	s.names = append(s.names, o.names...)
	s.ids = append(s.ids, o.ids...)
}

// getInt and putInt read and write a seeded numeric column.
func getInt(kv txn.KV, id txn.KeyID) int64 { return txn.DecodeInt(kv.GetID(id)) }

func putInt(kv txn.KV, id txn.KeyID, v int64) { kv.PutID(id, txn.EncodeInt(v)) }

// Next draws a transaction per the TPC-C mix: New-Order 45%, Payment 43%,
// Order-Status 4%, Delivery 4%, Stock-Level 4%.
func (g *Gen) Next(rng *rand.Rand) workload.Job {
	g.uid++
	x := rng.Float64()
	switch {
	case x < 0.45:
		return workload.Job{T: g.NewOrder(rng), Label: "neworder"}
	case x < 0.88:
		return workload.Job{I: g.Payment(rng), Label: "payment"}
	case x < 0.92:
		return workload.Job{I: g.OrderStatus(rng), Label: "orderstatus"}
	case x < 0.96:
		return workload.Job{I: g.Delivery(rng), Label: "delivery"}
	default:
		return workload.Job{T: g.StockLevel(rng), Label: "stocklevel"}
	}
}

func (g *Gen) randWarehouse(rng *rand.Rand) int { return 1 + rng.Intn(g.cfg.Warehouses) }

// NewOrder builds the one-shot New-Order transaction: it increments the
// district's next-order id (the hot column), reads tax/discount columns,
// decrements stock for 5–15 items (1% from a remote warehouse), and inserts
// the order and order-line rows under a unique id.
func (g *Gen) NewOrder(rng *rand.Rand) *txn.Txn {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	uid := g.nextUID(rng)
	nItems := 5 + rng.Intn(11)
	type line struct {
		shard int
		item  txn.KeyID // the item's i_price column; the stock columns follow it
		qty   int64
	}
	lines := make([]line, nItems)
	for i := range lines {
		sw := w
		if g.cfg.Warehouses > 1 && rng.Float64() < 0.01 {
			for sw == w {
				sw = g.randWarehouse(rng)
			}
		}
		lines[i] = line{shard: g.ShardOf(sw), item: g.iID(sw, 1+rng.Intn(g.cfg.Items)), qty: int64(1 + rng.Intn(10))}
	}

	home := g.ShardOf(w)

	// Group stock lines per shard.
	perShard := make(map[int][]line)
	for _, ln := range lines {
		perShard[ln.shard] = append(perShard[ln.shard], ln)
	}
	pieces := make([]txn.Piece, 0, len(perShard)+1)
	for sh, lns := range perShard {
		tab := g.tab(sh)
		reads, writes := newKeyset(4*len(lns)), newKeyset(3*len(lns))
		for _, ln := range lns {
			reads.add(tab, ln.item+colIPrice)
			writes.add(tab, ln.item+colSQty, ln.item+colSYtd, ln.item+colSCnt)
		}
		reads.append(writes)
		pieces = append(pieces, txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: func(kv txn.KV) []byte {
				var total int64
				for _, ln := range lns {
					price := getInt(kv, ln.item+colIPrice)
					qty := getInt(kv, ln.item+colSQty) - ln.qty
					if qty < 10 {
						qty += 91
					}
					putInt(kv, ln.item+colSQty, qty)
					putInt(kv, ln.item+colSYtd, getInt(kv, ln.item+colSYtd)+ln.qty)
					putInt(kv, ln.item+colSCnt, getInt(kv, ln.item+colSCnt)+1)
					total += price * ln.qty
				}
				return txn.EncodeInt(total)
			},
		}.On(sh))
	}

	// Home-district piece: order insertion + next-order-id bump.
	tab := g.tab(home)
	wTax, dTax, dNext := g.wID(w)+colWTax, g.dID(w, d)+colDTax, g.dID(w, d)+colDNextOID
	cDisc, cLast := g.cID(w, d, c)+colCDisc, g.cID(w, d, c)+colCLast
	order, total := kOrder(w, d, uid), kOTotal(w, d, uid)
	reads, writes := newKeyset(4), newKeyset(4)
	reads.add(tab, wTax, dTax, cDisc, dNext)
	writes.add(tab, dNext)
	writes.insert(order)
	writes.insert(total)
	writes.add(tab, cLast)
	homePiece := txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		WriteSet: writes.names, WriteIDs: writes.ids,
		Exec: func(kv txn.KV) []byte {
			oid := getInt(kv, dNext)
			putInt(kv, dNext, oid+1)
			kv.Put(order, txn.EncodeInt(oid))
			kv.Put(total, txn.EncodeInt(int64(nItems)))
			putInt(kv, cLast, int64(uid))
			return txn.EncodeInt(oid*1000 + getInt(kv, wTax) + getInt(kv, dTax) + getInt(kv, cDisc))
		},
	}.On(home)
	if i := slices.IndexFunc(pieces, func(p txn.Piece) bool { return p.Shard() == home }); i >= 0 {
		pieces[i] = mergePieces(pieces[i], homePiece)
	} else {
		pieces = append(pieces, homePiece)
	}
	return &txn.Txn{Label: "neworder", Pieces: txn.ByShard(pieces...)}
}

func (g *Gen) nextUID(rng *rand.Rand) uint64 {
	g.uid++
	return g.uid<<20 | uint64(rng.Intn(1<<20))
}

// mergePieces combines two pieces on the same shard; both carry positionally
// parallel id sets (New-Order's and Payment's pieces, the only ones merged).
// The merged executor keeps the two executors, not the two pieces, so their
// own copies of the sets are garbage once merged.
func mergePieces(a, b txn.Piece) txn.Piece {
	execA, execB := a.Exec, b.Exec
	return txn.Piece{
		ReadSet:  append(append([]string(nil), a.ReadSet...), b.ReadSet...),
		WriteSet: append(append([]string(nil), a.WriteSet...), b.WriteSet...),
		ReadIDs:  append(append([]txn.KeyID(nil), a.ReadIDs...), b.ReadIDs...),
		WriteIDs: append(append([]txn.KeyID(nil), a.WriteIDs...), b.WriteIDs...),
		Exec: func(kv txn.KV) []byte {
			return append(execA(kv), execB(kv)...)
		},
	}.On(a.Shard())
}

// Payment is a multi-shot transaction (decomposed per Appendix F): stage 0
// reads the customer balance; stage 1 updates warehouse/district YTD and the
// customer, validating the balance read in stage 0 (abort and restart on a
// conflicting intervening write). 15% of customers belong to a remote
// warehouse.
func (g *Gen) Payment(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	cw := w
	if g.cfg.Warehouses > 1 && rng.Float64() < 0.15 {
		for cw == w {
			cw = g.randWarehouse(rng)
		}
	}
	c := 1 + rng.Intn(g.cfg.Customers)
	amount := int64(1 + rng.Intn(5000))
	home, cust := g.ShardOf(w), g.ShardOf(cw)
	uid := g.nextUID(rng)
	homeTab, custTab := g.tab(home), g.tab(cust)
	wYtd, dYtd := g.wID(w)+colWYtd, g.dID(w, d)+colDYtd
	cBal, cYtd, cCnt := g.cID(cw, d, c)+colCBal, g.cID(cw, d, c)+colCYtd, g.cID(cw, d, c)+colCCnt

	return &txn.Interactive{
		Label: "payment",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				t := &txn.Txn{Label: "payment-read", ReadOnly: true,
					Pieces: txn.ByShard(txn.ReadPieceID(custTab[cBal], cBal).On(cust))}
				return t, false, false
			case 1:
				seen := txn.DecodeInt(prev.Ret(cust))
				custKeys := newKeyset(3)
				custKeys.add(custTab, cBal, cYtd, cCnt)
				custPiece := txn.Piece{
					ReadSet: custKeys.names, ReadIDs: custKeys.ids,
					WriteSet: custKeys.names, WriteIDs: custKeys.ids,
					Exec: func(kv txn.KV) []byte {
						cur := getInt(kv, cBal)
						if cur != seen {
							return txn.EncodeInt(-1) // validation failed
						}
						putInt(kv, cBal, cur-amount)
						putInt(kv, cYtd, getInt(kv, cYtd)+amount)
						putInt(kv, cCnt, getInt(kv, cCnt)+1)
						return txn.EncodeInt(cur - amount)
					},
				}.On(cust)
				history := kHistory(w, d, uid)
				reads, writes := newKeyset(2), newKeyset(3)
				reads.add(homeTab, wYtd, dYtd)
				writes.add(homeTab, wYtd, dYtd)
				writes.insert(history)
				homePiece := txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					WriteSet: writes.names, WriteIDs: writes.ids,
					Exec: func(kv txn.KV) []byte {
						putInt(kv, wYtd, getInt(kv, wYtd)+amount)
						putInt(kv, dYtd, getInt(kv, dYtd)+amount)
						kv.Put(history, txn.EncodeInt(amount))
						return txn.EncodeInt(0)
					},
				}.On(home)
				t := &txn.Txn{Label: "payment-write"}
				if home == cust {
					t.Pieces = txn.ByShard(mergePieces(homePiece, custPiece))
				} else {
					t.Pieces = txn.ByShard(homePiece, custPiece)
				}
				return t, false, false
			default:
				// Validate stage 1: the customer piece returns -1 on a failed
				// balance check.
				if prev != nil {
					ret := prev.Ret(cust)
					if home == cust && len(ret) >= 8 {
						// merged piece: home result (8B) then customer result
						ret = ret[len(ret)-8:]
					}
					if txn.DecodeInt(ret) == -1 {
						return nil, true, true // abort: restart the chain
					}
				}
				return nil, true, false
			}
		},
	}
}

// OrderStatus is a read-only multi-shot transaction: stage 0 reads the
// customer's balance and last order id; stage 1 reads that order.
func (g *Gen) OrderStatus(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	sh := g.ShardOf(w)
	tab := g.tab(sh)
	cBal, cLast := g.cID(w, d, c)+colCBal, g.cID(w, d, c)+colCLast
	return &txn.Interactive{
		Label: "orderstatus",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				reads := newKeyset(2)
				reads.add(tab, cBal, cLast)
				t := &txn.Txn{Label: "orderstatus-c", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					Exec: func(kv txn.KV) []byte {
						return append(kv.GetID(cBal), kv.GetID(cLast)...)
					},
				}.On(sh))}
				return t, false, false
			case 1:
				var last uint64
				if prev != nil && len(prev.Ret(sh)) >= 16 {
					last = uint64(txn.DecodeInt(prev.Ret(sh)[8:16]))
				}
				if last == 0 {
					return nil, true, false // customer has no orders yet
				}
				// The order rows were inserted: names only, no ids.
				order, total := kOrder(w, d, last), kOTotal(w, d, last)
				t := &txn.Txn{Label: "orderstatus-o", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: []string{order, total},
					Exec: func(kv txn.KV) []byte {
						return append(kv.Get(order), kv.Get(total)...)
					},
				}.On(sh))}
				return t, false, false
			default:
				return nil, true, false
			}
		},
	}
}

// Delivery decomposes because its read set is data-dependent: stage 0 reads
// each district's delivered-count and next-order-id; stage 1 advances the
// delivery head of every district with undelivered orders, assigns carriers,
// and credits customer balances (the full 10-district sweep of the spec).
func (g *Gen) Delivery(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	sh := g.ShardOf(w)
	carrier := int64(1 + rng.Intn(10))
	custs := make([]int, g.cfg.Districts+1)
	for d := 1; d <= g.cfg.Districts; d++ {
		custs[d] = 1 + rng.Intn(g.cfg.Customers)
	}
	nd := g.cfg.Districts
	tab := g.tab(sh)
	return &txn.Interactive{
		Label: "delivery",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				reads := newKeyset(2 * nd)
				for d := 1; d <= nd; d++ {
					reads.add(tab, g.dID(w, d)+colNoHead, g.dID(w, d)+colDNextOID)
				}
				t := &txn.Txn{Label: "delivery-scan", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					Exec: func(kv txn.KV) []byte {
						out := make([]byte, 0, 16*nd)
						for _, id := range reads.ids {
							out = append(out, kv.GetID(id)...)
						}
						return out
					},
				}.On(sh))}
				return t, false, false
			case 1:
				buf := prev.Ret(sh)
				type dd struct {
					head         int64
					noHead, cBal txn.KeyID
					carrierRow   string // o_carrier of the order at head+1
				}
				var todo []dd
				for d := 1; d <= nd; d++ {
					off := (d - 1) * 16
					if len(buf) < off+16 {
						break
					}
					head := txn.DecodeInt(buf[off : off+8])
					next := txn.DecodeInt(buf[off+8 : off+16])
					if head+1 < next {
						todo = append(todo, dd{head: head, noHead: g.dID(w, d) + colNoHead,
							cBal: g.cID(w, d, custs[d]) + colCBal, carrierRow: kOCarrier(w, d, head+1)})
					}
				}
				if len(todo) == 0 {
					return nil, true, false
				}
				reads, writes := newKeyset(2*len(todo)), newKeyset(3*len(todo))
				for _, x := range todo {
					reads.add(tab, x.noHead, x.cBal)
					writes.add(tab, x.noHead)
					writes.insert(x.carrierRow)
					writes.add(tab, x.cBal)
				}
				t := &txn.Txn{Label: "delivery-run", Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					WriteSet: writes.names, WriteIDs: writes.ids,
					Exec: func(kv txn.KV) []byte {
						var n int64
						for _, x := range todo {
							if getInt(kv, x.noHead) != x.head {
								continue // another delivery got here first
							}
							putInt(kv, x.noHead, x.head+1)
							kv.Put(x.carrierRow, txn.EncodeInt(carrier))
							putInt(kv, x.cBal, getInt(kv, x.cBal)+100)
							n++
						}
						return txn.EncodeInt(n)
					},
				}.On(sh))}
				return t, false, false
			default:
				return nil, true, false
			}
		},
	}
}

// StockLevel is the one-shot read-only analysis transaction: it reads the
// district cursor and the stock quantities of 20 recently-sold items,
// counting those below a threshold.
func (g *Gen) StockLevel(rng *rand.Rand) *txn.Txn {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	sh := g.ShardOf(w)
	threshold := int64(10 + rng.Intn(11))
	tab := g.tab(sh)
	reads := newKeyset(21)
	reads.add(tab, g.dID(w, d)+colDNextOID)
	for i := 0; i < 20; i++ {
		reads.add(tab, g.iID(w, 1+rng.Intn(g.cfg.Items))+colSQty)
	}
	return &txn.Txn{Label: "stocklevel", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		Exec: func(kv txn.KV) []byte {
			var low int64
			for _, id := range reads.ids[1:] {
				if getInt(kv, id) < threshold {
					low++
				}
			}
			return txn.EncodeInt(low)
		},
	}.On(sh))}
}
