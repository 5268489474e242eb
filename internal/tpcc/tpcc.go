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
	"cmp"
	"fmt"
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
	// keys caches each shard's key names in id order and its seed image:
	// Next takes its ReadSet/WriteSet names from it instead of formatting them,
	// and Seed attaches every replica's store to the image.
	keys workload.KeyCache
}

// Column offsets within their group.
const (
	colWTax, colWYtd                              = 0, 1
	colDTax, colDYtd, colDNextOID, colNoHead      = 0, 1, 2, 3
	colCBal, colCYtd, colCCnt, colCDisc, colCLast = 0, 1, 2, 3, 4
	colIPrice, colSQty, colSYtd, colSCnt          = 0, 1, 2, 3

	wCols, dCols, cCols, iCols = 2, 4, 5, 4
)

// maxDistricts is the districts per warehouse the specification fixes; a
// Delivery's stages have room for one entry per district.
const maxDistricts = 10

// New builds a TPC-C generator. It panics on more than maxDistricts districts.
func New(cfg Config) *Gen {
	if cfg.Warehouses == 0 {
		cfg.Warehouses = cfg.Shards
	}
	if cfg.Districts > maxDistricts {
		panic(fmt.Sprintf("tpcc: %d districts per warehouse, at most %d", cfg.Districts, maxDistricts))
	}
	perD := dCols + cCols*cfg.Customers
	g := &Gen{cfg: cfg, perD: perD, perW: wCols + cfg.Districts*perD + iCols*cfg.Items}
	g.keys = workload.KeyCache{Build: g.names, Value: func(id int) []byte { return txn.EncodeInt(g.seedValue(id)) }}
	return g
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
// repeats per warehouse). Every one is within ±1000, so its encoding is one of
// txn.EncodeInt's shared ones: no replica allocates a seed value.
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
func (g *Gen) tab(shard int) []string { return g.keys.Shard(shard) }

// names builds a shard's key names in id order: non-nil even for a shard
// without warehouses (built, and empty).
func (g *Gen) names(shard int) []string {
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
	return names
}

// Seed pre-populates one shard's store, which must be empty, with its
// warehouses in id order, so the store's intern ids are the layout's.
func (g *Gen) Seed(shard int, st *store.Store) { g.keys.Seed(shard, st) }

// keyset accumulates one declared access set in both forms, or holds the room
// a stage's sets are cut from.
type keyset struct {
	names []string
	ids   []txn.KeyID
}

// cut returns an empty set with room for n keys taken off the front of room.
// Every set of a stage comes out of one names and one ids backing, sized for
// all of them before the first is filled: an arena's arrays when the sizes are
// fixed, two slices made for the stage when they are drawn. The set's capacity
// is n, so an overrun reallocates instead of writing into the next set.
func (room *keyset) cut(n int) keyset {
	s := keyset{room.names[:0:n], room.ids[:0:n]}
	room.names, room.ids = room.names[n:], room.ids[n:]
	return s
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

// single is a one-piece stage's transaction and piece, the head of the
// stage's arena.
type single struct {
	t txn.Txn
	p [1]txn.Piece
}

// one returns the arena's transaction, running p.
func (s *single) one(label string, readOnly bool, p txn.Piece) *txn.Txn {
	s.p[0] = p
	s.t = txn.Txn{Label: label, ReadOnly: readOnly, Pieces: txn.ByShard(s.p[:]...)}
	return &s.t
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
// the order and order-line rows under a unique id. It runs one piece on every
// shard that holds stock of its lines, and the home district's columns join
// the home shard's piece (which is the only one when every line is local).
func (g *Gen) NewOrder(rng *rand.Rand) *txn.Txn {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	o := &newOrder{uid: g.nextUID(rng)}
	o.n = 5 + rng.Intn(11)
	lines := o.lines[:o.n]
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
	o.wTax, o.dTax, o.dNext = g.wID(w)+colWTax, g.dID(w, d)+colDTax, g.dID(w, d)+colDNextOID
	o.cDisc, o.cLast = g.cID(w, d, c)+colCDisc, g.cID(w, d, c)+colCLast
	o.order, o.total = kOrder(w, d, o.uid), kOTotal(w, d, o.uid)

	// The lines grouped by shard, each shard's in the order drawn.
	slices.SortStableFunc(lines, func(a, b line) int { return cmp.Compare(a.shard, b.shard) })
	n, local := 0, false
	for i := range lines {
		if i == 0 || lines[i].shard != lines[i-1].shard {
			n++
		}
		local = local || lines[i].shard == home
	}
	if !local {
		n++ // the home district's columns make a piece of their own
	}
	// A line declares four columns read (its price and its three stock
	// columns) and three written; the home district four read, four written.
	keys := 7*len(lines) + 8
	room := keyset{make([]string, keys), make([]txn.KeyID, keys)}
	pieces := make([]txn.Piece, 0, n)
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j].shard == lines[i].shard {
			j++
		}
		pieces = append(pieces, o.piece(g, lines[i].shard, lines[i:j:j], home, &room))
		i = j
	}
	if !local {
		pieces = append(pieces, o.piece(g, home, nil, home, &room))
	}
	o.t = txn.Txn{Label: "neworder", Pieces: txn.ByShard(pieces...)}
	return &o.t
}

// maxLines is the most order lines a New-Order draws.
const maxLines = 15

// line is one New-Order order line.
type line struct {
	shard int
	item  txn.KeyID // the item's i_price column; the stock columns follow it
	qty   int64
}

// newOrder is a New-Order's arena: the transaction, its lines, and the home
// district's columns and rows. The declared sets and the pieces, whose sizes
// are drawn, are made beside it: one names, one ids and one pieces backing.
type newOrder struct {
	t                               txn.Txn
	lines                           [maxLines]line
	n                               int
	uid                             uint64
	wTax, dTax, dNext, cDisc, cLast txn.KeyID
	order, total                    string
}

// piece builds the New-Order piece of shard sh: the stock updates of lns and,
// on the home shard, the home district's order insertion after them. Its read
// set lists the lines' prices, their stock columns, then the home district's
// columns; its write set the stock columns, then the home district's columns
// and rows.
func (o *newOrder) piece(g *Gen, sh int, lns []line, home int, room *keyset) txn.Piece {
	tab := g.tab(sh)
	nr, nw := 4*len(lns), 3*len(lns)
	if sh == home {
		nr, nw = nr+4, nw+4
	}
	reads, writes := room.cut(nr), room.cut(nw)
	for _, ln := range lns {
		reads.add(tab, ln.item+colIPrice)
	}
	for _, ln := range lns {
		writes.add(tab, ln.item+colSQty, ln.item+colSYtd, ln.item+colSCnt)
	}
	reads.add(tab, writes.ids...)
	var exec txn.PieceFunc
	if sh == home {
		reads.add(tab, o.wTax, o.dTax, o.cDisc, o.dNext)
		writes.add(tab, o.dNext)
		writes.insert(o.order)
		writes.insert(o.total)
		writes.add(tab, o.cLast)
		exec = func(kv txn.KV) []byte {
			if len(lns) == 0 {
				return txn.EncodeInt(o.insert(kv))
			}
			out := txn.AppendInt(make([]byte, 0, 16), stock(kv, lns))
			return txn.AppendInt(out, o.insert(kv))
		}
	} else {
		exec = func(kv txn.KV) []byte { return txn.EncodeInt(stock(kv, lns)) }
	}
	return txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		WriteSet: writes.names, WriteIDs: writes.ids,
		Exec: exec,
	}.On(sh)
}

// stock applies the stock updates of lns and returns the lines' total.
func stock(kv txn.KV, lns []line) int64 {
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
	return total
}

// insert bumps the district's next order id, inserts the order under the old
// one and records it as the customer's last; it returns the order id with the
// taxes and the discount folded in.
func (o *newOrder) insert(kv txn.KV) int64 {
	oid := getInt(kv, o.dNext)
	putInt(kv, o.dNext, oid+1)
	kv.Put(o.order, txn.EncodeInt(oid))
	kv.Put(o.total, txn.EncodeInt(int64(o.n)))
	putInt(kv, o.cLast, int64(o.uid))
	return oid*1000 + getInt(kv, o.wTax) + getInt(kv, o.dTax) + getInt(kv, o.cDisc)
}

func (g *Gen) nextUID(rng *rand.Rand) uint64 {
	g.uid++
	return g.uid<<20 | uint64(rng.Intn(1<<20))
}

// concat returns a followed by b in one buffer of its own.
func concat(a, b []byte) []byte {
	return append(append(make([]byte, 0, len(a)+len(b)), a...), b...)
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
	p := &payment{amount: int64(1 + rng.Intn(5000)), home: g.ShardOf(w), cust: g.ShardOf(cw)}
	p.history = kHistory(w, d, g.nextUID(rng))
	p.homeTab, p.custTab = g.tab(p.home), g.tab(p.cust)
	p.wYtd, p.dYtd = g.wID(w)+colWYtd, g.dID(w, d)+colDYtd
	p.cBal, p.cYtd, p.cCnt = g.cID(cw, d, c)+colCBal, g.cID(cw, d, c)+colCYtd, g.cID(cw, d, c)+colCCnt
	p.Interactive = txn.Interactive{Label: "payment", Next: p.next}
	return &p.Interactive
}

// payment is one Payment's draw, which every stage of its chain is built from.
type payment struct {
	txn.Interactive
	home, cust                   int
	amount                       int64
	homeTab, custTab             []string
	wYtd, dYtd, cBal, cYtd, cCnt txn.KeyID
	history                      string
}

func (p *payment) next(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
	switch stage {
	case 0:
		a := &struct {
			single
			name [1]string
			id   [1]txn.KeyID
		}{name: [1]string{p.custTab[p.cBal]}, id: [1]txn.KeyID{p.cBal}}
		return a.one("payment-read", true, txn.Tagged(txn.OpRead, a.name[:], a.id[:]).On(p.cust)), false, false
	case 1:
		return p.write(txn.DecodeInt(prev.Ret(p.cust))), false, false
	default:
		// Validate stage 1: the customer's piece returns -1 on a failed
		// balance check.
		if prev != nil {
			ret := prev.Ret(p.cust)
			if p.home == p.cust && len(ret) >= 8 {
				// one piece: the warehouse's result (8B), then the customer's
				ret = ret[len(ret)-8:]
			}
			if txn.DecodeInt(ret) == -1 {
				return nil, true, true // abort: restart the chain
			}
		}
		return nil, true, false
	}
}

// paymentWrite is the arena of Payment's second stage: the transaction, its
// pieces — one when the customer's warehouse is on the home shard, two
// otherwise — their sets, and the balance stage 0 read, which the customer's
// check holds the store to.
type paymentWrite struct {
	t      txn.Txn
	pieces [2]txn.Piece
	names  [11]string
	ids    [11]txn.KeyID
	*payment
	seen int64
}

// write builds stage 1 given the balance stage 0 read.
func (p *payment) write(seen int64) *txn.Txn {
	a := &paymentWrite{payment: p, seen: seen}
	room := keyset{a.names[:], a.ids[:]}
	pieces := a.pieces[:]
	if p.home == p.cust {
		// One piece, whose sets list the warehouse's columns, then the
		// customer's.
		reads, writes := room.cut(5), room.cut(6)
		reads.add(p.homeTab, p.wYtd, p.dYtd, p.cBal, p.cYtd, p.cCnt)
		writes.add(p.homeTab, p.wYtd, p.dYtd)
		writes.insert(p.history)
		writes.add(p.custTab, p.cBal, p.cYtd, p.cCnt)
		pieces = pieces[:1]
		pieces[0] = txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: a.payBoth,
		}.On(p.home)
	} else {
		reads, writes, cust := room.cut(2), room.cut(3), room.cut(3)
		reads.add(p.homeTab, p.wYtd, p.dYtd)
		writes.add(p.homeTab, p.wYtd, p.dYtd)
		writes.insert(p.history)
		cust.add(p.custTab, p.cBal, p.cYtd, p.cCnt)
		pieces[0] = txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: a.payWarehouse,
		}.On(p.home)
		pieces[1] = txn.Piece{
			ReadSet: cust.names, ReadIDs: cust.ids,
			WriteSet: cust.names, WriteIDs: cust.ids,
			Exec: a.payCustomer,
		}.On(p.cust)
	}
	a.t = txn.Txn{Label: "payment-write", Pieces: txn.ByShard(pieces...)}
	return &a.t
}

// payWarehouse is the home shard's piece when the customer is elsewhere.
func (a *paymentWrite) payWarehouse(kv txn.KV) []byte {
	a.credit(kv)
	return txn.EncodeInt(0)
}

// payCustomer is the customer's shard's piece when the warehouse is
// elsewhere: -1 when the balance is no longer the one stage 0 read, and then
// it writes nothing; the new balance otherwise.
func (a *paymentWrite) payCustomer(kv txn.KV) []byte {
	cur := getInt(kv, a.cBal)
	if cur != a.seen {
		return txn.EncodeInt(-1) // validation failed
	}
	return txn.EncodeInt(a.debit(kv, cur))
}

// payBoth is the one piece when warehouse and customer share a shard. It
// validates before it writes: when the balance is no longer the one stage 0
// read, it writes nothing, and the restarted chain is the one that pays. It
// returns what the two pieces would, side by side: 0, then -1 or the new
// balance.
func (a *paymentWrite) payBoth(kv txn.KV) []byte {
	out := txn.AppendInt(make([]byte, 0, 16), 0)
	cur := getInt(kv, a.cBal)
	if cur != a.seen {
		return txn.AppendInt(out, -1) // validation failed
	}
	a.credit(kv)
	return txn.AppendInt(out, a.debit(kv, cur))
}

// credit adds the payment to the warehouse's and the district's year-to-date
// and records it in a history row.
func (a *paymentWrite) credit(kv txn.KV) {
	putInt(kv, a.wYtd, getInt(kv, a.wYtd)+a.amount)
	putInt(kv, a.dYtd, getInt(kv, a.dYtd)+a.amount)
	kv.Put(a.history, txn.EncodeInt(a.amount))
}

// debit takes the payment off the customer's balance cur and returns the new
// one.
func (a *paymentWrite) debit(kv txn.KV, cur int64) int64 {
	putInt(kv, a.cBal, cur-a.amount)
	putInt(kv, a.cYtd, getInt(kv, a.cYtd)+a.amount)
	putInt(kv, a.cCnt, getInt(kv, a.cCnt)+1)
	return cur - a.amount
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
				a := &struct {
					single
					names [2]string
					ids   [2]txn.KeyID
				}{}
				reads := keyset{a.names[:0], a.ids[:0]}
				reads.add(tab, cBal, cLast)
				return a.one("orderstatus-c", true, txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					Exec: func(kv txn.KV) []byte { return concat(kv.GetID(cBal), kv.GetID(cLast)) },
				}.On(sh)), false, false
			case 1:
				var last uint64
				if prev != nil && len(prev.Ret(sh)) >= 16 {
					last = uint64(txn.DecodeInt(prev.Ret(sh)[8:16]))
				}
				if last == 0 {
					return nil, true, false // customer has no orders yet
				}
				// The order rows were inserted: names only, no ids.
				a := &struct {
					single
					names [2]string
				}{names: [2]string{kOrder(w, d, last), kOTotal(w, d, last)}}
				return a.one("orderstatus-o", true, txn.Piece{
					ReadSet: a.names[:],
					Exec:    func(kv txn.KV) []byte { return concat(kv.Get(a.names[0]), kv.Get(a.names[1])) },
				}.On(sh)), false, false
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
				a := &struct {
					single
					names [2 * maxDistricts]string
					ids   [2 * maxDistricts]txn.KeyID
				}{}
				room := keyset{a.names[:], a.ids[:]}
				reads := room.cut(2 * nd)
				for d := 1; d <= nd; d++ {
					reads.add(tab, g.dID(w, d)+colNoHead, g.dID(w, d)+colDNextOID)
				}
				ids := reads.ids
				return a.one("delivery-scan", true, txn.Piece{
					ReadSet: reads.names, ReadIDs: ids,
					Exec: func(kv txn.KV) []byte {
						out := make([]byte, 0, 16*nd)
						for _, id := range ids {
							out = append(out, kv.GetID(id)...)
						}
						return out
					},
				}.On(sh)), false, false
			case 1:
				buf := prev.Ret(sh)
				type dd struct {
					head         int64
					noHead, cBal txn.KeyID
					carrierRow   string // o_carrier of the order at head+1
				}
				var todo [maxDistricts]dd
				n := 0
				for d := 1; d <= nd; d++ {
					off := (d - 1) * 16
					if len(buf) < off+16 {
						break
					}
					head := txn.DecodeInt(buf[off : off+8])
					next := txn.DecodeInt(buf[off+8 : off+16])
					if head+1 < next {
						todo[n] = dd{head: head, noHead: g.dID(w, d) + colNoHead,
							cBal: g.cID(w, d, custs[d]) + colCBal, carrierRow: kOCarrier(w, d, head+1)}
						n++
					}
				}
				if n == 0 {
					return nil, true, false
				}
				a := &struct {
					single
					todo  [maxDistricts]dd
					names [5 * maxDistricts]string
					ids   [5 * maxDistricts]txn.KeyID
				}{todo: todo}
				room := keyset{a.names[:], a.ids[:]}
				reads, writes := room.cut(2*n), room.cut(3*n)
				for _, x := range a.todo[:n] {
					reads.add(tab, x.noHead, x.cBal)
					writes.add(tab, x.noHead)
					writes.insert(x.carrierRow)
					writes.add(tab, x.cBal)
				}
				return a.one("delivery-run", false, txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					WriteSet: writes.names, WriteIDs: writes.ids,
					Exec: func(kv txn.KV) []byte {
						var done int64
						for _, x := range a.todo[:n] {
							if getInt(kv, x.noHead) != x.head {
								continue // another delivery got here first
							}
							putInt(kv, x.noHead, x.head+1)
							kv.Put(x.carrierRow, txn.EncodeInt(carrier))
							putInt(kv, x.cBal, getInt(kv, x.cBal)+100)
							done++
						}
						return txn.EncodeInt(done)
					},
				}.On(sh)), false, false
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
	a := &struct {
		single
		names [21]string
		ids   [21]txn.KeyID
	}{}
	reads := keyset{a.names[:0], a.ids[:0]}
	reads.add(tab, g.dID(w, d)+colDNextOID)
	for i := 0; i < 20; i++ {
		reads.add(tab, g.iID(w, 1+rng.Intn(g.cfg.Items))+colSQty)
	}
	return a.one("stocklevel", true, txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		Exec: func(kv txn.KV) []byte {
			var low int64
			for _, id := range a.ids[1:] {
				if getInt(kv, id) < threshold {
					low++
				}
			}
			return txn.EncodeInt(low)
		},
	}.On(sh))
}
