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
	"unsafe"

	"tiga/internal/pool"
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
	// The arenas a draw is carved from (pool.Arena: one allocation a chunk):
	// its stages' transactions, pieces, executors and declared sets, its
	// chain's state and the names of the rows it inserts. A Gen is private to
	// one experiment point (workload.KeyCache), so it owns them. Chunks are
	// never reused, so a stage stays as built for as long as anything holds it
	// — Tiga's log keeps every stage's transaction, a store every inserted
	// row's name — and a restarted chain's stages are fresh ones.
	setNames    pool.Arena[string]
	setIDs      pool.Arena[txn.KeyID]
	pieces      pool.Arena[txn.Piece]
	rows        pool.Arena[byte]
	singles     pool.Arena[single]
	orders      pool.Arena[newOrder]
	orderPieces pool.Arena[orderPiece]
	payments    pool.Arena[payment]
	payWrites   pool.Arena[paymentWrite]
	statuses    pool.Arena[orderStatus]
	custReads   pool.Arena[statusCustomer]
	orderReads  pool.Arena[statusOrder]
	deliveries  pool.Arena[delivery]
	scans       pool.Arena[deliveryScan]
	runs        pool.Arena[deliveryRun]
	stockLevels pool.Arena[stockLevel]
}

// carve returns a fresh zero entry of a.
func carve[T any](a *pool.Arena[T]) *T { return &a.Carve(1)[0] }

// room returns the room for n keys out of g's arenas, which sets are cut from.
func (g *Gen) room(n int) keyset { return keyset{g.setNames.Carve(n), g.setIDs.Carve(n)} }

// set returns an empty set with room for n keys out of g's arenas.
func (g *Gen) set(n int) keyset {
	room := g.room(n)
	return room.cut(n)
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
	// A New-Order's sets take 43 to 113 names at once. In the zero value's
	// chunks of 512 the tail such a carve does not fit in lost a tenth of
	// every chunk; in chunks of 4 096 it loses little.
	g.setNames = pool.NewArena[string](4096)
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

// appendKey appends prefix:a:b:…, the name of every column and row, to b.
func appendKey(b []byte, prefix string, parts ...int64) []byte {
	b = append(b, prefix...)
	for _, p := range parts {
		b = strconv.AppendInt(append(b, ':'), p, 10)
	}
	return b
}

// The seeded columns' name prefixes, by column, in each row's id order.
var (
	wPrefix = [wCols]string{colWTax: "w_tax", colWYtd: "w_ytd"}
	dPrefix = [dCols]string{colDTax: "d_tax", colDYtd: "d_ytd", colDNextOID: "d_next_o_id", colNoHead: "no_head"}
	cPrefix = [cCols]string{colCBal: "c_bal", colCYtd: "c_ytd", colCCnt: "c_cnt", colCDisc: "c_disc", colCLast: "c_last_o"}
	iPrefix = [iCols]string{colIPrice: "i_price", colSQty: "s_qty", colSYtd: "s_ytd", colSCnt: "s_cnt"}
)

// The rows transactions insert: named, never numbered ahead of time. A draw
// formats their names on its stack and carves them into the generator's row
// bytes, all of a draw's or a stage's in one string (rowNames).

// rowNames returns b copied into g's row bytes, as a string a draw cuts its
// inserted rows' names from. The string reads the arena's bytes in place
// (unsafe.String): an arena never hands a chunk's bytes out twice, and nothing
// writes to them after this copy, so the names read the same for as long as a
// store keeps a row under them.
func (g *Gen) rowNames(b []byte) string {
	c := g.rows.Carve(len(b))
	copy(c, b)
	return unsafe.String(unsafe.SliceData(c), len(c))
}

// history names the history row h:w:d:uid of a Payment in district (w, d).
func (g *Gen) history(w, d int, uid uint64) string {
	var buf [48]byte
	return g.rowNames(appendKey(buf[:0], "h", int64(w), int64(d), int64(uid)))
}

// orderRows names order uid of district (w, d) and its total, o:w:d:uid and
// o_total:w:d:uid, in one string.
func (g *Gen) orderRows(w, d int, uid uint64) (order, total string) {
	var buf [96]byte
	b := appendKey(buf[:0], "o", int64(w), int64(d), int64(uid))
	n := len(b)
	rows := g.rowNames(appendKey(b, "o_total", int64(w), int64(d), int64(uid)))
	return rows[:n], rows[n:]
}

// tab returns a shard's key names in id order, building them on first use.
func (g *Gen) tab(shard int) []string { return g.keys.Shard(shard) }

// names builds a shard's key names in id order: non-nil even for a shard
// without warehouses (built, and empty). A shard names a few hundred thousand
// columns, so it formats them twice, on its stack: once to size one buffer and
// once to fill it, and each name is a string over its bytes in place
// (unsafe.String), made once they are written and never written again. The
// shard costs four allocations, not one a name.
func (g *Gen) names(shard int) []string {
	size, n := 0, 0
	g.eachName(shard, func(name []byte) { size, n = size+len(name), n+1 })
	buf, names := make([]byte, size), make([]string, 0, n)
	at := 0
	g.eachName(shard, func(name []byte) {
		copy(buf[at:], name)
		names = append(names, unsafe.String(&buf[at], len(name)))
		at += len(name)
	})
	return names
}

// eachName formats the shard's key names in id order, each into the same
// stack buffer, and hands each to emit.
func (g *Gen) eachName(shard int, emit func(name []byte)) {
	var b [48]byte
	for w := shard + 1; w <= g.cfg.Warehouses; w += g.cfg.Shards {
		for _, p := range wPrefix {
			emit(appendKey(b[:0], p, int64(w)))
		}
		for d := 1; d <= g.cfg.Districts; d++ {
			for _, p := range dPrefix {
				emit(appendKey(b[:0], p, int64(w), int64(d)))
			}
			for c := 1; c <= g.cfg.Customers; c++ {
				for _, p := range cPrefix {
					emit(appendKey(b[:0], p, int64(w), int64(d), int64(c)))
				}
			}
		}
		for i := 1; i <= g.cfg.Items; i++ {
			for _, p := range iPrefix {
				emit(appendKey(b[:0], p, int64(w), int64(i)))
			}
		}
	}
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

// single is a one-piece stage's transaction, piece and executor, the head of
// the stage's arena entry.
type single struct {
	t    txn.Txn
	p    [1]txn.Piece
	exec txn.Executor
}

// one returns the arena's transaction, running p, whose Exec is e — the stage
// the single heads, as a rule — or a tagged op when e is nil.
func (s *single) one(label string, readOnly bool, p txn.Piece, e txn.Executor) *txn.Txn {
	if e != nil {
		s.exec = e
		p.Exec = &s.exec
	}
	s.p[0] = p
	s.t = txn.Txn{Label: label, ReadOnly: readOnly, Pieces: txn.ByShard(s.p[:]...)}
	return &s.t
}

// getInt and putInt read and write a seeded numeric column. Every value and
// result a piece builds is the store's (txn.Int, KV.Bytes), so executing a
// piece allocates nothing.
func getInt(kv txn.KV, id txn.KeyID) int64 { return txn.DecodeInt(kv.GetID(id)) }

func putInt(kv txn.KV, id txn.KeyID, v int64) { kv.PutID(id, txn.Int(kv, v)) }

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
	o := carve(&g.orders)
	o.uid = g.nextUID(rng)
	o.n = 5 + rng.Intn(11)
	lines := o.lines[:o.n]
	for i := range lines {
		sw := w
		if g.cfg.Warehouses > 1 && rng.Float64() < 0.01 {
			for sw == w {
				sw = g.randWarehouse(rng)
			}
		}
		lines[i] = line{shard: int32(g.ShardOf(sw)), item: g.iID(sw, 1+rng.Intn(g.cfg.Items)), qty: int32(1 + rng.Intn(10))}
	}
	home := g.ShardOf(w)
	o.wTax, o.dTax, o.dNext = g.wID(w)+colWTax, g.dID(w, d)+colDTax, g.dID(w, d)+colDNextOID
	o.cDisc, o.cLast = g.cID(w, d, c)+colCDisc, g.cID(w, d, c)+colCLast
	o.order, o.total = g.orderRows(w, d, o.uid)

	// The lines grouped by shard, each shard's in the order drawn.
	slices.SortStableFunc(lines, func(a, b line) int { return cmp.Compare(a.shard, b.shard) })
	n, local := 0, false
	for i := range lines {
		if i == 0 || lines[i].shard != lines[i-1].shard {
			n++
		}
		local = local || int(lines[i].shard) == home
	}
	if !local {
		n++ // the home district's columns make a piece of their own
	}
	// A line declares four columns read (its price and its three stock
	// columns) and three written; the home district four read, four written.
	room, pieces, execs := g.room(7*len(lines)+8), g.pieces.Carve(n)[:0], g.orderPieces.Carve(n)
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j].shard == lines[i].shard {
			j++
		}
		pieces = append(pieces, o.piece(g, int(lines[i].shard), i, j, home, &room, &execs[len(pieces)]))
		i = j
	}
	if !local {
		pieces = append(pieces, o.piece(g, home, 0, 0, home, &room, &execs[len(pieces)]))
	}
	o.t = txn.Txn{Label: "neworder", Pieces: txn.ByShard(pieces...)}
	return &o.t
}

// maxLines is the most order lines a New-Order draws.
const maxLines = 15

// line is one New-Order order line, packed into 12 bytes: a draw lives as long
// as its transaction, which Tiga's log keeps.
type line struct {
	shard int32
	item  txn.KeyID // the item's i_price column; the stock columns follow it
	qty   int32
}

// newOrder is a New-Order's draw: the transaction, its lines, and the home
// district's columns and rows. The declared sets, the pieces and their
// executors, whose sizes are drawn, are carved beside it: one names, one ids,
// one pieces and one executors backing.
type newOrder struct {
	t                               txn.Txn
	lines                           [maxLines]line
	n                               int
	uid                             uint64
	wTax, dTax, dNext, cDisc, cLast txn.KeyID
	order, total                    string
}

// piece builds the New-Order piece of shard sh, which x executes: the stock
// updates of lines lo to hi and, on the home shard, the home district's order
// insertion after them. Its read set lists the lines' prices, their stock
// columns, then the home district's columns; its write set the stock columns,
// then the home district's columns and rows.
func (o *newOrder) piece(g *Gen, sh, lo, hi, home int, room *keyset, x *orderPiece) txn.Piece {
	*x = orderPiece{o: o, lo: uint8(lo), hi: uint8(hi), home: sh == home}
	x.exec = x
	lns := o.lines[lo:hi]
	tab := g.tab(sh)
	nr, nw := 4*len(lns), 3*len(lns)
	if x.home {
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
	if x.home {
		reads.add(tab, o.wTax, o.dTax, o.cDisc, o.dNext)
		writes.add(tab, o.dNext)
		writes.insert(o.order)
		writes.insert(o.total)
		writes.add(tab, o.cLast)
	}
	return txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		WriteSet: writes.names, WriteIDs: writes.ids,
		Exec: &x.exec,
	}.On(sh)
}

// orderPiece executes a New-Order's piece on one shard: the stock updates of
// the draw's lines lo to hi and, on the home shard, the order's insertion
// after them. exec holds the orderPiece itself; the piece points at it.
type orderPiece struct {
	exec   txn.Executor
	o      *newOrder
	lo, hi uint8
	home   bool
}

// Run returns the lines' total, then on the home shard the inserted order's
// id with the taxes and the discount folded in; a home piece without lines
// returns the latter alone.
func (x *orderPiece) Run(kv txn.KV) []byte {
	lns := x.o.lines[x.lo:x.hi]
	switch {
	case !x.home:
		return txn.Int(kv, stock(kv, lns))
	case len(lns) == 0:
		return txn.Int(kv, x.o.insert(kv))
	}
	out := txn.AppendInt(kv.Bytes(16), stock(kv, lns))
	return txn.AppendInt(out, x.o.insert(kv))
}

// stock applies the stock updates of lns and returns the lines' total.
func stock(kv txn.KV, lns []line) int64 {
	var total int64
	for _, ln := range lns {
		price := getInt(kv, ln.item+colIPrice)
		qty := getInt(kv, ln.item+colSQty) - int64(ln.qty)
		if qty < 10 {
			qty += 91
		}
		putInt(kv, ln.item+colSQty, qty)
		putInt(kv, ln.item+colSYtd, getInt(kv, ln.item+colSYtd)+int64(ln.qty))
		putInt(kv, ln.item+colSCnt, getInt(kv, ln.item+colSCnt)+1)
		total += price * int64(ln.qty)
	}
	return total
}

// insert bumps the district's next order id, inserts the order under the old
// one and records it as the customer's last; it returns the order id with the
// taxes and the discount folded in.
func (o *newOrder) insert(kv txn.KV) int64 {
	oid := getInt(kv, o.dNext)
	putInt(kv, o.dNext, oid+1)
	kv.Put(o.order, txn.Int(kv, oid))
	kv.Put(o.total, txn.Int(kv, int64(o.n)))
	putInt(kv, o.cLast, int64(o.uid))
	return oid*1000 + getInt(kv, o.wTax) + getInt(kv, o.dTax) + getInt(kv, o.cDisc)
}

func (g *Gen) nextUID(rng *rand.Rand) uint64 {
	g.uid++
	return g.uid<<20 | uint64(rng.Intn(1<<20))
}

// concat returns a followed by b in the store's bytes.
func concat(kv txn.KV, a, b []byte) []byte {
	return append(append(kv.Bytes(len(a)+len(b)), a...), b...)
}

// Payment is a multi-shot transaction (decomposed per Appendix F): stage 0
// reads the customer balance; stage 1 updates warehouse/district YTD and the
// customer, validating the balance read in stage 0 (abort and restart on a
// conflicting intervening write). 15% of customers belong to a remote
// warehouse. The chain is the draw, carved from g's arenas.
func (g *Gen) Payment(rng *rand.Rand) txn.Interactive {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	cw := w
	if g.cfg.Warehouses > 1 && rng.Float64() < 0.15 {
		for cw == w {
			cw = g.randWarehouse(rng)
		}
	}
	c := 1 + rng.Intn(g.cfg.Customers)
	p := carve(&g.payments)
	p.g, p.amount, p.home, p.cust = g, int64(1+rng.Intn(5000)), g.ShardOf(w), g.ShardOf(cw)
	p.history = g.history(w, d, g.nextUID(rng))
	p.wYtd, p.dYtd = g.wID(w)+colWYtd, g.dID(w, d)+colDYtd
	p.cBal, p.cYtd, p.cCnt = g.cID(cw, d, c)+colCBal, g.cID(cw, d, c)+colCYtd, g.cID(cw, d, c)+colCCnt
	return p
}

// payment is one Payment's draw and chain, which every stage is built from.
type payment struct {
	g                            *Gen
	home, cust                   int
	amount                       int64
	wYtd, dYtd, cBal, cYtd, cCnt txn.KeyID
	history                      string
}

// Next builds the chain's stages: the balance read, then the payment.
func (p *payment) Next(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
	switch stage {
	case 0:
		read := p.g.set(1)
		read.add(p.g.tab(p.cust), p.cBal)
		return carve(&p.g.singles).one("payment-read", true, txn.Tagged(txn.OpRead, read.names, read.ids).On(p.cust), nil), false, false
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

// paymentWrite is the arena entry of Payment's second stage: the
// transaction, its pieces — one when the customer's warehouse is on the home
// shard, two otherwise — their sets and executors, and the balance stage 0
// read, which the customer's check holds the store to. The executors are the
// entry itself, as one of the three named types below.
type paymentWrite struct {
	t      txn.Txn
	pieces [2]txn.Piece
	execs  [2]txn.Executor
	names  [11]string
	ids    [11]txn.KeyID
	*payment
	seen int64
}

// The executors of Payment's second stage, one type per piece it can run.
type (
	payBoth      paymentWrite
	payWarehouse paymentWrite
	payCustomer  paymentWrite
)

// write builds stage 1 given the balance stage 0 read.
func (p *payment) write(seen int64) *txn.Txn {
	a := carve(&p.g.payWrites)
	a.payment, a.seen = p, seen
	homeTab, custTab := p.g.tab(p.home), p.g.tab(p.cust)
	room := keyset{a.names[:], a.ids[:]}
	pieces := a.pieces[:]
	if p.home == p.cust {
		// One piece, whose sets list the warehouse's columns, then the
		// customer's.
		reads, writes := room.cut(5), room.cut(6)
		reads.add(homeTab, p.wYtd, p.dYtd, p.cBal, p.cYtd, p.cCnt)
		writes.add(homeTab, p.wYtd, p.dYtd)
		writes.insert(p.history)
		writes.add(custTab, p.cBal, p.cYtd, p.cCnt)
		pieces = pieces[:1]
		a.execs[0] = (*payBoth)(a)
		pieces[0] = txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: &a.execs[0],
		}.On(p.home)
	} else {
		reads, writes, cust := room.cut(2), room.cut(3), room.cut(3)
		reads.add(homeTab, p.wYtd, p.dYtd)
		writes.add(homeTab, p.wYtd, p.dYtd)
		writes.insert(p.history)
		cust.add(custTab, p.cBal, p.cYtd, p.cCnt)
		a.execs[0], a.execs[1] = (*payWarehouse)(a), (*payCustomer)(a)
		pieces[0] = txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: &a.execs[0],
		}.On(p.home)
		pieces[1] = txn.Piece{
			ReadSet: cust.names, ReadIDs: cust.ids,
			WriteSet: cust.names, WriteIDs: cust.ids,
			Exec: &a.execs[1],
		}.On(p.cust)
	}
	a.t = txn.Txn{Label: "payment-write", Pieces: txn.ByShard(pieces...)}
	return &a.t
}

// Run is the home shard's piece when the customer is elsewhere.
func (x *payWarehouse) Run(kv txn.KV) []byte {
	(*paymentWrite)(x).credit(kv)
	return txn.Int(kv, 0)
}

// Run is the customer's shard's piece when the warehouse is elsewhere: -1
// when the balance is no longer the one stage 0 read, and then it writes
// nothing; the new balance otherwise.
func (x *payCustomer) Run(kv txn.KV) []byte {
	cur := getInt(kv, x.cBal)
	if cur != x.seen {
		return txn.Int(kv, -1) // validation failed
	}
	return txn.Int(kv, (*paymentWrite)(x).debit(kv, cur))
}

// Run is the one piece when warehouse and customer share a shard. It
// validates before it writes: when the balance is no longer the one stage 0
// read, it writes nothing, and the restarted chain is the one that pays. It
// returns what the two pieces would, side by side: 0, then -1 or the new
// balance.
func (x *payBoth) Run(kv txn.KV) []byte {
	a := (*paymentWrite)(x)
	out := txn.AppendInt(kv.Bytes(16), 0)
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
	kv.Put(a.history, txn.Int(kv, a.amount))
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
// customer's balance and last order id; stage 1 reads that order. The chain
// is the draw, carved from g's arenas.
func (g *Gen) OrderStatus(rng *rand.Rand) txn.Interactive {
	o := carve(&g.statuses)
	o.g, o.w = g, g.randWarehouse(rng)
	o.d = 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	o.sh = g.ShardOf(o.w)
	o.cBal, o.cLast = g.cID(o.w, o.d, c)+colCBal, g.cID(o.w, o.d, c)+colCLast
	return o
}

// orderStatus is one Order-Status' draw and chain.
type orderStatus struct {
	g           *Gen
	w, d, sh    int
	cBal, cLast txn.KeyID
}

// statusCustomer is Order-Status' first stage, which reads the customer's
// balance and last order.
type statusCustomer struct {
	single
	cBal, cLast txn.KeyID
}

// Run returns the balance, then the last order.
func (x *statusCustomer) Run(kv txn.KV) []byte {
	return concat(kv, kv.GetID(x.cBal), kv.GetID(x.cLast))
}

// statusOrder is Order-Status' second stage, which reads the order's rows.
type statusOrder struct {
	single
	rows [2]string // the order's and its total's
}

// Run returns the order's id, then its line count.
func (x *statusOrder) Run(kv txn.KV) []byte {
	return concat(kv, kv.Get(x.rows[0]), kv.Get(x.rows[1]))
}

// Next builds the chain's stages: the customer's read, then the order's.
func (o *orderStatus) Next(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
	switch stage {
	case 0:
		reads := o.g.set(2)
		reads.add(o.g.tab(o.sh), o.cBal, o.cLast)
		x := carve(&o.g.custReads)
		x.cBal, x.cLast = o.cBal, o.cLast
		return x.one("orderstatus-c", true, txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
		}.On(o.sh), x), false, false
	case 1:
		var last uint64
		if prev != nil && len(prev.Ret(o.sh)) >= 16 {
			last = uint64(txn.DecodeInt(prev.Ret(o.sh)[8:16]))
		}
		if last == 0 {
			return nil, true, false // customer has no orders yet
		}
		// The order rows were inserted: names only, no ids.
		x := carve(&o.g.orderReads)
		x.rows[0], x.rows[1] = o.g.orderRows(o.w, o.d, last)
		return x.one("orderstatus-o", true, txn.Piece{ReadSet: x.rows[:]}.On(o.sh), x), false, false
	default:
		return nil, true, false
	}
}

// Delivery decomposes because its read set is data-dependent: stage 0 reads
// each district's delivered-count and next-order-id; stage 1 advances the
// delivery head of every district with undelivered orders, assigns carriers,
// and credits customer balances (the full 10-district sweep of the spec). The
// chain is the draw, carved from g's arenas.
func (g *Gen) Delivery(rng *rand.Rand) txn.Interactive {
	dl := carve(&g.deliveries)
	dl.g, dl.w = g, g.randWarehouse(rng)
	dl.sh = g.ShardOf(dl.w)
	dl.carrier = int64(1 + rng.Intn(10))
	for d := 1; d <= g.cfg.Districts; d++ {
		dl.custs[d] = 1 + rng.Intn(g.cfg.Customers)
	}
	return dl
}

// delivery is one Delivery's draw and chain: its warehouse, carrier and the
// customer drawn in each district.
type delivery struct {
	g       *Gen
	w, sh   int
	carrier int64
	custs   [maxDistricts + 1]int
}

// deliveryScan is Delivery's first stage, which reads every district's
// delivery head and next order id.
type deliveryScan struct {
	single
	ids []txn.KeyID // head, next order id per district
}

// Run returns the columns' values back to back.
func (x *deliveryScan) Run(kv txn.KV) []byte {
	out := kv.Bytes(8 * len(x.ids))
	for _, id := range x.ids {
		out = append(out, kv.GetID(id)...)
	}
	return out
}

// deliveryRun is Delivery's second stage: its transaction and the districts
// it delivers in.
type deliveryRun struct {
	single
	todo    [maxDistricts]district
	n       int
	carrier int64
}

// district is one district a Delivery's second stage delivers in: the
// delivery head stage 0 read, the columns it moves and the carrier row of the
// order at head+1.
type district struct {
	head         int64
	noHead, cBal txn.KeyID
	carrierRow   string
}

// Next builds the chain's stages: the scan, then the deliveries.
func (dl *delivery) Next(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
	g, w, nd := dl.g, dl.w, dl.g.cfg.Districts
	tab := g.tab(dl.sh)
	switch stage {
	case 0:
		reads := g.set(2 * nd)
		for d := 1; d <= nd; d++ {
			reads.add(tab, g.dID(w, d)+colNoHead, g.dID(w, d)+colDNextOID)
		}
		x := carve(&g.scans)
		x.ids = reads.ids
		return x.one("delivery-scan", true, txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
		}.On(dl.sh), x), false, false
	case 1:
		buf := prev.Ret(dl.sh)
		var todo [maxDistricts]district
		n := 0
		// The carrier rows' names, in one string: name i ends at ends[i].
		var rowBuf [40 * maxDistricts]byte
		rows := rowBuf[:0]
		var ends [maxDistricts]int
		for d := 1; d <= nd; d++ {
			off := (d - 1) * 16
			if len(buf) < off+16 {
				break
			}
			head := txn.DecodeInt(buf[off : off+8])
			next := txn.DecodeInt(buf[off+8 : off+16])
			if head+1 < next {
				todo[n] = district{head: head, noHead: g.dID(w, d) + colNoHead, cBal: g.cID(w, d, dl.custs[d]) + colCBal}
				rows = appendKey(rows, "o_carrier", int64(w), int64(d), head+1)
				ends[n] = len(rows)
				n++
			}
		}
		if n == 0 {
			return nil, true, false
		}
		r := carve(&g.runs)
		r.todo, r.n, r.carrier = todo, n, dl.carrier
		names, start := g.rowNames(rows), 0
		room := g.room(5 * n)
		reads, writes := room.cut(2*n), room.cut(3*n)
		for i := range r.todo[:n] {
			x := &r.todo[i]
			x.carrierRow, start = names[start:ends[i]], ends[i]
			reads.add(tab, x.noHead, x.cBal)
			writes.add(tab, x.noHead)
			writes.insert(x.carrierRow)
			writes.add(tab, x.cBal)
		}
		return r.one("delivery-run", false, txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
		}.On(dl.sh), r), false, false
	default:
		return nil, true, false
	}
}

// Run is Delivery's second-stage piece: it delivers the oldest undelivered
// order of every district whose head has not moved since stage 0, and returns
// how many it delivered.
func (r *deliveryRun) Run(kv txn.KV) []byte {
	var done int64
	for _, x := range r.todo[:r.n] {
		if getInt(kv, x.noHead) != x.head {
			continue // another delivery got here first
		}
		putInt(kv, x.noHead, x.head+1)
		kv.Put(x.carrierRow, txn.Int(kv, r.carrier))
		putInt(kv, x.cBal, getInt(kv, x.cBal)+100)
		done++
	}
	return txn.Int(kv, done)
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
	reads := g.set(21)
	reads.add(tab, g.dID(w, d)+colDNextOID)
	for i := 0; i < 20; i++ {
		reads.add(tab, g.iID(w, 1+rng.Intn(g.cfg.Items))+colSQty)
	}
	x := carve(&g.stockLevels)
	x.items, x.threshold = reads.ids[1:], threshold
	return x.one("stocklevel", true, txn.Piece{ReadSet: reads.names, ReadIDs: reads.ids}.On(sh), x)
}

// stockLevel is Stock-Level's stage: the stock columns it counts and the
// threshold it counts them below.
type stockLevel struct {
	single
	items     []txn.KeyID
	threshold int64
}

// Run returns how many of the items' stock is below the threshold.
func (x *stockLevel) Run(kv txn.KV) []byte {
	var low int64
	for _, id := range x.items {
		if getInt(kv, id) < x.threshold {
			low++
		}
	}
	return txn.Int(kv, low)
}
