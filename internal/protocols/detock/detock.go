// Package detock implements the Detock baseline (Nguyen et al., SIGMOD 2023):
// data items have per-region home directories; each home region orders the
// transactions touching its data in a local log; multi-home transactions
// exchange ordering information between their home regions and are ordered by
// deterministic deadlock resolution over the dependency graph. Per the
// paper's setup (§5.1), geo-replication at commit is synchronous (so region
// failures are tolerated) and home directories are spread evenly across
// regions.
//
// Costs: dependency collection across home regions (0.5–1 WRTT), graph-based
// cycle resolution (CPU), and synchronous replication (1 WRTT) — 2.5+ WRTTs
// for multi-home transactions.
package detock

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Spec describes the deployment.
type Spec struct {
	Shards       int
	Regions      int
	Net          *simnet.Network
	CoordRegions []simnet.Region
	Seed         func(shard int, st *store.Store)
	ExecCost     time.Duration
	GraphCost    time.Duration
	// DDRScan caps the pending transactions examined per arrival when
	// building the deadlock-resolution conflict graph (at least 1), so
	// saturated queues do not turn per-arrival ordering into quadratic work.
	DDRScan int
}

// Home returns a shard's home region: shard mod Regions, so the home
// directories are spread across regions.
func (s *Spec) Home(shard int) int { return shard % s.Regions }

func tid(id txn.ID) uint64 { return uint64(id.Coord)<<40 | id.Seq }

// homeSet is a set of home regions, one bit each (New admits at most 64
// regions).
type homeSet uint64

func (hs homeSet) len() int { return bits.OnesCount64(uint64(hs)) }

// Message ownership. A coordinator's *homeReq is carved once per transaction
// from its arena (coordinator.homeReqs) and shared by its home engines, which
// keep its Txn. The four unicast messages below are drawn from the sending
// engine's list and carry it as src; the receiver copies the fields out (a
// replWrite is applied first) and puts the message back there. A replWrite is
// one per destination and shard, so its Writes buffer is that copy's own.
type homeReq struct {
	T     *txn.Txn
	Coord simnet.NodeID
	Homes homeSet
}

// seqInfo carries one home region's (src's) local sequence number for a
// transaction.
type seqInfo struct {
	src *engine
	ID  txn.ID
	Seq uint64
}

type replWrite struct {
	src    *engine
	ID     txn.ID
	Shard  int
	Writes []store.Write
}

type replAck struct {
	src *engine
	ID  txn.ID
}

type resultMsg struct {
	src *engine
	ID  txn.ID
	Ret []txn.ShardRet // results of the shards homed at the sender
}

// dtxn is one transaction at one of its home engines, drawn from the engine's
// recs at the first message that mentions it and put back at the first
// replication ack; it keeps its slices' backing arrays across uses.
type dtxn struct {
	t     *txn.Txn
	coord simnet.NodeID
	homes homeSet
	// local is this region's sequence number for the transaction (0 until
	// its home request arrives), top the largest of the home regions' known so
	// far, and nseq how many of them are known.
	local, top uint64
	nseq       int
	// key is the deterministic global order key (0 while unordered); tie
	// places the transaction among equal keys, see order.
	key     uint64
	tie     int64
	ordered bool
	done    bool
	isCand  bool
	mark    uint64
	acc     []access
	rets    []txn.ShardRet
}

// compare orders ordered transactions by (key, tie).
func (d *dtxn) compare(o *dtxn) int {
	if c := cmp.Compare(d.key, o.key); c != 0 {
		return c
	}
	return cmp.Compare(d.tie, o.tie)
}

// keyQ is the wait state of one key: the queued transactions that touch it.
// It exists while there is one.
type keyQ struct {
	k   uint64
	un  []waiter // not yet ordered; every one gates the ordered ones
	unW int      // writers among un
	ord []waiter // ordered and not executed, ascending
}

// waiter is a transaction in a key's wait lists; a transaction that reads and
// writes the key waits as a writer.
type waiter struct {
	d     *dtxn
	write bool
}

// access is one key of a queued transaction.
type access struct {
	q     *keyQ
	write bool
}

// engine is one region's Detock server: it orders and executes transactions
// whose home is this region and holds a replica of all data.
//
// The queue of the transactions it knows and has not executed is kept in two
// halves: unordered, by arrival, and ordered, ascending by (key, tie).
// An ordered transaction executes once no queued transaction before it —
// every unordered one, and the ordered ones below it — conflicts with it. The
// per-key wait lists answer that from the transaction's own keys, so ordering
// one transaction costs its keys and the transactions waiting on them, not the
// queue.
type engine struct {
	sys    *System
	region int
	node   *simnet.Node
	sts    []*store.Store // shard -> store (full copy per region)
	seq    uint64
	txns   map[uint64]*dtxn

	unordered []*dtxn // ascending by local sequence number
	ordered   []*dtxn
	// seen is how many of unordered were queued when the last transaction was
	// ordered; those and the ordered ones precede the later arrivals in the
	// deadlock-resolution scan.
	seen   int
	orders int64
	keys   map[uint64]*keyQ
	freeQ  []*keyQ
	cand   []*dtxn // release candidates, descending
	marks  uint64
	packed []uint64
	writes []store.Write // execute's write buffer, copied into each replWrite
	spans  []int         // execute: where each replicated shard's writes end

	recs    *pool.Free[dtxn]
	infos   *pool.Free[seqInfo]
	repls   *pool.Free[replWrite]
	acks    *pool.Free[replAck]
	results *pool.Free[resultMsg]

	// probes counts the wait-list entries and per-key states examined (tests
	// bound it per transaction).
	probes int64
	// onCharge, when a test sets it, sees every deadlock-resolution charge
	// (exec false) and every execution (exec true) as it happens.
	onCharge func(d *dtxn, exec bool, work time.Duration)
}

// System is a running Detock deployment.
type System struct {
	spec    Spec
	engines []*engine
	coords  []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	if spec.Regions > 64 {
		panic("detock: more than 64 regions")
	}
	sys := &System{spec: spec}
	for reg := 0; reg < spec.Regions; reg++ {
		node := spec.Net.AddNode(simnet.Region(reg), nil)
		en := &engine{sys: sys, region: reg, node: node,
			txns: make(map[uint64]*dtxn), keys: make(map[uint64]*keyQ),
			recs: pool.New[dtxn](), infos: pool.New[seqInfo](), repls: pool.New[replWrite](),
			acks: pool.New[replAck](), results: pool.New[resultMsg]()}
		for sh := 0; sh < spec.Shards; sh++ {
			st := store.New()
			if spec.Seed != nil {
				spec.Seed(sh, st)
			}
			en.sts = append(en.sts, st)
		}
		node.SetHandler(en.handle)
		sys.engines = append(sys.engines, en)
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{node: node, tab: coord.New[pending](int32(len(sys.coords)+1), node),
			homeReqs: pool.NewArena[homeReq](coord.PayloadChunk)}
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// Start is a no-op.
func (sys *System) Start() {}

// Store exposes a region's copy of a shard (tests).
func (sys *System) Store(region, shard int) *store.Store { return sys.engines[region].sts[shard] }

// homesOf returns the home regions involved in t.
func (sys *System) homesOf(t *txn.Txn) homeSet {
	var hs homeSet
	for i := range t.Pieces {
		hs |= 1 << sys.spec.Home(t.Pieces[i].Shard())
	}
	return hs
}

// ---- engine ----

func (en *engine) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *homeReq:
		en.onHomeReq(*m)
	case *seqInfo:
		en.onSeqInfo(m)
	case *replWrite:
		en.onReplWrite(from, m)
	case *replAck:
		en.onReplAck(m)
	}
}

// lookup returns the engine's record of a transaction, creating it at the
// first message that mentions it.
func (en *engine) lookup(id txn.ID) *dtxn {
	d := en.txns[tid(id)]
	if d == nil {
		d = en.recs.Get()
		*d = dtxn{acc: d.acc[:0], rets: d.rets[:0]}
		en.txns[tid(id)] = d
	}
	return d
}

// setSeq takes a home region's sequence number; each reports it once.
func (d *dtxn) setSeq(seq uint64) {
	d.nseq++
	d.top = max(d.top, seq)
}

// onHomeReq assigns the local sequence number and exchanges it with the other
// home regions of a multi-home transaction.
func (en *engine) onHomeReq(m homeReq) {
	// The sequence exchange may have raced ahead of the home request: the
	// transaction is queued here, where its body becomes known.
	d := en.lookup(m.T.ID)
	d.t = m.T
	d.homes = m.Homes
	d.coord = m.Coord
	en.seq++
	d.local = en.seq
	d.setSeq(en.seq)
	en.enqueue(d)
	for hs := m.Homes; hs != 0; hs &= hs - 1 {
		if h := bits.TrailingZeros64(uint64(hs)); h != en.region {
			s := en.infos.Get()
			*s = seqInfo{src: en, ID: m.T.ID, Seq: en.seq}
			en.node.Send(en.sys.engines[h].node.ID(), s)
		}
	}
	en.tryOrder(d)
}

func (en *engine) onSeqInfo(m *seqInfo) {
	id, seq := m.ID, m.Seq
	m.src.infos.Put(m)
	d := en.lookup(id)
	d.setSeq(seq)
	en.tryOrder(d)
}

// enqueue puts d behind the unordered transactions and enters it in the wait
// list of every key it touches, on any shard: an unordered transaction gates
// every conflicting ordered one, wherever the conflict is homed.
func (en *engine) enqueue(d *dtxn) {
	en.unordered = append(en.unordered, d)
	ks := en.packed[:0]
	for i := range d.t.Pieces {
		p := &d.t.Pieces[i]
		sh := p.Shard()
		ks = en.pack(ks, sh, p.ReadSet, p.ReadIDs, 0)
		ks = en.pack(ks, sh, p.WriteSet, p.WriteIDs, 1)
	}
	// A key read and written sorts its write last: keep the last of each key.
	slices.Sort(ks)
	d.acc = slices.Grow(d.acc[:0], len(ks))
	for i, k := range ks {
		if i+1 < len(ks) && ks[i+1]>>1 == k>>1 {
			continue
		}
		q := en.keyQ(k >> 1)
		w := waiter{d, k&1 == 1}
		q.un = append(q.un, w)
		if w.write {
			q.unW++
		}
		d.acc = append(d.acc, access{q, w.write})
	}
	en.packed = ks
}

// pack appends one access set of a piece as (shard, KeyID, write) words, the
// ids being those of this region's copy of the shard (store.ID), so a name
// and an id of one key share a wait list.
func (en *engine) pack(ks []uint64, shard int, names []string, ids []txn.KeyID, write uint64) []uint64 {
	st := en.sts[shard]
	for i := range names {
		ks = append(ks, (uint64(shard)<<32|uint64(st.ID(names, ids, i)))<<1|write)
	}
	return ks
}

func (en *engine) keyQ(k uint64) *keyQ {
	en.probes++
	q := en.keys[k]
	if q == nil {
		if n := len(en.freeQ); n > 0 {
			q, en.freeQ = en.freeQ[n-1], en.freeQ[:n-1]
		} else {
			q = new(keyQ)
		}
		q.k = k
		en.keys[k] = q
	}
	return q
}

// tryOrder computes the deterministic global order key once all home regions'
// sequence numbers are known, charges the deadlock resolution (DDR) over the
// scan window, and executes what the newly ordered transaction releases.
func (en *engine) tryOrder(d *dtxn) {
	if d.t == nil || d.ordered || d.nseq < d.homes.len() {
		return
	}
	d.ordered = true
	d.key = d.top<<16 | (tid(d.t.ID) & 0xffff)
	// Model the deadlock-resolution cost: a conflict graph of d and the
	// pending transactions in the scan window that conflict with it has one
	// node and one edge per such transaction.
	ddr := en.sys.spec.GraphCost * time.Duration(1+2*en.windowConflicts(d))
	en.node.Work(ddr)
	if en.onCharge != nil {
		en.onCharge(d, false, ddr)
	}
	en.order(d)
}

// windowConflicts counts the queued transactions within the DDR scan window
// that conflict with d on a common shard. The window is the first DDRScan
// transactions of the queue as it stood before d was ordered: the unordered
// ones seen by the previous ordering, the ordered ones, then the arrivals
// since. Capping the scan keeps saturated queues from turning per-arrival
// ordering into quadratic work (DDR only needs the recent conflicting window).
func (en *engine) windowConflicts(d *dtxn) int {
	en.marks++
	n := 0
	for _, a := range d.acc {
		n += en.countConflicts(a.q.un, d, a.write)
		n += en.countConflicts(a.q.ord, d, a.write)
	}
	return n
}

func (en *engine) countConflicts(ws []waiter, d *dtxn, write bool) int {
	en.probes += int64(len(ws))
	n := 0
	for _, w := range ws {
		if o := w.d; o != d && (write || w.write) && o.mark != en.marks {
			o.mark = en.marks
			if en.inWindow(o) {
				n++
			}
		}
	}
	return n
}

func (en *engine) inWindow(o *dtxn) bool {
	scan := en.sys.spec.DDRScan
	if len(en.unordered)+len(en.ordered) <= scan {
		return true
	}
	if o.ordered {
		return en.seen+en.ordIndex(o) < scan
	}
	rank := en.unIndex(o)
	if rank >= en.seen {
		rank += len(en.ordered)
	}
	return rank < scan
}

func (en *engine) unIndex(d *dtxn) int {
	i, _ := slices.BinarySearchFunc(en.unordered, d.local, func(o *dtxn, seq uint64) int {
		return cmp.Compare(o.local, seq)
	})
	return i
}

// ordIndex returns where d is, or belongs, in ordered.
func (en *engine) ordIndex(d *dtxn) int {
	i, _ := slices.BinarySearchFunc(en.ordered, d, (*dtxn).compare)
	return i
}

// order moves d from the unordered half to its place among the ordered and
// executes, in ascending order, every ordered transaction this leaves with no
// conflicting transaction before it.
//
// Equal keys — max<<16 | low 16 bits of the id — go by how the queue stood
// when d was ordered: a transaction that had been queued, unordered, through
// an earlier ordering stood before every ordered one and stays before its
// equals; one that arrived since stood behind them and stays behind. One
// transaction is ordered at a time, so ±orders is a unique tie-break.
func (en *engine) order(d *dtxn) {
	en.orders++
	i := en.unIndex(d)
	d.tie = -en.orders
	if i >= en.seen {
		d.tie = en.orders
	}
	en.unordered = slices.Delete(en.unordered, i, i+1)
	en.ordered = slices.Insert(en.ordered, en.ordIndex(d), d)
	for _, a := range d.acc {
		q := a.q
		q.un = en.drop(q.un, d)
		if a.write {
			q.unW--
		}
		j := 0
		for j < len(q.ord) && q.ord[j].d.compare(d) < 0 {
			j++
		}
		en.probes += int64(j + 1)
		q.ord = slices.Insert(q.ord, j, waiter{d, a.write})
		en.wake(q)
	}
	en.push(d)
	for n := len(en.cand); n > 0; n = len(en.cand) {
		e := en.cand[n-1]
		en.cand[n-1] = nil
		en.cand = en.cand[:n-1]
		e.isCand = false
		if en.free(e) {
			en.execute(e)
		}
	}
	en.seen = len(en.unordered)
}

// drop takes d out of a wait list.
func (en *engine) drop(ws []waiter, d *dtxn) []waiter {
	j := slices.IndexFunc(ws, func(w waiter) bool { return w.d == d })
	en.probes += int64(j + 1)
	return slices.Delete(ws, j, j+1)
}

// wake makes candidates of the transactions at the head of q's ordered list:
// the leading readers, or the writer when it is first.
func (en *engine) wake(q *keyQ) {
	if q.unW > 0 {
		return
	}
	for i, w := range q.ord {
		en.probes++
		if w.write {
			if i == 0 {
				en.push(w.d)
			}
			return
		}
		en.push(w.d)
	}
}

func (en *engine) push(d *dtxn) {
	if d.isCand {
		return
	}
	d.isCand = true
	i, _ := slices.BinarySearchFunc(en.cand, d, func(o, d *dtxn) int { return d.compare(o) })
	en.cand = slices.Insert(en.cand, i, d)
}

// free reports whether no queued transaction before the ordered e conflicts
// with it.
func (en *engine) free(e *dtxn) bool {
	for _, a := range e.acc {
		q := a.q
		en.probes++
		if a.write {
			if len(q.un) > 0 || q.ord[0].d != e {
				return false
			}
			continue
		}
		if q.unW > 0 {
			return false
		}
		for _, w := range q.ord {
			if w.d == e {
				break
			}
			en.probes++
			if w.write {
				return false
			}
		}
	}
	return true
}

// execute runs the pieces homed in this region and starts synchronous
// geo-replication of their writes.
func (en *engine) execute(d *dtxn) {
	d.done = true
	i := en.ordIndex(d)
	en.ordered = slices.Delete(en.ordered, i, i+1)
	for _, a := range d.acc {
		q := a.q
		q.ord = en.drop(q.ord, d)
		switch {
		case len(q.ord) > 0:
			// A writer left the head, or the last reader before a writer did.
			if a.write || q.ord[0].write {
				en.wake(q)
			}
		case len(q.un) == 0:
			delete(en.keys, q.k)
			en.freeQ = append(en.freeQ, q)
		}
	}
	spec := &en.sys.spec
	var work time.Duration
	// The shards homed here execute, in shard order, into one buffer: shard
	// j's writes are writes[spans[j-1]:spans[j]].
	ws, spans := en.writes[:0], en.spans[:0]
	for i := range d.t.Pieces {
		sh := d.t.Pieces[i].Shard()
		if spec.Home(sh) != en.region {
			continue
		}
		work += spec.ExecCost
		start := len(ws)
		var ret []byte
		ret, ws = en.sts[sh].ExecuteBuffered(ws, &d.t.Pieces[i])
		d.rets = append(d.rets, txn.ShardRet{Shard: sh, Ret: ret})
		en.sts[sh].Apply(ws[start:])
		spans = append(spans, len(ws))
	}
	en.writes, en.spans = ws, spans
	en.node.Work(work)
	if en.onCharge != nil {
		en.onCharge(d, true, work)
	}
	// Synchronous geo-replication: wait for f=1 remote ack before reporting.
	// Each region gets its own copy of each shard's writes, in shard order —
	// send order feeds the simulation's event order.
	for reg, o := range en.sys.engines {
		if reg == en.region {
			continue
		}
		start := 0
		for j, end := range spans {
			r := en.repls.Get()
			*r = replWrite{src: en, ID: d.t.ID, Shard: d.rets[j].Shard, Writes: append(r.Writes[:0], ws[start:end]...)}
			en.node.Send(o.node.ID(), r)
			start = end
		}
	}
}

func (en *engine) onReplWrite(from simnet.NodeID, m *replWrite) {
	en.sts[m.Shard].Apply(m.Writes)
	id := m.ID
	m.src.repls.Put(m)
	a := en.acks.Get()
	*a = replAck{src: en, ID: id}
	en.node.Send(from, a)
}

// onReplAck reports to the coordinator at the first remote ack — with the
// local copy a majority of 3 — and recycles the transaction's record: nothing
// but the remaining acks can mention it again, and they find no record.
func (en *engine) onReplAck(m *replAck) {
	id := m.ID
	m.src.acks.Put(m)
	d := en.txns[tid(id)]
	if d == nil || !d.done {
		return
	}
	r := en.results.Get()
	*r = resultMsg{src: en, ID: id, Ret: append(r.Ret[:0], d.rets...)}
	en.node.Send(d.coord, r)
	delete(en.txns, tid(id))
	en.recs.Put(d)
}

// ---- coordinator ----

type pending struct {
	coord.Attempt
	homes int // home regions still to report
}

type coordinator struct {
	node     *simnet.Node
	tab      *coord.Table[pending, *pending]
	homeReqs pool.Arena[homeReq]
}

// Submit dispatches t to the engines of its home regions.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	homes := sys.homesOf(t)
	co.tab.Begin(t, done).homes = homes.len()
	m := co.homeReqs.New(homeReq{T: t, Coord: co.node.ID(), Homes: homes})
	for hs := homes; hs != 0; hs &= hs - 1 {
		co.node.Send(sys.engines[bits.TrailingZeros64(uint64(hs))].node.ID(), m)
	}
}

// handle takes a home engine's result: it copies the returns out and puts the
// message back on its sender's list before acting on them.
func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(*resultMsg)
	if !ok {
		return
	}
	p := co.tab.Get(m.ID)
	if p != nil {
		for _, r := range m.Ret {
			co.tab.Fold(p, r.Shard, r.Ret)
		}
		p.homes-- // each home engine reports exactly once
	}
	m.src.results.Put(m)
	if p != nil && p.homes == 0 {
		co.tab.Finish(p, txn.Result{OK: true})
	}
}
