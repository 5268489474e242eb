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
	"sort"
	"time"

	"tiga/internal/graph"
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
	// Home maps a shard to its home region (default: shard % regions).
	Home func(shard int) int
	// DDRScan caps the pending transactions examined per arrival when
	// building the deadlock-resolution conflict graph (default 256), so
	// saturated queues do not turn per-arrival ordering into quadratic work.
	DDRScan int
}

func tid(id txn.ID) uint64 { return uint64(id.Coord)<<40 | id.Seq }

type homeReq struct {
	T     *txn.Txn
	Coord simnet.NodeID
	Homes []int
}

// seqInfo carries one home region's local sequence number for a transaction.
type seqInfo struct {
	ID     txn.ID
	Region int
	Seq    uint64
}

type replWrite struct {
	ID     txn.ID
	Shard  int
	Writes map[string][]byte
}

type replAck struct {
	ID     txn.ID
	Region int
}

type resultMsg struct {
	Region int
	ID     txn.ID
	Ret    map[int][]byte // shard -> result, for shards homed here
}

type dtxn struct {
	t       *txn.Txn
	coord   simnet.NodeID
	queued  bool
	homes   []int
	seqs    map[int]uint64 // region -> local sequence
	key     uint64         // deterministic global order key
	ordered bool
	done    bool
	acks    map[int]bool
	rets    map[int][]byte
}

// engine is one region's Detock server: it orders and executes transactions
// whose home is this region and holds a replica of all data.
type engine struct {
	sys    *System
	region int
	node   *simnet.Node
	sts    map[int]*store.Store // shard -> store (full copy per region)
	seq    uint64
	txns   map[uint64]*dtxn
	queue  []*dtxn
}

// System is a running Detock deployment.
type System struct {
	spec    Spec
	engines []*engine
	coords  []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	if spec.Regions == 0 {
		spec.Regions = 3
	}
	if spec.Home == nil {
		regions := spec.Regions
		spec.Home = func(shard int) int { return shard % regions }
	}
	if spec.GraphCost == 0 {
		spec.GraphCost = 150 * time.Nanosecond
	}
	if spec.DDRScan == 0 {
		spec.DDRScan = 256
	}
	sys := &System{spec: spec}
	for reg := 0; reg < spec.Regions; reg++ {
		node := spec.Net.AddNode(simnet.Region(reg), nil)
		en := &engine{sys: sys, region: reg, node: node,
			sts: make(map[int]*store.Store), txns: make(map[uint64]*dtxn)}
		for sh := 0; sh < spec.Shards; sh++ {
			en.sts[sh] = store.New()
			if spec.Seed != nil {
				spec.Seed(sh, en.sts[sh])
			}
		}
		node.SetHandler(en.handle)
		sys.engines = append(sys.engines, en)
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, idx: int32(len(sys.coords) + 1),
			pending: make(map[txn.ID]*pending)}
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// Start is a no-op.
func (sys *System) Start() {}

// NumCoords returns the coordinator count.
func (sys *System) NumCoords() int { return len(sys.coords) }

// Store exposes a region's copy of a shard (tests).
func (sys *System) Store(region, shard int) *store.Store { return sys.engines[region].sts[shard] }

// homesOf returns the sorted home regions involved in t.
func (sys *System) homesOf(t *txn.Txn) []int {
	set := make(map[int]bool)
	for _, sh := range t.Shards() {
		set[sys.spec.Home(sh)] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// ---- engine ----

func (en *engine) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case homeReq:
		en.onHomeReq(m)
	case seqInfo:
		en.onSeqInfo(m)
	case replWrite:
		en.onReplWrite(from, m)
	case replAck:
		en.onReplAck(m)
	}
}

// onHomeReq assigns the local sequence number and exchanges it with the other
// home regions of a multi-home transaction.
func (en *engine) onHomeReq(m homeReq) {
	id := tid(m.T.ID)
	d := en.txns[id]
	if d == nil {
		d = &dtxn{seqs: make(map[int]uint64), acks: make(map[int]bool), rets: make(map[int][]byte)}
		en.txns[id] = d
	}
	// The sequence exchange may have raced ahead of the home request:
	// enqueue exactly once, whenever the body becomes known.
	d.t = m.T
	d.homes = m.Homes
	if !d.queued {
		d.queued = true
		en.queue = append(en.queue, d)
	}
	d.coord = m.Coord
	en.seq++
	d.seqs[en.region] = en.seq
	for _, h := range m.Homes {
		if h != en.region {
			en.node.Send(en.sys.engines[h].node.ID(), seqInfo{ID: m.T.ID, Region: en.region, Seq: en.seq})
		}
	}
	en.tryOrder(d)
}

func (en *engine) onSeqInfo(m seqInfo) {
	id := tid(m.ID)
	d := en.txns[id]
	if d == nil {
		d = &dtxn{seqs: make(map[int]uint64), acks: make(map[int]bool), rets: make(map[int][]byte)}
		en.txns[id] = d
	}
	d.seqs[m.Region] = m.Seq
	en.tryOrder(d)
}

// tryOrder computes the deterministic global order key once all home regions'
// sequence numbers are known, resolving cross-region ordering cycles (DDR).
func (en *engine) tryOrder(d *dtxn) {
	if d.t == nil || d.ordered || len(d.seqs) < len(d.homes) {
		return
	}
	d.ordered = true
	var max uint64
	for _, s := range d.seqs {
		if s > max {
			max = s
		}
	}
	d.key = max<<16 | (tid(d.t.ID) & 0xffff)
	// Model the deadlock-resolution cost: build the conflict graph over
	// pending ordered transactions and check for cycles through d.
	g := graph.New()
	me := tid(d.t.ID)
	g.AddNode(me)
	// Cap the modeled deadlock-detection scan so saturated queues do not turn
	// per-arrival ordering into quadratic work (DDR only needs the recent
	// conflicting window).
	scan := en.queue
	if max := en.sys.spec.DDRScan; len(scan) > max {
		scan = scan[:max]
	}
	for _, o := range scan {
		if o == d || o.t == nil || o.done {
			continue
		}
		if o.t.ConflictsWith(d.t) {
			oid := tid(o.t.ID)
			if o.key < d.key {
				g.AddEdge(oid, me)
			} else {
				g.AddEdge(me, oid)
			}
		}
	}
	en.node.Work(en.sys.spec.GraphCost * time.Duration(g.Len()+g.Edges()))
	_ = g.HasCycleFrom(me)
	en.tryExecute()
}

// tryExecute runs ordered transactions in global key order: a transaction
// executes once every conflicting pending transaction with a smaller key has
// finished. A single pass with accumulated blocked-key sets makes this
// O(queue × keys) rather than O(queue²).
func (en *engine) tryExecute() {
	sort.SliceStable(en.queue, func(i, j int) bool { return en.queue[i].key < en.queue[j].key })
	blockedR := make(map[string]bool)
	blockedW := make(map[string]bool)
	addKeys := func(d *dtxn) {
		for _, p := range d.t.Pieces {
			for _, k := range p.ReadSet {
				blockedR[k] = true
			}
			for _, k := range p.WriteSet {
				blockedW[k] = true
			}
		}
	}
	conflicts := func(d *dtxn) bool {
		for _, p := range d.t.Pieces {
			for _, k := range p.WriteSet {
				if blockedR[k] || blockedW[k] {
					return true
				}
			}
			for _, k := range p.ReadSet {
				if blockedW[k] {
					return true
				}
			}
		}
		return false
	}
	for _, d := range en.queue {
		if d.t == nil || d.done {
			continue
		}
		if !d.ordered || conflicts(d) {
			// Unordered or blocked entries gate later conflicting ones.
			addKeys(d)
			continue
		}
		en.execute(d)
	}
	// Compact completed entries.
	live := en.queue[:0]
	for _, d := range en.queue {
		if !d.done {
			live = append(live, d)
		}
	}
	en.queue = live
}

// execute runs the pieces homed in this region and starts synchronous
// geo-replication of their writes.
func (en *engine) execute(d *dtxn) {
	d.done = true
	writes := make(map[int]map[string][]byte)
	for _, sh := range d.t.Shards() {
		if en.sys.spec.Home(sh) != en.region {
			continue
		}
		en.node.Work(en.sys.spec.ExecCost)
		piece := d.t.Pieces[sh]
		d.rets[sh], writes[sh] = en.sts[sh].ExecuteBuffered(piece)
		for k, val := range writes[sh] {
			en.sts[sh].Seed(k, val)
		}
	}
	// Synchronous geo-replication: wait for f=1 remote ack before reporting.
	// Replicate in shard order — send order feeds the simulation's event
	// order, so map iteration here would diverge runs.
	repShards := make([]int, 0, len(writes))
	for sh := range writes {
		repShards = append(repShards, sh)
	}
	sort.Ints(repShards)
	d.acks[en.region] = true
	for reg := 0; reg < en.sys.spec.Regions; reg++ {
		if reg == en.region {
			continue
		}
		for _, sh := range repShards {
			en.node.Send(en.sys.engines[reg].node.ID(), replWrite{ID: d.t.ID, Shard: sh, Writes: writes[sh]})
		}
	}
}

func (en *engine) onReplWrite(from simnet.NodeID, m replWrite) {
	for k, v := range m.Writes {
		en.sts[m.Shard].Seed(k, v)
	}
	en.node.Send(from, replAck{ID: m.ID, Region: en.region})
}

func (en *engine) onReplAck(m replAck) {
	d := en.txns[tid(m.ID)]
	if d == nil || !d.done {
		return
	}
	d.acks[m.Region] = true
	if len(d.acks) >= 2 && len(d.rets) > 0 { // self + 1 remote = majority of 3
		en.node.Send(d.coord, resultMsg{Region: en.region, ID: m.ID, Ret: d.rets})
		d.rets = make(map[int][]byte) // reply once
	}
}

// ---- coordinator ----

type pending struct {
	t       *txn.Txn
	done    func(txn.Result)
	results map[int][]byte
	homes   int
	got     map[int]bool
}

type coordinator struct {
	sys     *System
	node    *simnet.Node
	idx     int32
	seq     uint64
	pending map[txn.ID]*pending
}

// Submit dispatches t to the engines of its home regions.
func (sys *System) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[coord]
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	homes := sys.homesOf(t)
	co.pending[t.ID] = &pending{t: t, done: done, results: make(map[int][]byte),
		homes: len(homes), got: make(map[int]bool)}
	m := homeReq{T: t, Coord: co.node.ID(), Homes: homes}
	for _, h := range homes {
		co.node.Send(sys.engines[h].node.ID(), m)
	}
}

func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(resultMsg)
	if !ok {
		return
	}
	p := co.pending[m.ID]
	if p == nil || p.got[m.Region] {
		return
	}
	p.got[m.Region] = true
	for sh, ret := range m.Ret {
		p.results[sh] = ret
	}
	if len(p.got) < p.homes {
		return
	}
	delete(co.pending, m.ID)
	p.done(txn.Result{OK: true, PerShard: p.results})
}
