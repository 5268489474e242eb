// Package janus implements the Janus baseline (Mu et al., OSDI 2016): a
// consolidated protocol that tracks dependencies among conflicting
// transactions during a pre-accept round and executes strongly connected
// components of the dependency graph in a deterministic order.
//
// Fast path (consistent dependencies at a super quorum of every shard):
// pre-accept (1 WRTT) + commit broadcast and execution (1 WRTT) = 2 WRTTs.
// Inconsistent dependencies add an accept round (3 WRTTs). Janus never
// aborts, but its graph computation is CPU-intensive under contention — the
// throughput collapse Tiga's timestamp ordering avoids (§5.2, Fig 9).
package janus

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
	F            int
	Net          *simnet.Network
	ServerRegion func(shard, replica int) simnet.Region
	CoordRegions []simnet.Region
	Seed         func(shard int, st *store.Store)
	ExecCost     time.Duration
	// GraphCost is the CPU charged per graph node visited during SCC.
	GraphCost time.Duration
	// NoFastPath forces the accept round even when a super quorum reports
	// identical dependencies (the "fast-path" knob, inverted so the zero
	// value keeps Janus's normal 2-WRTT fast path).
	NoFastPath bool
}

func tid(id txn.ID) uint64 { return uint64(id.Coord)<<40 | id.Seq }

type preaccept struct {
	T     *txn.Txn
	Coord simnet.NodeID
}

type preacceptRep struct {
	Shard   int
	Replica int
	ID      txn.ID
	Deps    []uint64
}

type acceptMsg struct {
	ID    txn.ID
	Deps  []uint64
	Coord simnet.NodeID
}

type acceptRep struct {
	Shard   int
	Replica int
	ID      txn.ID
}

type commitMsg struct {
	ID    txn.ID
	T     *txn.Txn
	Deps  []uint64
	Coord simnet.NodeID
}

type execResult struct {
	Shard int
	ID    txn.ID
	Ret   []byte
}

type jtxn struct {
	t         *txn.Txn
	deps      []uint64
	committed bool
	executed  bool
	pending   int // unexecuted local dependencies
	coord     simnet.NodeID
}

type replica struct {
	sys     *System
	shard   int
	rep     int
	node    *simnet.Node
	st      *store.Store
	lastKey map[string]uint64 // key -> last conflicting txn seen
	txns    map[uint64]*jtxn
	unexec  map[uint64]bool
	// waiters maps an unexecuted dependency to the transactions waiting on
	// it, so a commit only wakes its dependents instead of rescanning the
	// whole graph.
	waiters map[uint64][]uint64
}

// System is a running Janus deployment.
type System struct {
	spec     Spec
	replicas [][]*replica
	coords   []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	if spec.GraphCost == 0 {
		spec.GraphCost = 150 * time.Nanosecond
	}
	sys := &System{spec: spec}
	n := 2*spec.F + 1
	sys.replicas = make([][]*replica, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.replicas[s] = make([]*replica, n)
		for r := 0; r < n; r++ {
			node := spec.Net.AddNode(spec.ServerRegion(s, r), nil)
			rp := &replica{sys: sys, shard: s, rep: r, node: node, st: store.New(),
				lastKey: make(map[string]uint64), txns: make(map[uint64]*jtxn),
				unexec: make(map[uint64]bool), waiters: make(map[uint64][]uint64)}
			if spec.Seed != nil {
				spec.Seed(s, rp.st)
			}
			node.SetHandler(rp.handle)
			sys.replicas[s][r] = rp
		}
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

// Store exposes a replica store (tests).
func (sys *System) Store(shard, rep int) *store.Store { return sys.replicas[shard][rep].st }

func (sys *System) superQuorum() int { return 1 + sys.spec.F + (sys.spec.F+1)/2 }

// ---- replica ----

func (rp *replica) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case preaccept:
		rp.onPreaccept(m)
	case acceptMsg:
		rp.onAccept(m)
	case commitMsg:
		rp.onCommit(m)
	}
}

// onPreaccept records the transaction and returns its direct dependencies:
// the last conflicting transaction seen on each accessed key.
func (rp *replica) onPreaccept(m preaccept) {
	id := tid(m.T.ID)
	piece := m.T.Piece(rp.shard)
	depSet := make(map[uint64]bool)
	for _, k := range append(append([]string(nil), piece.ReadSet...), piece.WriteSet...) {
		if d, ok := rp.lastKey[k]; ok && d != id {
			depSet[d] = true
		}
		rp.lastKey[k] = id
	}
	deps := make([]uint64, 0, len(depSet))
	for d := range depSet {
		deps = append(deps, d)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	if rp.txns[id] == nil {
		rp.txns[id] = &jtxn{t: m.T, deps: deps, coord: m.Coord}
	}
	rp.node.Work(rp.sys.spec.GraphCost * time.Duration(1+len(deps)))
	rp.node.Send(m.Coord, preacceptRep{Shard: rp.shard, Replica: rp.rep, ID: m.T.ID, Deps: deps})
}

func (rp *replica) onAccept(m acceptMsg) {
	id := tid(m.ID)
	if jt := rp.txns[id]; jt != nil {
		jt.deps = m.Deps
	}
	rp.node.Send(m.Coord, acceptRep{Shard: rp.shard, Replica: rp.rep, ID: m.ID})
}

// onCommit finalizes the dependencies and triggers execution once every
// local dependency has executed. Dependents are woken through the waiter
// index; conflict cycles are resolved by Tarjan SCC over the committed
// closure — the expensive graph work the paper contrasts with Tiga's
// timestamps.
func (rp *replica) onCommit(m commitMsg) {
	id := tid(m.ID)
	jt := rp.txns[id]
	if jt == nil {
		jt = &jtxn{t: m.T, coord: m.Coord}
		rp.txns[id] = jt
	}
	if jt.committed {
		return
	}
	jt.committed = true
	jt.coord = m.Coord
	jt.deps = m.Deps
	rp.unexec[id] = true
	rp.node.Work(rp.sys.spec.GraphCost * time.Duration(1+len(jt.deps)))
	for _, d := range jt.deps {
		dt := rp.txns[d]
		if dt == nil || dt.executed {
			continue // foreign or already-executed dependency
		}
		jt.pending++
		rp.waiters[d] = append(rp.waiters[d], id)
	}
	if jt.pending == 0 {
		rp.execute(id)
		return
	}
	rp.maybeResolveCycle(id)
}

// maybeResolveCycle runs when a committed transaction is blocked: if every
// transitively reachable unexecuted dependency is itself committed, the
// blockage is a conflict cycle; resolve it deterministically via SCC.
func (rp *replica) maybeResolveCycle(start uint64) {
	// Collect the committed closure reachable from start.
	closure := map[uint64]bool{start: true}
	stack := []uint64{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range rp.txns[id].deps {
			dt := rp.txns[d]
			if dt == nil || dt.executed || closure[d] {
				continue
			}
			if !dt.committed {
				return // genuinely waiting on an uncommitted dependency
			}
			closure[d] = true
			stack = append(stack, d)
		}
	}
	g := graph.New()
	for id := range closure {
		g.AddNode(id)
		for _, d := range rp.txns[id].deps {
			if closure[d] {
				g.AddEdge(id, d)
			}
		}
	}
	rp.node.Work(rp.sys.spec.GraphCost * time.Duration(g.Len()+g.Edges()))
	for _, comp := range g.SCC() {
		ok := true
		for _, id := range comp {
			for _, d := range rp.txns[id].deps {
				dt := rp.txns[d]
				if dt != nil && !dt.executed && !inComp(comp, d) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			return // an earlier component is still blocked
		}
		for _, id := range comp {
			if !rp.txns[id].executed {
				rp.execute(id)
			}
		}
	}
}

func inComp(comp []uint64, id uint64) bool {
	for _, c := range comp {
		if c == id {
			return true
		}
	}
	return false
}

func (rp *replica) execute(id uint64) {
	jt := rp.txns[id]
	if jt.executed {
		return
	}
	jt.executed = true
	delete(rp.unexec, id)
	rp.node.Work(rp.sys.spec.ExecCost)
	ret := rp.st.ExecuteID(jt.t.ID, txn.Timestamp{Time: time.Duration(id)}, jt.t.Piece(rp.shard))
	rp.st.Commit(jt.t.ID)
	if rp.rep == 0 { // the shard leader reports the execution result
		rp.node.Send(jt.coord, execResult{Shard: rp.shard, ID: jt.t.ID, Ret: ret})
	}
	// Wake dependents.
	ws := rp.waiters[id]
	delete(rp.waiters, id)
	for _, w := range ws {
		wt := rp.txns[w]
		wt.pending--
		if wt.pending == 0 && wt.committed && !wt.executed {
			rp.execute(w)
		}
	}
}

// ---- coordinator ----

type pending struct {
	t        *txn.Txn
	done     func(txn.Result)
	votes    map[int]map[int]preacceptRep
	accepts  map[int]map[int]bool
	results  []txn.ShardRet
	deps     []uint64
	phase    int // 0 preaccept, 1 accept, 2 commit
	fastPath bool
}

type coordinator struct {
	sys     *System
	node    *simnet.Node
	idx     int32
	seq     uint64
	pending map[txn.ID]*pending
}

// Submit runs Janus's pre-accept/accept/commit protocol for t.
func (sys *System) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[coord]
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	p := &pending{t: t, done: done, fastPath: !sys.spec.NoFastPath,
		votes:   make(map[int]map[int]preacceptRep),
		accepts: make(map[int]map[int]bool),
		results: make([]txn.ShardRet, 0, len(t.Pieces))}
	co.pending[t.ID] = p
	co.multicast(t, preaccept{T: t, Coord: co.node.ID()})
}

// multicast sends m to every replica of t's shards, in shard then replica order.
func (co *coordinator) multicast(t *txn.Txn, m simnet.Message) {
	for i := range t.Pieces {
		for _, rp := range co.sys.replicas[t.Pieces[i].Shard()] {
			co.node.Send(rp.node.ID(), m)
		}
	}
}

func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case preacceptRep:
		co.onPreacceptRep(m)
	case acceptRep:
		co.onAcceptRep(m)
	case execResult:
		co.onResult(m)
	}
}

func (co *coordinator) onPreacceptRep(m preacceptRep) {
	p := co.pending[m.ID]
	if p == nil || p.phase != 0 {
		return
	}
	byRep := p.votes[m.Shard]
	if byRep == nil {
		byRep = make(map[int]preacceptRep)
		p.votes[m.Shard] = byRep
	}
	byRep[m.Replica] = m
	// Per shard: fast if a super quorum reports identical deps.
	n := 2*co.sys.spec.F + 1
	sq := co.sys.superQuorum()
	union := make(map[uint64]bool)
	for i := range p.t.Pieces {
		votes := p.votes[p.t.Pieces[i].Shard()]
		if len(votes) < sq {
			return
		}
		counts := make(map[string]int)
		fastQuorum := false
		for _, v := range votes {
			k := depsKey(v.Deps)
			counts[k]++
			if counts[k] >= sq {
				// A super quorum reported identical dependencies — including
				// the legitimate EMPTY dependency list, whose key is "". (An
				// earlier version used a `bestKey == ""` sentinel here, which
				// collided with that empty-deps key: dependency-free
				// transactions always paid the accept round, +1 WRTT.)
				fastQuorum = true
			}
		}
		if !fastQuorum {
			if len(votes) < n {
				return // more votes may still form a fast quorum
			}
			p.fastPath = false
		}
		for _, v := range votes {
			for _, d := range v.Deps {
				union[d] = true
			}
		}
	}
	p.deps = sortedDeps(union)
	if p.fastPath {
		co.commit(p)
		return
	}
	// Accept round with the union dependencies.
	p.phase = 1
	co.multicast(p.t, acceptMsg{ID: p.t.ID, Deps: p.deps, Coord: co.node.ID()})
}

func (co *coordinator) onAcceptRep(m acceptRep) {
	p := co.pending[m.ID]
	if p == nil || p.phase != 1 {
		return
	}
	byRep := p.accepts[m.Shard]
	if byRep == nil {
		byRep = make(map[int]bool)
		p.accepts[m.Shard] = byRep
	}
	byRep[m.Replica] = true
	for i := range p.t.Pieces {
		if len(p.accepts[p.t.Pieces[i].Shard()]) < co.sys.spec.F+1 {
			return
		}
	}
	co.commit(p)
}

func (co *coordinator) commit(p *pending) {
	p.phase = 2
	co.multicast(p.t, commitMsg{ID: p.t.ID, T: p.t, Deps: p.deps, Coord: co.node.ID()})
}

func (co *coordinator) onResult(m execResult) {
	p := co.pending[m.ID]
	if p == nil {
		return
	}
	p.results = txn.PutRet(p.results, m.Shard, m.Ret)
	if len(p.results) < len(p.t.Pieces) {
		return
	}
	delete(co.pending, m.ID)
	p.done(txn.Result{OK: true, FastPath: p.fastPath, PerShard: p.results})
}

func depsKey(deps []uint64) string {
	b := make([]byte, 0, len(deps)*8)
	for _, d := range deps {
		for i := 0; i < 8; i++ {
			b = append(b, byte(d>>(8*i)))
		}
	}
	return string(b)
}

func sortedDeps(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
