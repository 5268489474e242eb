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
//
// Replies are pooled (see pool.Free for the lifecycle rules): a replica draws
// each pre-accept reply, accept reply and execution result from its own
// freelist, the message carries its sender and so the list it came from, and
// the coordinator's handle copies the fields out and puts it back before it
// acts on them. A reply the network drops is simply never put back. The
// multicast pre-accept, accept and commit messages share one payload between
// their destinations, carved from the coordinator's arenas and never
// recycled; the dependency lists they carry are retained by every replica's
// record, so those are never pooled either.
package janus

import (
	"math/bits"
	"slices"
	"time"

	"tiga/internal/graph"
	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
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
	// FastPath commits on identical super-quorum dependencies in 2 WRTTs;
	// false forces the accept round even then.
	FastPath bool
}

func tid(id txn.ID) uint64 { return uint64(id.Coord)<<40 | id.Seq }

type preaccept struct {
	T     *txn.Txn
	Coord simnet.NodeID
}

// preacceptRep is a replica's dependency vote; src is the replica, which
// names the shard and replica the vote stands for and owns the list the
// message goes back to.
type preacceptRep struct {
	src  *replica
	ID   txn.ID
	Deps []uint64
}

type acceptMsg struct {
	ID    txn.ID
	Deps  []uint64
	Coord simnet.NodeID
}

type acceptRep struct {
	src *replica
	ID  txn.ID
}

type commitMsg struct {
	ID    txn.ID
	T     *txn.Txn
	Deps  []uint64
	Coord simnet.NodeID
}

// execResult is a shard leader's execution result for the coordinator.
type execResult struct {
	src *replica
	ID  txn.ID
	Ret []byte
}

type jtxn struct {
	t         *txn.Txn
	deps      []uint64
	committed bool
	executed  bool
	pending   int32 // unexecuted local dependencies
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
	// recs holds every record txns points at; records are never freed.
	recs pool.Slab[jtxn]
	// waiters maps an unexecuted dependency to the transactions waiting on
	// it, so a commit only wakes its dependents instead of rescanning the
	// whole graph.
	waiters map[uint64][]uint64
	// scratch collects a pre-accept's dependencies before they are sorted,
	// deduplicated and copied out.
	scratch []uint64

	preacceptReps *pool.Free[preacceptRep]
	acceptReps    *pool.Free[acceptRep]
	results       *pool.Free[execResult]
}

// System is a running Janus deployment.
type System struct {
	spec     Spec
	replicas [][]*replica
	nodes    [][]simnet.NodeID // the replicas' nodes, for multicasts
	coords   []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	sys := &System{spec: spec}
	n := 2*spec.F + 1
	if n > 64 {
		panic("janus: a shard's votes are one 64-bit mask; a shard has at most 64 replicas")
	}
	sys.replicas = make([][]*replica, spec.Shards)
	sys.nodes = make([][]simnet.NodeID, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.replicas[s] = make([]*replica, n)
		for r := 0; r < n; r++ {
			node := spec.Net.AddNode(spec.ServerRegion(s, r), nil)
			sys.nodes[s] = append(sys.nodes[s], node.ID())
			rp := &replica{sys: sys, shard: s, rep: r, node: node, st: store.New(),
				lastKey: make(map[string]uint64), txns: make(map[uint64]*jtxn),
				waiters:       make(map[uint64][]uint64),
				preacceptReps: pool.New[preacceptRep](), acceptReps: pool.New[acceptRep](),
				results: pool.New[execResult]()}
			if spec.Seed != nil {
				spec.Seed(s, rp.st)
			}
			node.SetHandler(rp.handle)
			sys.replicas[s][r] = rp
		}
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, tab: coord.New[pending](int32(len(sys.coords)+1), node),
			preaccepts: pool.NewArena[preaccept](coord.PayloadChunk), accepts: pool.NewArena[acceptMsg](coord.PayloadChunk),
			commits: pool.NewArena[commitMsg](coord.PayloadChunk)}
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// Start is a no-op.
func (sys *System) Start() {}

// Store exposes a replica store (tests).
func (sys *System) Store(shard, rep int) *store.Store { return sys.replicas[shard][rep].st }

func (sys *System) superQuorum() int { return 1 + sys.spec.F + (sys.spec.F+1)/2 }

// own returns a copy of deps that outlives the scratch it was collected in,
// or nil when there is nothing to copy.
func own(deps []uint64) []uint64 {
	if len(deps) == 0 {
		return nil
	}
	return slices.Clone(deps)
}

// ---- replica ----

func (rp *replica) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *preaccept:
		rp.onPreaccept(*m)
	case *acceptMsg:
		rp.onAccept(*m)
	case *commitMsg:
		rp.onCommit(*m)
	}
}

// newRec returns a zero record for id from the slab and indexes it.
func (rp *replica) newRec(id uint64) *jtxn {
	jt := rp.recs.At(rp.recs.Add())
	rp.txns[id] = jt
	return jt
}

// onPreaccept records the transaction and returns its direct dependencies:
// the last conflicting transaction seen on each accessed key.
func (rp *replica) onPreaccept(m preaccept) {
	id := tid(m.T.ID)
	piece := m.T.Piece(rp.shard)
	deps := rp.scratch[:0]
	for _, k := range piece.ReadSet {
		deps = rp.touch(deps, k, id)
	}
	for _, k := range piece.WriteSet {
		deps = rp.touch(deps, k, id)
	}
	slices.Sort(deps)
	deps = slices.Compact(deps)
	rp.scratch = deps
	deps = own(deps) // the record and the reply keep it
	if rp.txns[id] == nil {
		*rp.newRec(id) = jtxn{t: m.T, deps: deps, coord: m.Coord}
	}
	rp.node.Work(rp.sys.spec.GraphCost * time.Duration(1+len(deps)))
	r := rp.preacceptReps.Get()
	*r = preacceptRep{src: rp, ID: m.T.ID, Deps: deps}
	rp.node.Send(m.Coord, r)
}

// touch appends key k's last conflicting transaction, if any other than id,
// to deps and makes id the key's last.
func (rp *replica) touch(deps []uint64, k string, id uint64) []uint64 {
	if d, ok := rp.lastKey[k]; ok && d != id {
		deps = append(deps, d)
	}
	rp.lastKey[k] = id
	return deps
}

func (rp *replica) onAccept(m acceptMsg) {
	id := tid(m.ID)
	if jt := rp.txns[id]; jt != nil {
		jt.deps = m.Deps
	}
	r := rp.acceptReps.Get()
	*r = acceptRep{src: rp, ID: m.ID}
	rp.node.Send(m.Coord, r)
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
		jt = rp.newRec(id)
		jt.t = m.T
	}
	if jt.committed {
		return
	}
	jt.committed = true
	jt.coord = m.Coord
	jt.deps = m.Deps
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
	rp.node.Work(rp.sys.spec.ExecCost)
	ret := rp.st.ExecuteID(jt.t.ID, txn.Timestamp{Time: time.Duration(id)}, jt.t.Piece(rp.shard))
	rp.st.Commit(jt.t.ID)
	if rp.rep == 0 { // the shard leader reports the execution result
		r := rp.results.Get()
		*r = execResult{src: rp, ID: jt.t.ID, Ret: ret}
		rp.node.Send(jt.coord, r)
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

// pending is a transaction in flight at its coordinator. The vote tally is
// kept per piece position i (t.Pieces[i]) for the shard's n replicas:
// votes[i*n+r] is replica r's dependency list, valid once bit r of voted[i]
// is set, and bit r of acked[i] is set once replica r accepted. The slices
// are reused when the record is.
type pending struct {
	coord.Attempt
	votes    [][]uint64
	voted    []uint64
	acked    []uint64
	deps     []uint64
	phase    int // 0 preaccept, 1 accept, 2 commit
	fastPath bool
}

// reset readies p for its transaction on shards of n replicas each.
func (p *pending) reset(n int, fastPath bool) {
	k := len(p.T.Pieces)
	p.deps, p.phase, p.fastPath = nil, 0, fastPath
	p.votes = slices.Grow(p.votes[:0], k*n)[:k*n] // a slot is read only once its bit is set
	p.voted, p.acked = coord.Zeroed(p.voted, k), coord.Zeroed(p.acked, k)
}

type coordinator struct {
	sys  *System
	node *simnet.Node
	tab  *coord.Table[pending, *pending]
	// union collects the votes' dependencies before they are sorted,
	// deduplicated and copied into the transaction's own list.
	union []uint64
	// preaccepts, accepts and commits carve the multicast payloads.
	preaccepts pool.Arena[preaccept]
	accepts    pool.Arena[acceptMsg]
	commits    pool.Arena[commitMsg]
}

// Submit runs Janus's pre-accept/accept/commit protocol for t.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.tab.Begin(t, done).reset(2*sys.spec.F+1, sys.spec.FastPath)
	co.tab.Multicast(t, co.preaccepts.New(preaccept{T: t, Coord: co.node.ID()}), sys.nodes)
}

func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *preacceptRep:
		src, id, deps := m.src, m.ID, m.Deps
		src.preacceptReps.Put(m)
		co.onPreacceptRep(src, id, deps)
	case *acceptRep:
		src, id := m.src, m.ID
		src.acceptReps.Put(m)
		co.onAcceptRep(src, id)
	case *execResult:
		src, id, ret := m.src, m.ID, m.Ret
		src.results.Put(m)
		co.onResult(src.shard, id, ret)
	}
}

func (co *coordinator) onPreacceptRep(src *replica, id txn.ID, deps []uint64) {
	p := co.tab.Get(id)
	if p == nil || p.phase != 0 {
		return
	}
	if !co.tallyPreaccept(p, src.shard, src.rep, deps) {
		return
	}
	if p.fastPath {
		co.commit(p)
		return
	}
	// Accept round with the union dependencies.
	p.phase = 1
	co.tab.Multicast(p.T, co.accepts.New(acceptMsg{ID: p.T.ID, Deps: p.deps, Coord: co.node.ID()}), co.sys.nodes)
}

// tallyPreaccept records replica rep of shard's vote and reports whether the
// pre-accept round is decided: every shard has a super quorum of identical
// dependency lists (fast), or has heard from all its replicas. A shard that
// heard from all of them without one clears p.fastPath, even if another shard
// still waits. Once decided, p.deps is the union of every vote received.
func (co *coordinator) tallyPreaccept(p *pending, shard, rep int, deps []uint64) bool {
	n := 2*co.sys.spec.F + 1
	sq := co.sys.superQuorum()
	pos := p.T.Pos(shard)
	p.votes[pos*n+rep] = deps
	p.voted[pos] |= 1 << rep
	for i, voted := range p.voted {
		if bits.OnesCount64(voted) < sq {
			return false
		}
		// Identical lists at a super quorum are a fast quorum, the empty
		// list included (TestEmptyDepsFastPath).
		if !identicalQuorum(p.votes[i*n:(i+1)*n], voted, sq) {
			if voted != 1<<n-1 {
				return false // more votes may still form a fast quorum
			}
			p.fastPath = false
		}
	}
	u := co.union[:0]
	for i, voted := range p.voted {
		for r := 0; r < n; r++ {
			if voted&(1<<r) != 0 {
				u = append(u, p.votes[i*n+r]...)
			}
		}
	}
	slices.Sort(u)
	u = slices.Compact(u)
	co.union = u
	p.deps = own(u) // every replica keeps it through the commit
	return true
}

// identicalQuorum reports whether at least sq of the votes whose bit is set
// in voted are the same list.
func identicalQuorum(votes [][]uint64, voted uint64, sq int) bool {
	for a := range votes {
		if voted&(1<<a) == 0 {
			continue
		}
		same := 0
		for b := range votes {
			if voted&(1<<b) != 0 && slices.Equal(votes[a], votes[b]) {
				same++
			}
		}
		if same >= sq {
			return true
		}
	}
	return false
}

func (co *coordinator) onAcceptRep(src *replica, id txn.ID) {
	p := co.tab.Get(id)
	if p == nil || p.phase != 1 {
		return
	}
	if co.tallyAccept(p, src.shard, src.rep) {
		co.commit(p)
	}
}

// tallyAccept records replica rep of shard's accept and reports whether every
// shard has F+1 of them.
func (co *coordinator) tallyAccept(p *pending, shard, rep int) bool {
	p.acked[p.T.Pos(shard)] |= 1 << rep
	for _, acked := range p.acked {
		if bits.OnesCount64(acked) < co.sys.spec.F+1 {
			return false
		}
	}
	return true
}

func (co *coordinator) commit(p *pending) {
	p.phase = 2
	co.tab.Multicast(p.T, co.commits.New(commitMsg{ID: p.T.ID, T: p.T, Deps: p.deps, Coord: co.node.ID()}), co.sys.nodes)
}

func (co *coordinator) onResult(shard int, id txn.ID, ret []byte) {
	if p := co.tab.Get(id); p != nil && co.tab.Fold(p, shard, ret) {
		co.tab.Finish(p, txn.Result{OK: true, FastPath: p.fastPath})
	}
}
