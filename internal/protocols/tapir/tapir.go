// Package tapir implements the TAPIR baseline (Zhang et al., SOSP 2015): a
// consolidated protocol built on inconsistent replication. The coordinator
// multicasts PREPARE to every replica of every involved shard; each replica
// independently runs OCC validation against its local state. If a super
// quorum of replicas in each shard returns matching PREPARE-OK votes, the
// transaction commits in 1 WRTT. Mismatched votes force a slow path (one
// more round), and conflicts abort and retry.
//
// TAPIR's fast path is optimistic about arrival order: under concurrency,
// transactions reach replicas in different orders, votes diverge, and the
// commit rate collapses — the failure mode Figure 1 of the Tiga paper
// illustrates and Tiga's proactive ordering avoids.
package tapir

import (
	"slices"
	"time"

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
	MaxRetries   int
	RetryBackoff time.Duration
}

type prepareMsg struct {
	T     *txn.Txn
	Coord simnet.NodeID
	Try   int
}

type prepareRep struct {
	Shard   int
	Replica int
	ID      txn.ID
	Try     int
	OK      bool
	Ret     []byte
}

// decideMsg is the coordinator's final decision (commit or abort), also used
// as the slow-path consensus round.
type decideMsg struct {
	ID     txn.ID
	T      *txn.Txn
	Commit bool
	Slow   bool
	Coord  simnet.NodeID
	Try    int
}

type decideAck struct {
	Shard   int
	Replica int
	ID      txn.ID
	Try     int
}

type replica struct {
	sys      *System
	shard    int
	rep      int
	node     *simnet.Node
	st       *store.Store
	prepared map[txn.ID]*txn.Txn
	pkeys    map[txn.KeyID]txn.ID // prepared-key write locks, by the ids of st
	applied  map[txn.ID]bool
}

// System is a running TAPIR deployment.
type System struct {
	spec     Spec
	replicas [][]*replica
	coords   []*coordinator
	Aborts   int64
}

// New builds the deployment.
func New(spec Spec) *System {
	if spec.MaxRetries == 0 {
		spec.MaxRetries = 5
	}
	if spec.RetryBackoff == 0 {
		spec.RetryBackoff = 20 * time.Millisecond
	}
	sys := &System{spec: spec}
	n := 2*spec.F + 1
	sys.replicas = make([][]*replica, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.replicas[s] = make([]*replica, n)
		for r := 0; r < n; r++ {
			node := spec.Net.AddNode(spec.ServerRegion(s, r), nil)
			rp := &replica{sys: sys, shard: s, rep: r, node: node, st: store.New(),
				prepared: make(map[txn.ID]*txn.Txn), pkeys: make(map[txn.KeyID]txn.ID),
				applied: make(map[txn.ID]bool)}
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
	case prepareMsg:
		rp.onPrepare(m)
	case decideMsg:
		rp.onDecide(m)
	}
}

// onPrepare runs local OCC validation: reads must be current and no
// conflicting transaction may be prepared.
func (rp *replica) onPrepare(m prepareMsg) {
	piece := m.T.Piece(rp.shard)
	rp.node.Work(rp.sys.spec.ExecCost)
	id := m.T.ID
	if rp.applied[id] {
		return
	}
	reads, writes := rp.st.IDs(piece.ReadSet, piece.ReadIDs), rp.st.IDs(piece.WriteSet, piece.WriteIDs)
	locked := func(k txn.KeyID) bool {
		owner, held := rp.pkeys[k]
		return held && owner != id
	}
	ok := !slices.ContainsFunc(reads, locked) && !slices.ContainsFunc(writes, locked)
	rep := prepareRep{Shard: rp.shard, Replica: rp.rep, ID: id, Try: m.Try, OK: ok}
	if ok {
		rp.prepared[id] = m.T
		for _, k := range writes {
			rp.pkeys[k] = id
		}
		rep.Ret, _ = rp.st.ExecuteBuffered(piece)
	}
	rp.node.Send(m.Coord, rep)
}

func (rp *replica) onDecide(m decideMsg) {
	id := m.ID
	if t, ok := rp.prepared[id]; ok {
		p := t.Piece(rp.shard)
		for _, k := range rp.st.IDs(p.WriteSet, p.WriteIDs) {
			if rp.pkeys[k] == id {
				delete(rp.pkeys, k)
			}
		}
		delete(rp.prepared, id)
	}
	if m.Commit && !rp.applied[id] {
		rp.applied[id] = true
		_, writes := rp.st.ExecuteBuffered(m.T.Piece(rp.shard))
		rp.st.Apply(writes)
	}
	if m.Slow {
		rp.node.Send(m.Coord, decideAck{Shard: rp.shard, Replica: rp.rep, ID: id, Try: m.Try})
	}
}

// ---- coordinator ----

type pending struct {
	t       *txn.Txn
	done    func(txn.Result)
	votes   map[int]map[int]prepareRep // shard -> replica -> vote
	acks    map[int]map[int]bool
	rets    []txn.ShardRet
	slow    bool
	decided bool
	retries int
}

type coordinator struct {
	sys     *System
	node    *simnet.Node
	idx     int32
	seq     uint64
	pending map[txn.ID]*pending
}

// Submit runs TAPIR's prepare/decide protocol for t.
func (sys *System) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	sys.coords[coord].submit(t, done, 0)
}

func (co *coordinator) submit(t *txn.Txn, done func(txn.Result), retries int) {
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	p := &pending{t: t, done: done, retries: retries,
		votes: make(map[int]map[int]prepareRep), acks: make(map[int]map[int]bool)}
	co.pending[t.ID] = p
	co.multicast(t, prepareMsg{T: t, Coord: co.node.ID(), Try: retries})
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
	case prepareRep:
		co.onVote(m)
	case decideAck:
		co.onAck(m)
	}
}

func (co *coordinator) onVote(m prepareRep) {
	p := co.pending[m.ID]
	if p == nil || p.decided || m.Try != p.retries {
		return
	}
	byRep := p.votes[m.Shard]
	if byRep == nil {
		byRep = make(map[int]prepareRep)
		p.votes[m.Shard] = byRep
	}
	byRep[m.Replica] = m
	co.evaluate(p)
}

func (co *coordinator) evaluate(p *pending) {
	n := 2*co.sys.spec.F + 1
	sq := co.sys.superQuorum()
	allFast, anyAbortQuorum, complete := true, false, true
	for i := range p.t.Pieces {
		votes := p.votes[p.t.Pieces[i].Shard()]
		oks, nos := 0, 0
		for _, v := range votes {
			if v.OK {
				oks++
			} else {
				nos++
			}
		}
		switch {
		case oks >= sq:
			// fast OK on this shard
		case nos >= co.sys.spec.F+1:
			anyAbortQuorum = true
		case oks >= co.sys.spec.F+1 && len(votes) == n:
			allFast = false // classic quorum only: slow path required
		default:
			complete = false
		}
	}
	if anyAbortQuorum {
		co.decide(p, false)
		return
	}
	if !complete {
		return
	}
	co.decideSlowOrFast(p, allFast)
}

func (co *coordinator) decideSlowOrFast(p *pending, fast bool) {
	p.slow = !fast
	co.decide(p, true)
}

// decide broadcasts the decision; the slow path waits for f+1 acks per shard
// before reporting commit (one extra round trip).
func (co *coordinator) decide(p *pending, commit bool) {
	p.decided = true
	var rets []txn.ShardRet
	if commit {
		rets = make([]txn.ShardRet, len(p.t.Pieces))
		for i := range rets {
			rets[i].Shard = p.t.Pieces[i].Shard()
			votes := p.votes[rets[i].Shard]
			// The lowest-numbered PREPARE-OK replica's result: TAPIR's
			// inconsistent replicas may diverge, so the pick must be a fixed one.
			for rep := 0; rep < 2*co.sys.spec.F+1; rep++ {
				if v := votes[rep]; v.OK {
					rets[i].Ret = v.Ret
					break
				}
			}
		}
	}
	co.multicast(p.t, decideMsg{ID: p.t.ID, T: p.t, Commit: commit, Slow: p.slow, Coord: co.node.ID(), Try: p.retries})
	if !commit {
		delete(co.pending, p.t.ID)
		if p.retries >= co.sys.spec.MaxRetries {
			co.sys.Aborts++
			p.done(txn.Result{Aborted: true, Retries: p.retries})
			return
		}
		backoff := co.sys.spec.RetryBackoff * time.Duration(p.retries+1)
		co.node.After(backoff, func() { co.submit(p.t, p.done, p.retries+1) })
		return
	}
	if !p.slow {
		delete(co.pending, p.t.ID)
		p.done(txn.Result{OK: true, FastPath: true, Retries: p.retries, PerShard: rets})
		return
	}
	// Slow path: wait for f+1 acks per shard.
	p.rets = rets
}

func (co *coordinator) onAck(m decideAck) {
	p := co.pending[m.ID]
	if p == nil || m.Try != p.retries {
		return
	}
	byRep := p.acks[m.Shard]
	if byRep == nil {
		byRep = make(map[int]bool)
		p.acks[m.Shard] = byRep
	}
	byRep[m.Replica] = true
	for i := range p.t.Pieces {
		if len(p.acks[p.t.Pieces[i].Shard()]) < co.sys.spec.F+1 {
			return
		}
	}
	delete(co.pending, m.ID)
	p.done(txn.Result{OK: true, FastPath: false, Retries: p.retries, PerShard: p.rets})
}
