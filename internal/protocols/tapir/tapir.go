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
//
// Replies are pooled (see pool.Free for the lifecycle rules): a replica draws
// each PREPARE reply and slow-path acknowledgement from its own freelist, the
// message carries its sender and so the list it came from, and the
// coordinator's handle copies the fields out and puts it back before it acts
// on them. A reply the network drops is simply never put back. The multicast
// PREPARE and decision share one payload between their destinations, so
// neither is pooled.
package tapir

import (
	"math/bits"
	"slices"
	"time"

	"tiga/internal/pool"
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
	src *replica
	ID  txn.ID
	Try int
	OK  bool
	Ret []byte
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
	src *replica
	ID  txn.ID
	Try int
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
	// writes is the buffered execution's scratch: a prepare drops the write
	// set and a decision applies it at once, so neither keeps it.
	writes      []store.Write
	prepareReps *pool.Free[prepareRep]
	decideAcks  *pool.Free[decideAck]
}

// System is a running TAPIR deployment.
type System struct {
	spec     Spec
	replicas [][]*replica
	coords   []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	sys := &System{spec: spec}
	n := 2*spec.F + 1
	if n > 64 {
		panic("tapir: a shard's votes are one 64-bit mask; a shard has at most 64 replicas")
	}
	sys.replicas = make([][]*replica, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.replicas[s] = make([]*replica, n)
		for r := 0; r < n; r++ {
			node := spec.Net.AddNode(spec.ServerRegion(s, r), nil)
			rp := &replica{sys: sys, shard: s, rep: r, node: node, st: store.New(),
				prepared: make(map[txn.ID]*txn.Txn), pkeys: make(map[txn.KeyID]txn.ID),
				applied:     make(map[txn.ID]bool),
				prepareReps: pool.New[prepareRep](), decideAcks: pool.New[decideAck]()}
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
			pending: make(map[txn.ID]*pending), pendings: pool.New[pending]()}
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
	rep := rp.prepareReps.Get()
	*rep = prepareRep{src: rp, ID: id, Try: m.Try, OK: ok}
	if ok {
		rp.prepared[id] = m.T
		for _, k := range writes {
			rp.pkeys[k] = id
		}
		rep.Ret, rp.writes = rp.st.ExecuteBuffered(rp.writes[:0], piece)
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
		_, rp.writes = rp.st.ExecuteBuffered(rp.writes[:0], m.T.Piece(rp.shard))
		rp.st.Apply(rp.writes)
	}
	if m.Slow {
		ack := rp.decideAcks.Get()
		*ack = decideAck{src: rp, ID: id, Try: m.Try}
		rp.node.Send(m.Coord, ack)
	}
}

// ---- coordinator ----

// pending is a transaction in flight at its coordinator. The vote tally is
// kept per piece position i (t.Pieces[i]) for the shard's n replicas: bit r of
// voted[i] is set once replica r voted, bit r of oks[i] when that vote was
// PREPARE-OK, and rets[i*n+r] is then its result; bit r of acked[i] is set
// once replica r acknowledged a slow-path decision. The slices are reused when
// the record is.
type pending struct {
	t       *txn.Txn
	done    func(txn.Result)
	voted   []uint64
	oks     []uint64
	acked   []uint64
	rets    [][]byte
	results []txn.ShardRet
	slow    bool
	decided bool
	retries int
}

// reset readies p for attempt retries of t on shards of n replicas each.
func (p *pending) reset(t *txn.Txn, done func(txn.Result), retries, n int) {
	k := len(t.Pieces)
	p.t, p.done, p.retries, p.results, p.slow, p.decided = t, done, retries, nil, false, false
	p.rets = slices.Grow(p.rets[:0], k*n)[:k*n] // a slot is read only once its bit is set
	p.voted, p.oks, p.acked = zeroed(p.voted, k), zeroed(p.oks, k), zeroed(p.acked, k)
}

// zeroed returns k zero masks in s's storage.
func zeroed(s []uint64, k int) []uint64 {
	s = slices.Grow(s[:0], k)[:k]
	clear(s)
	return s
}

type coordinator struct {
	sys      *System
	node     *simnet.Node
	idx      int32
	seq      uint64
	pending  map[txn.ID]*pending
	pendings *pool.Free[pending]
}

// Submit runs TAPIR's prepare/decide protocol for t.
func (sys *System) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	sys.coords[coord].submit(t, done, 0)
}

func (co *coordinator) submit(t *txn.Txn, done func(txn.Result), retries int) {
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	p := co.pendings.Get()
	p.reset(t, done, retries, 2*co.sys.spec.F+1)
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
	case *prepareRep:
		src, id, try, ok, ret := m.src, m.ID, m.Try, m.OK, m.Ret
		src.prepareReps.Put(m)
		co.onVote(src, id, try, ok, ret)
	case *decideAck:
		src, id, try := m.src, m.ID, m.Try
		src.decideAcks.Put(m)
		co.onAck(src, id, try)
	}
}

// onVote records replica src's vote on attempt try of transaction id; a later
// vote from the same replica replaces its earlier one.
func (co *coordinator) onVote(src *replica, id txn.ID, try int, ok bool, ret []byte) {
	p := co.pending[id]
	if p == nil || p.decided || try != p.retries {
		return
	}
	i, bit := p.t.Pos(src.shard), uint64(1)<<src.rep
	p.voted[i] |= bit
	if ok {
		p.oks[i] |= bit
	} else {
		p.oks[i] &^= bit
	}
	p.rets[i*(2*co.sys.spec.F+1)+src.rep] = ret
	co.evaluate(p)
}

func (co *coordinator) evaluate(p *pending) {
	f := co.sys.spec.F
	sq := co.sys.superQuorum()
	allFast, anyAbortQuorum, complete := true, false, true
	for i, voted := range p.voted {
		oks := bits.OnesCount64(p.oks[i])
		nos := bits.OnesCount64(voted) - oks
		switch {
		case oks >= sq:
			// fast OK on this shard
		case nos >= f+1:
			anyAbortQuorum = true
		case oks >= f+1 && voted == 1<<(2*f+1)-1:
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
	p.slow = !allFast
	co.decide(p, true)
}

// decide broadcasts the decision; the slow path waits for f+1 acks per shard
// before reporting commit (one extra round trip).
func (co *coordinator) decide(p *pending, commit bool) {
	p.decided = true
	if commit {
		n := 2*co.sys.spec.F + 1
		p.results = make([]txn.ShardRet, len(p.t.Pieces)) // handed to done, so never reused
		for i := range p.results {
			// The lowest-numbered PREPARE-OK replica's result: TAPIR's
			// inconsistent replicas may diverge, so the pick must be a fixed one.
			p.results[i] = txn.ShardRet{Shard: p.t.Pieces[i].Shard(),
				Ret: p.rets[i*n+bits.TrailingZeros64(p.oks[i])]}
		}
	}
	co.multicast(p.t, decideMsg{ID: p.t.ID, T: p.t, Commit: commit, Slow: p.slow, Coord: co.node.ID(), Try: p.retries})
	if p.slow {
		return // onAck finishes it
	}
	delete(co.pending, p.t.ID)
	t, done, retries, results := p.t, p.done, p.retries, p.results
	co.pendings.Put(p) // done may submit the next transaction
	switch {
	case commit:
		done(txn.Result{OK: true, FastPath: true, Retries: retries, PerShard: results})
	case retries >= co.sys.spec.MaxRetries:
		done(txn.Result{Aborted: true, Retries: retries})
	default:
		backoff := co.sys.spec.RetryBackoff * time.Duration(retries+1)
		co.node.After(backoff, func() { co.submit(t, done, retries+1) })
	}
}

// onAck records replica src's acknowledgement of a slow-path decision and
// reports the commit once every shard has f+1 of them.
func (co *coordinator) onAck(src *replica, id txn.ID, try int) {
	p := co.pending[id]
	if p == nil || try != p.retries {
		return
	}
	p.acked[p.t.Pos(src.shard)] |= 1 << src.rep
	for _, acked := range p.acked {
		if bits.OnesCount64(acked) < co.sys.spec.F+1 {
			return
		}
	}
	delete(co.pending, id)
	res, done := txn.Result{OK: true, FastPath: false, Retries: p.retries, PerShard: p.results}, p.done
	co.pendings.Put(p) // done may submit the next transaction
	done(res)
}
