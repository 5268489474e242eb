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
// PREPARE and decision share one payload between their destinations, carved
// from the coordinator's arenas and never recycled.
package tapir

import (
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
	writes []store.Write
	// keys is resolve's scratch: a piece's declared keys as ids of st.
	keys        []txn.KeyID
	prepareReps *pool.Free[prepareRep]
	decideAcks  *pool.Free[decideAck]
}

// System is a running TAPIR deployment.
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
		panic("tapir: a shard's votes are one 64-bit mask; a shard has at most 64 replicas")
	}
	sys.replicas = make([][]*replica, spec.Shards)
	sys.nodes = make([][]simnet.NodeID, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.replicas[s] = make([]*replica, n)
		for r := 0; r < n; r++ {
			node := spec.Net.AddNode(spec.ServerRegion(s, r), nil)
			sys.nodes[s] = append(sys.nodes[s], node.ID())
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
		co := &coordinator{sys: sys, node: node,
			prepares: pool.NewArena[prepareMsg](coord.PayloadChunk), decides: pool.NewArena[decideMsg](coord.PayloadChunk)}
		co.tab = coord.New[pending](int32(len(sys.coords)+1), node).Retrying(spec.MaxRetries, spec.RetryBackoff, co.start)
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// Start is a no-op.
func (sys *System) Start() {}

func (sys *System) superQuorum() int { return 1 + sys.spec.F + (sys.spec.F+1)/2 }

// ---- replica ----

func (rp *replica) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *prepareMsg:
		rp.onPrepare(*m)
	case *decideMsg:
		rp.onDecide(*m)
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
	keys, writes := rp.resolve(piece)
	ok := !slices.ContainsFunc(keys, func(k txn.KeyID) bool {
		owner, held := rp.pkeys[k]
		return held && owner != id
	})
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

// resolve returns p's declared keys as ids of rp's store (store.ID), reads then
// writes, and the writes alone; both are rp's scratch until the next call.
func (rp *replica) resolve(p *txn.Piece) (keys, writes []txn.KeyID) {
	keys = rp.keys[:0]
	for i := range p.ReadSet {
		keys = append(keys, rp.st.ID(p.ReadSet, p.ReadIDs, i))
	}
	for i := range p.WriteSet {
		keys = append(keys, rp.st.ID(p.WriteSet, p.WriteIDs, i))
	}
	rp.keys = keys
	return keys, keys[len(p.ReadSet):]
}

func (rp *replica) onDecide(m decideMsg) {
	id := m.ID
	if t, ok := rp.prepared[id]; ok {
		_, writes := rp.resolve(t.Piece(rp.shard))
		for _, k := range writes {
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
	coord.Attempt
	voted   []uint64
	oks     []uint64
	acked   []uint64
	rets    [][]byte
	slow    bool
	decided bool
}

type coordinator struct {
	sys  *System
	node *simnet.Node
	tab  *coord.Table[pending, *pending]
	// prepares and decides carve the multicast payloads.
	prepares pool.Arena[prepareMsg]
	decides  pool.Arena[decideMsg]
}

// Submit runs TAPIR's prepare/decide protocol for t.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.start(co.tab.Begin(t, done))
}

// start readies p's tally for the attempt, on shards of n replicas each, and
// sends its PREPARE.
func (co *coordinator) start(p *pending) {
	k, n := len(p.T.Pieces), 2*co.sys.spec.F+1
	p.slow, p.decided = false, false
	p.rets = slices.Grow(p.rets[:0], k*n)[:k*n] // a slot is read only once its bit is set
	p.voted, p.oks, p.acked = coord.Zeroed(p.voted, k), coord.Zeroed(p.oks, k), coord.Zeroed(p.acked, k)
	co.tab.Multicast(p.T, co.prepares.New(prepareMsg{T: p.T, Coord: co.node.ID(), Try: p.Retries}), co.sys.nodes)
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
	p := co.tab.Get(id)
	if p == nil || p.decided || try != p.Retries {
		return
	}
	i, bit := p.T.Pos(src.shard), uint64(1)<<src.rep
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
		for i := range p.T.Pieces {
			// The lowest-numbered PREPARE-OK replica's result: TAPIR's
			// inconsistent replicas may diverge, so the pick must be a fixed one.
			co.tab.Fold(p, p.T.Pieces[i].Shard(), p.rets[i*n+bits.TrailingZeros64(p.oks[i])])
		}
	}
	co.tab.Multicast(p.T, co.decides.New(decideMsg{ID: p.T.ID, T: p.T, Commit: commit, Slow: p.slow, Coord: co.node.ID(), Try: p.Retries}), co.sys.nodes)
	switch {
	case p.slow:
		// onAck finishes it
	case commit:
		co.tab.Finish(p, txn.Result{OK: true, FastPath: true})
	default:
		co.tab.Retry(p, 0)
	}
}

// onAck records replica src's acknowledgement of a slow-path decision and
// reports the commit once every shard has f+1 of them.
func (co *coordinator) onAck(src *replica, id txn.ID, try int) {
	p := co.tab.Get(id)
	if p == nil || try != p.Retries {
		return
	}
	p.acked[p.T.Pos(src.shard)] |= 1 << src.rep
	for _, acked := range p.acked {
		if bits.OnesCount64(acked) < co.sys.spec.F+1 {
			return
		}
	}
	co.tab.Finish(p, txn.Result{OK: true})
}
