// Package ncc implements the NCC baseline (Lu et al., OSDI 2023): Natural
// Concurrency Control for strictly serializable single-region datastores.
// Servers execute transactions in arrival order; Response Time Control (RTC)
// guarantees strict serializability by holding a transaction's response until
// the previous conflicting transaction's commit notification arrives —
// artificially creating a ~1 WRTT gap between conflicting transactions.
//
// Per the paper's setup (§5.1), NCC's servers all live in one region (South
// Carolina) without replication; NCC+ places NCC on top of a Paxos layer
// replicated across three regions for fault tolerance, which degrades it
// further (§5.2). RTC's queueing delay is what limits NCC's throughput under
// load and contention.
package ncc

import (
	"time"

	"tiga/internal/paxos"
	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Spec describes the deployment.
type Spec struct {
	Shards     int
	F          int  // used only when Replicated (NCC+)
	Replicated bool // NCC+ = NCC atop Paxos
	Net        *simnet.Network
	// ServerRegion maps (shard, replica) to a region; replica 0 is the
	// shard's server, the rest its NCC+ Paxos followers.
	ServerRegion func(shard, replica int) simnet.Region
	CoordRegions []simnet.Region
	Seed         func(shard int, st *store.Store)
	ExecCost     time.Duration
}

// ---- messages ----
//
// Who owns each message. The coordinator's *execReq and *commitNote are
// carved once per multicast from its arenas (coordinator.execs, .notes): every
// destination server receives the same immutable payload and copies it out,
// so nothing recycles them. An NCC+ server proposes the *execReq it received,
// so its Paxos log and every follower's keep that one pointer. A server's
// *execRep comes from its freelist (server.reps) and carries its sender; the
// coordinator's handle copies the fields out and puts it back on its sender's
// list before it acts on them, also when the transaction has already
// completed (a recovery replay's reply). A reply the network drops is never put back. A server
// keeps the record of every transaction it executed for good (dedup and
// RTC), so records come from its slab (server.recs), never from a freelist.

// execReq asks a shard server to execute its piece of T; it is also the
// command an NCC+ server replicates, so a rebooted server can re-answer the
// coordinator from the replayed log.
type execReq struct {
	T     *txn.Txn
	Coord simnet.NodeID
}

// execRep is a server's reply, drawn from src.reps.
type execRep struct {
	src *server
	ID  txn.ID
	Ret []byte
}

// commitNote tells every shard server of a transaction that it committed,
// releasing the successors RTC holds behind it.
type commitNote struct{ ID txn.ID }

// pendingSrv is a server's record of a transaction it executed, taken from
// server.recs and kept for the server's life.
type pendingSrv struct {
	t     *txn.Txn
	coord simnet.NodeID
	ret   []byte
	// Gating state for RTC + (optionally) replication.
	waitingOn  int  // conflicting predecessors not yet committed
	replicated bool // Paxos slot committed (always true for plain NCC)
	sent       bool
	committed  bool
	waiters    []txn.ID // successors gated on our commit note
}

// server executes one shard's transactions in arrival order with RTC.
type server struct {
	sys     *System
	shard   int
	node    *simnet.Node
	st      *store.Store
	lastKey map[string]txn.ID // key -> last conflicting uncommitted txn
	pending map[txn.ID]*pendingSrv
	recs    pool.Slab[pendingSrv]
	reps    *pool.Free[execRep]
	pax     *paxos.Replica
	onSlot  map[int]txn.ID
}

// follower is an NCC+ Paxos group member: it only participates in
// replication, which includes answering a rebooted server's rejoin.
type follower struct {
	node *simnet.Node
	pax  *paxos.Replica
}

func (f *follower) handle(from simnet.NodeID, msg simnet.Message) { f.pax.Handle(from, msg) }

// System is a running NCC or NCC+ deployment.
type System struct {
	spec      Spec
	nodes     [][]simnet.NodeID // [shard][replica]; replica 0 is the server
	leaders   [][]simnet.NodeID // [shard][0]: the server alone, for multicasts
	servers   []*server
	followers [][]*follower // [shard][replica]; index 0 unused (NCC+ only)
	coords    []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	sys := &System{spec: spec}
	n := 1
	if spec.Replicated {
		n = 2*spec.F + 1
	}
	for sh := 0; sh < spec.Shards; sh++ {
		var nodes []simnet.NodeID
		for r := 0; r < n; r++ {
			nodes = append(nodes, spec.Net.AddNode(spec.ServerRegion(sh, r), nil).ID())
		}
		sys.nodes = append(sys.nodes, nodes)
		sys.leaders = append(sys.leaders, nodes[:1])
		sys.servers = append(sys.servers, newServer(sys, sh))
		fs := make([]*follower, n)
		for r := 1; r < n; r++ {
			f := &follower{node: spec.Net.Node(nodes[r]),
				pax: paxos.NewReplica("ncc", spec.Net.Node(nodes[r]), nodes, r, 0, spec.F)}
			f.node.SetHandler(f.handle)
			fs[r] = f
		}
		sys.followers = append(sys.followers, fs)
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, tab: coord.New[pending](int32(len(sys.coords)+1), node),
			execs: pool.NewArena[execReq](coord.PayloadChunk), notes: pool.NewArena[commitNote](coord.PayloadChunk)}
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// newServer assembles one shard's server on its (already-added) network
// node, with a freshly seeded store and an empty Paxos replica. It is used
// both at construction and to rebuild a crashed server on restart.
func newServer(sys *System, sh int) *server {
	nodes := sys.nodes[sh]
	srv := &server{sys: sys, shard: sh, node: sys.spec.Net.Node(nodes[0]),
		st: store.New(), lastKey: make(map[string]txn.ID),
		pending: make(map[txn.ID]*pendingSrv), reps: pool.New[execRep](),
		onSlot: make(map[int]txn.ID)}
	if sys.spec.Seed != nil {
		sys.spec.Seed(sh, srv.st)
	}
	if sys.spec.Replicated {
		srv.pax = paxos.NewReplica("ncc", srv.node, nodes, 0, 0, sys.spec.F)
		srv.pax.OnCommit = srv.onPaxosCommit
	}
	srv.node.SetHandler(srv.handle)
	return srv
}

// Start is a no-op.
func (sys *System) Start() {}

// Store exposes a shard store (tests).
func (sys *System) Store(shard int) *store.Store { return sys.servers[shard].st }

// ServerGrid reports the replica grid (protocol.Faultable): every shard
// exposes the full 2F+1 addresses even under plain NCC, whose unmaterialized
// followers make the extra addresses no-ops.
func (sys *System) ServerGrid() (shards, replicas int) { return sys.spec.Shards, 2*sys.spec.F + 1 }

// KillServer crashes a replica: all queued and future deliveries and timers
// are dropped until RestartServer (protocol.Faultable). Replica 0 is the
// shard's serving node; higher replicas are NCC+ Paxos followers. Replicas
// the deployment does not have (plain NCC runs exactly one per shard) are a
// no-op, so generic fault experiments can enumerate 0..2F on any protocol.
func (sys *System) KillServer(shard, replica int) {
	if replica == 0 {
		sys.servers[shard].node.Crash()
		return
	}
	if replica < 0 || replica >= len(sys.followers[shard]) {
		return
	}
	sys.followers[shard][replica].node.Crash()
}

// RestartServer reboots a crashed replica. A follower resumes with its Paxos
// state intact (only its node was down; lost slots are refilled by the
// leader's retransmission). The serving replica reboots with empty state:
// under NCC+ it re-seeds its store and rejoins its Paxos group
// (paxos.Replica.Rejoin). Once f+1 followers have sent their logs it adopts
// the merge, re-executing the committed transactions in slot order to
// rebuild the store (each exactly once; the pre-crash store is discarded
// whole) and re-sending their replies. A lost request or answer delays the
// rejoin: it is re-sent until enough followers answer. Plain NCC has no
// replication to recover from: the store reboots seeded-but-empty of every
// pre-crash effect, which is the unreplicated design's documented exposure.
func (sys *System) RestartServer(shard, replica int) {
	if replica != 0 {
		if replica >= 0 && replica < len(sys.followers[shard]) {
			sys.followers[shard][replica].node.Restart()
		}
		return
	}
	old := sys.servers[shard]
	old.node.Restart()
	srv := newServer(sys, shard)
	sys.servers[shard] = srv
	if sys.spec.Replicated {
		srv.pax.Rejoin(nil)
	}
}

// ---- server ----

func (s *server) handle(from simnet.NodeID, msg simnet.Message) {
	if s.pax != nil && (s.pax.Handle(from, msg) || s.pax.Rejoining()) {
		return // a rebooted server serves nothing until its log is installed
	}
	switch m := msg.(type) {
	case *execReq:
		s.onExec(m)
	case *commitNote:
		s.onCommitNote(*m)
	}
}

// newRec records a transaction the server executed, out of its slab.
func (s *server) newRec(id txn.ID, r pendingSrv) *pendingSrv {
	p := s.recs.At(s.recs.Add())
	*p = r
	s.pending[id] = p
	return p
}

// onExec executes in arrival order and applies RTC gating. An NCC+ server
// proposes m as received.
func (s *server) onExec(m *execReq) {
	id := m.T.ID
	if _, dup := s.pending[id]; dup {
		return
	}
	piece := m.T.Piece(s.shard)
	s.node.Work(s.sys.spec.ExecCost)
	p := s.newRec(id, pendingSrv{t: m.T, coord: m.Coord, replicated: !s.sys.spec.Replicated})
	// RTC: gate on every uncommitted conflicting predecessor, once each
	// however many keys of the read and write sets it shares.
	gated := make(map[txn.ID]bool)
	for _, keys := range [2][]string{piece.ReadSet, piece.WriteSet} {
		for _, k := range keys {
			if prev, ok := s.lastKey[k]; ok && prev != id && !gated[prev] {
				if pp := s.pending[prev]; pp != nil && !pp.committed {
					gated[prev] = true
					pp.waiters = append(pp.waiters, id)
					p.waitingOn++
				}
			}
		}
	}
	for _, k := range piece.WriteSet {
		s.lastKey[k] = id
	}
	for _, k := range piece.ReadSet {
		s.lastKey[k] = id
	}
	p.ret = s.st.ExecuteID(id, txn.Timestamp{}, piece)
	s.st.Commit(id)
	if s.pax != nil {
		// The replicated command carries the coordinator so a rebooted
		// server can re-answer replayed slots during recovery.
		slot := s.pax.Propose(m)
		s.onSlot[slot] = id
	}
	s.maybeReply(p)
}

func (s *server) maybeReply(p *pendingSrv) {
	if p.sent || p.waitingOn > 0 || !p.replicated {
		return
	}
	p.sent = true
	s.reply(p.coord, p.t.ID, p.ret)
}

// reply sends the coordinator a transaction's result in a pooled execRep.
func (s *server) reply(coord simnet.NodeID, id txn.ID, ret []byte) {
	r := s.reps.Get()
	*r = execRep{src: s, ID: id, Ret: ret}
	s.node.Send(coord, r)
}

func (s *server) onPaxosCommit(slot int, cmd paxos.Command) {
	if id, ok := s.onSlot[slot]; ok {
		delete(s.onSlot, slot)
		if p := s.pending[id]; p != nil {
			p.replicated = true
			s.maybeReply(p)
		}
		return
	}
	// A slot this server did not propose in its current life: recovery
	// replay (the rejoin replaying the merged survivor log, or a recovered
	// tail slot committing later). Re-execute the logged transaction against
	// the fresh store — the pre-crash store was discarded whole, so each
	// logged slot applies exactly once — and re-send the reply; a
	// coordinator that already completed ignores it. The entry is recorded
	// as committed so RTC gates new transactions correctly and duplicate
	// commit notes stay idempotent.
	m := cmd.(*execReq)
	id := m.T.ID
	if _, dup := s.pending[id]; dup {
		return
	}
	piece := m.T.Piece(s.shard)
	s.node.Work(s.sys.spec.ExecCost)
	ret := s.st.ExecuteID(id, txn.Timestamp{}, piece)
	s.st.Commit(id)
	s.newRec(id, pendingSrv{t: m.T, coord: m.Coord, ret: ret,
		replicated: true, sent: true, committed: true})
	for _, k := range piece.WriteSet {
		s.lastKey[k] = id
	}
	for _, k := range piece.ReadSet {
		s.lastKey[k] = id
	}
	s.reply(m.Coord, id, ret)
}

// onCommitNote releases RTC-gated successors.
func (s *server) onCommitNote(m commitNote) {
	p := s.pending[m.ID]
	if p == nil || p.committed {
		return
	}
	p.committed = true
	for _, wid := range p.waiters {
		if wp := s.pending[wid]; wp != nil {
			wp.waitingOn--
			s.maybeReply(wp)
		}
	}
	p.waiters = nil
}

// ---- coordinator ----

// pending is a transaction in flight at its coordinator, filed in
// coordinator.tab and put back when it completes.
type pending struct{ coord.Attempt }

type coordinator struct {
	sys  *System
	node *simnet.Node
	tab  *coord.Table[pending, *pending]
	// execs and notes carve the multicast payloads (see the messages
	// section).
	execs pool.Arena[execReq]
	notes pool.Arena[commitNote]
}

// Submit sends t to its shard servers and commits once all reply.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.tab.Begin(t, done)
	co.tab.Multicast(t, co.execs.New(execReq{T: t, Coord: co.node.ID()}), sys.leaders)
}

// handle takes a server's reply: it copies the fields out and puts the
// message back on its sender's list before acting on them.
func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(*execRep)
	if !ok {
		return
	}
	shard, id, ret := m.src.shard, m.ID, m.Ret
	m.src.reps.Put(m)
	if p := co.tab.Get(id); p != nil && co.tab.Fold(p, shard, ret) {
		// Commit: notify servers (releases RTC-gated successors), then reply.
		co.tab.Multicast(p.T, co.notes.New(commitNote{ID: id}), co.sys.leaders)
		co.tab.Finish(p, txn.Result{OK: true})
	}
}
