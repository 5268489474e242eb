// Package lockocc implements the two classic layered baselines from the
// paper's evaluation (§5.1): 2PL+Paxos (wound-wait two-phase locking with
// two-phase commit over Multi-Paxos) and OCC+Paxos (optimistic execution with
// validation at prepare time, over the same consensus layer). Both keep their
// per-key state in one lock table per shard leader (internal/locks): a
// conflicting 2PL prepare waits on it, a conflicting OCC prepare votes no.
//
// Both stack a concurrency-control round on top of a consensus round, so a
// geo-distributed commit costs ~3 WRTTs: request/vote (1), commit + Paxos
// replication (1.5–2), and the reply (0.5). The long lock/validation window
// across WAN round trips is what drives their abort rates under contention
// (§5.2, §5.3).
package lockocc

import (
	"slices"
	"time"

	"tiga/internal/admit"
	"tiga/internal/locks"
	"tiga/internal/paxos"
	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/store"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// CC selects the concurrency-control flavor.
type CC int

// Concurrency control flavors.
const (
	TwoPL CC = iota
	OCC
)

// Spec describes the deployment.
type Spec struct {
	CC           CC
	Shards       int
	F            int
	Net          *simnet.Network
	ServerRegion func(shard, replica int) simnet.Region
	CoordRegions []simnet.Region
	Seed         func(shard int, st *store.Store)
	ExecCost     time.Duration
	MaxRetries   int
	RetryBackoff time.Duration
	// VoteTimeout arms a coordinator-side progress timer per submission
	// attempt (Spanner-style presumed abort). A transaction still gathering
	// votes when the timer fires is aborted and retried — which breaks
	// wound-wait cycles spanning shards, where per-shard vote immunity
	// otherwise deadlocks both transactions forever. A transaction already
	// past the commit decision instead re-sends its commit records to the
	// shards that have not confirmed, so a rebooted shard leader can finish
	// the 2PC. 0 disables the timer (the pre-knob behavior).
	VoteTimeout time.Duration
	// LocalReads enables the local snapshot-read path (see snapreads.go):
	// commit records carry coordinator-minted timestamps, stores retain
	// version history, leaders publish safe-time watermarks held below their
	// in-flight 2PC prepares, and read-only transactions are served from the
	// nearest replica. Default off; the machinery adds timers and messages.
	LocalReads bool
	// ReadStaleness is how far in the past local reads pick their snapshot
	// (0 = strong reads that wait out the watermark lag).
	ReadStaleness time.Duration
	// VersionGC prunes committed version history below the minimum replica
	// watermark − ReadStaleness (− a fixed in-flight slack), piggybacked on
	// the safe-time broadcast; followers report their watermarks back via
	// safeTAck. Only meaningful with LocalReads.
	VersionGC bool
	// AdmitCap bounds a coordinator's admitted in-flight transactions
	// (<= 0 disables admission control); AdmitQueue bounds the wait queue
	// beyond the cap. See internal/admit.
	AdmitCap   int
	AdmitQueue int
}

// ---- messages ----
//
// Who owns each message. The coordinator's requests (*reqExec, *commitReq,
// *abortReq) are carved once per multicast from its arenas (coordinator.reqs,
// .commits, .aborts): every destination leader receives the same immutable
// payload and copies it out, so nothing recycles them. A leader's replies
// (*voteMsg, *committedMsg) come from that leader's freelists (server.votes,
// server.acks) and carry their sender; the coordinator's handle copies the
// fields out and puts the message back on its sender's list before it acts on
// them. A reply the network drops is never put back. A commit record stays in
// every replica's Paxos log for good, so it never comes from a freelist: the
// proposing leader takes it from its slab and copies its write set into its
// write arena (server.propose). The local-read path's timer-driven messages
// (snapreads.go: *safeT, *safeTAck, *decisionQuery) are allocated per send.

// reqExec asks a shard leader to prepare its piece of T.
type reqExec struct {
	T     *txn.Txn
	Prio  uint64
	Coord simnet.NodeID
}

// voteMsg is a shard leader's prepare vote, drawn from src.votes.
type voteMsg struct {
	src *server
	ID  txn.ID
	OK  bool
	Ret []byte
	// Span stamps (internal/trace), in sim time: ArriveS = reqExec arrival
	// at the shard leader, LockS = every lock granted (2PL; equals ArriveS
	// for OCC's immediate validation), DoneS = execution departure. RecvS
	// is stamped by the coordinator when the vote arrives. The stamps ride
	// the votes the coordinator retains anyway, so the commit path needs no
	// tracker-side state to reconstruct its critical path.
	ArriveS, LockS, DoneS, RecvS time.Duration
}

// commitReq is the coordinator's commit decision, sent to every shard leader
// and re-sent by checkProgress to those that have not confirmed.
type commitReq struct {
	ID    txn.ID
	Coord simnet.NodeID
	// T and Prio let a shard leader that lost its pending state in a crash
	// re-acquire the transaction's locks and re-execute the decided commit
	// (the pre-crash write buffer would be stale against anything committed
	// since the reboot).
	T    *txn.Txn
	Prio uint64
	// TS is the commit timestamp the coordinator minted at the decision
	// (Spec.LocalReads only; zero otherwise). Per key, decision order equals
	// apply order — a later writer of the same key can only vote after the
	// earlier one's locks are released at apply — so versions enter the
	// store in timestamp order.
	TS txn.Timestamp
}

// abortReq releases a transaction's prepare on a shard leader.
type abortReq struct{ ID txn.ID }

// committedMsg reports a shard's replicated apply, drawn from src.acks. The
// commit phase is infallible (validation happens at vote time), so it carries
// no failure flag.
type committedMsg struct {
	src *server
	ID  txn.ID
	// Span stamps (see voteMsg): ArriveS = commitReq arrival at the leader,
	// CommitS = Paxos replication reached the commit point. Zero on the
	// dedup re-acknowledgement paths — the breakdown walk clamps them.
	ArriveS, CommitS time.Duration
}

// commitRec is the Paxos-replicated commit record, proposed as a *commitRec
// out of the leader's slab.
type commitRec struct {
	ID     txn.ID
	TS     txn.Timestamp // coordinator-minted commit timestamp (LocalReads)
	Writes []store.Write
}

type pendingSrv struct {
	t        *txn.Txn
	prio     uint64
	coord    simnet.NodeID
	wounded  bool
	voted    bool
	proposed bool // commit record handed to Paxos (dedup for re-sent commitReqs)
	// relocking marks a commit decision being reconstructed after a leader
	// reboot: locks are re-acquired and the piece re-executed before the
	// commit record is proposed.
	relocking bool
	// writes is the piece's buffered write set. Its storage stays with the
	// record across recycles (getPend); propose copies it into the arena.
	writes  []store.Write
	waiting int // outstanding lock grants (2PL and relocks)
	// prepTS pins the leader's safe-time watermark below this in-flight
	// transaction (LocalReads): its eventual commit timestamp, minted at the
	// coordinator's decision, is necessarily later than its arrival here.
	// It doubles as the arrival span stamp on outgoing votes.
	prepTS time.Duration
	// lockS/cReqS are span stamps (internal/trace) copied onto outgoing
	// votes and commit acknowledgements: every-lock-granted time and
	// commitReq arrival time.
	lockS, cReqS time.Duration
	ts           txn.Timestamp // decided commit timestamp (from commitReq)
	// id is the transaction ID this record was created under, latched at
	// creation. The grant callback must dispatch on it rather than p.t.ID:
	// t points at the coordinator's Txn object, whose ID field a retry
	// reassigns in place — so after a lost abortReq orphans this
	// attempt, a late lock grant would otherwise finish the RETRY's id on a
	// shard still tracking this one (s.pending, lt.held, lt.queued are all
	// keyed by the creation-time id).
	id txn.ID
	// grant is the lock-grant callback, bound once per record (the record is
	// pooled; see server.getPend). It replaces the per-transaction closures
	// the 2PL and relock paths used to allocate, dispatching on id and
	// relockPath, both latched at creation.
	grant func()
	// relockPath latches which continuation the grants of lockAll belong
	// to: false = the 2PL prepare (onReqExec, finishLock), true = the
	// post-reboot relock (onCommitReq, finishRelock). A record lifetime runs
	// exactly one of the two.
	relockPath bool
}

// server is a shard leader plus its Paxos group membership.
type server struct {
	sys     *System
	shard   int
	replica int
	node    *simnet.Node
	st      *store.Store
	// lt is the shard's one per-key concurrency-control state: 2PL waits on
	// it (wound-wait), OCC validates on it (TryAcquire, never waiting).
	lt      *locks.Table
	pax     *paxos.Replica
	pending map[txn.ID]*pendingSrv
	// pend recycles pendingSrv records. Safe because every removal path that
	// follows a lock request runs lt.ReleaseAll first, which purges queued
	// grant callbacks — so no reference outlives the Put.
	pend   *pool.Free[pendingSrv]
	onSlot map[int]txn.ID // slot -> awaiting commit reply
	// votes and acks are the leader's reply freelists (see the messages
	// section for who puts them back).
	votes *pool.Free[voteMsg]
	acks  *pool.Free[committedMsg]
	// recs and arena hold what a proposal leaves in every replica's Paxos log:
	// the commit records, and their write sets carved out of chunks of
	// writeChunk writes (see keep).
	recs  pool.Slab[commitRec]
	arena pool.Arena[store.Write]
	// applied records every Paxos-applied commit, so re-sent commit requests
	// (after a leader reboot) are answered instead of re-proposed.
	applied map[txn.ID]bool
	// catchingUp gates 2PC traffic (but not Paxos) on a rebooted leader
	// from the end of its rejoin until the re-proposed tail has committed —
	// serving earlier would let new transactions validate against a store
	// still missing those pending writes.
	catchingUp bool

	// reads is the replica's local snapshot-read state (Spec.LocalReads, see
	// snapreads.go).
	reads snapread.Replica
}

// System is a running 2PL/OCC deployment.
type System struct {
	spec    Spec
	nodes   [][]simnet.NodeID // [shard][replica]
	leaders [][]simnet.NodeID // [shard][0]: the leader alone, for multicasts
	servers [][]*server       // [shard][replica]; replica 0 leads
	coords  []*coordinator
	// readMsgs are the local-read path's message freelists, shared by every
	// coordinator and replica of this deployment.
	readMsgs *snapread.Msgs
	// PresumedAborts counts vote-timeout firings that presumed-aborted a
	// transaction still gathering votes (the cross-shard liveness escape).
	PresumedAborts int64
}

// New builds the deployment.
func New(spec Spec) *System {
	sys := &System{spec: spec, readMsgs: snapread.NewMsgs()}
	n := 2*spec.F + 1
	sys.nodes = make([][]simnet.NodeID, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.nodes[s] = make([]simnet.NodeID, n)
		for r := 0; r < n; r++ {
			sys.nodes[s][r] = spec.Net.AddNode(spec.ServerRegion(s, r), nil).ID()
		}
		sys.leaders = append(sys.leaders, sys.nodes[s][:1])
	}
	sys.servers = make([][]*server, spec.Shards)
	for s := 0; s < spec.Shards; s++ {
		sys.servers[s] = make([]*server, n)
		for r := 0; r < n; r++ {
			sys.servers[s][r] = newServer(sys, s, r)
		}
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, reqs: pool.NewArena[reqExec](coord.PayloadChunk),
			commits: pool.NewArena[commitReq](coord.PayloadChunk), aborts: pool.NewArena[abortReq](coord.PayloadChunk)}
		co.tab = coord.New[pendingCo](int32(len(sys.coords)+1), node).Retrying(spec.MaxRetries, spec.RetryBackoff, co.send).OnTimeout(co.checkProgress)
		co.reads = snapread.Coordinator{
			Node: node, Net: spec.Net,
			Clock: spec.Net.Sim().Now, Staleness: spec.ReadStaleness, RetryEvery: readRetryEvery,
			Replicas: n, Replica: func(shard, replica int) simnet.NodeID { return sys.nodes[shard][replica] },
			Msgs: sys.readMsgs,
		}
		co.gate = admit.Gate{
			Cap: spec.AdmitCap, Queue: spec.AdmitQueue,
			Now: func() time.Duration { return spec.Net.Sim().Now() },
		}
		co.start = co.begin
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// newServer assembles one shard replica on its (already-added) network node,
// with a freshly seeded store and an empty Paxos replica. It is used both at
// construction and to rebuild a crashed server on restart. With local reads
// the store is switched to retain history before it is seeded, which is the
// order in which store.Attach shares the shard's seed versions between the
// replicas (and with the store a rebooted server starts over on).
func newServer(sys *System, s, r int) *server {
	node := sys.spec.Net.Node(sys.nodes[s][r])
	srv := &server{
		sys: sys, shard: s, replica: r, node: node,
		st: store.New(), lt: locks.NewTable(),
		pending: make(map[txn.ID]*pendingSrv), pend: pool.New[pendingSrv](),
		onSlot: make(map[int]txn.ID),
		votes:  pool.New[voteMsg](), acks: pool.New[committedMsg](),
		arena:   pool.NewArena[store.Write](writeChunk),
		applied: make(map[txn.ID]bool),
	}
	srv.pax = paxos.NewReplica("pax", node, sys.nodes[s], r, 0, sys.spec.F)
	srv.pax.OnCommit = srv.onPaxosCommit
	srv.lt.Wound = srv.onWound
	if sys.spec.LocalReads {
		srv.st.EnableSnapshots()
		srv.reads = snapread.Replica{
			Node: node, Sim: sys.spec.Net.Sim(), Store: srv.st,
			Shard: s, Self: r, Replicas: len(sys.nodes[s]),
			ExecCost: sys.spec.ExecCost, Staleness: sys.spec.ReadStaleness, Msgs: sys.readMsgs,
		}
		if r == 0 {
			// Leader watermark broadcast; re-armed here so a restarted
			// leader (whose crash cancelled all timers) resumes publishing.
			node.Every(safeTimeEvery, func() bool {
				srv.broadcastSafeT()
				return true
			})
		}
	}
	if sys.spec.Seed != nil {
		sys.spec.Seed(s, srv.st)
	}
	node.SetHandler(srv.handle)
	return srv
}

// Start is a no-op (no periodic tasks); present for interface symmetry.
func (sys *System) Start() {}

// ServerGrid reports the replica grid (protocol.Faultable).
func (sys *System) ServerGrid() (shards, replicas int) { return sys.spec.Shards, 2*sys.spec.F + 1 }

// KillServer crashes a replica: all queued and future deliveries and timers
// are dropped until RestartServer (protocol.Faultable).
func (sys *System) KillServer(shard, replica int) {
	sys.servers[shard][replica].node.Crash()
}

// RestartServer reboots a crashed replica, leader or follower, with empty
// state. The fresh server re-seeds its store and rejoins its Paxos group
// (paxos.Replica.Rejoin): once f+1 surviving replicas have sent their logs it
// adopts the merge (replaying the committed commit records against the
// store) and resumes service; a leader first lets the re-proposed tail
// commit. A survivor that is down at the reboot delays this, as the request
// is re-sent until enough answer. In-flight 2PC decisions finish via the
// coordinators' vote-timeout re-sends; lock state of prepared-but-undecided
// transactions is NOT restored (prepare records are not replicated — a
// documented deviation from Spanner-style 2PL, see EXPERIMENTS.md).
func (sys *System) RestartServer(shard, replica int) {
	old := sys.servers[shard][replica]
	old.node.Restart()
	srv := newServer(sys, shard, replica)
	sys.servers[shard][replica] = srv
	srv.pax.Rejoin(func() { srv.catchingUp = srv.pax.Committed() < srv.pax.LogLen() })
}

// TotalVersions sums retained committed-version counts across every replica
// store — the version-GC tests' memory signal (leaders prune on the safe-time
// tick, followers at watermark adoption, so the total is what must plateau
// under sustained writes).
func (sys *System) TotalVersions() int {
	var n int
	for _, shard := range sys.servers {
		for _, s := range shard {
			n += s.st.Versions()
		}
	}
	return n
}

func (sys *System) leaderNode(shard int) simnet.NodeID { return sys.servers[shard][0].node.ID() }

// ---- server ----

func (s *server) handle(from simnet.NodeID, msg simnet.Message) {
	if s.pax.Handle(from, msg) || s.pax.Rejoining() {
		return // not serving until the survivor logs are installed
	}
	// Snapshot-read traffic is handled on EVERY replica — followers serve
	// local reads too — so it must precede the replica-0 gate below. Dropped
	// requests (rejoining replicas) are re-driven by coordinator retries.
	switch m := msg.(type) {
	case *safeT:
		s.onSafeT(*m)
		return
	case *safeTAck:
		s.onSafeTAck(*m)
		return
	case *snapread.Req:
		s.onSnapRead(from, m)
		return
	}
	if s.replica != 0 {
		return // followers only participate in Paxos
	}
	if s.catchingUp {
		return // dropped requests are re-driven by coordinator timers
	}
	switch m := msg.(type) {
	case *reqExec:
		s.onReqExec(*m)
	case *commitReq:
		s.onCommitReq(*m)
	case *abortReq:
		s.abortLocal(m.ID)
	}
}

// getPend draws a reset pendingSrv from the server's freelist, binding its
// grant callback on first use. The bound closure replaces the per-transaction
// grant literals the 2PL and relock paths used to allocate; the write buffer
// is kept, emptied, so a warm record executes without allocating.
func (s *server) getPend() *pendingSrv {
	p := s.pend.Get()
	*p = pendingSrv{grant: p.grant, writes: p.writes[:0]}
	if p.grant == nil {
		p.grant = func() {
			p.waiting--
			if p.waiting == 0 {
				if p.relockPath {
					s.finishRelock(p.id)
				} else {
					s.finishLock(p.id)
				}
			}
		}
	}
	return p
}

func (s *server) onWound(victim txn.ID) {
	// A transaction that already voted OK on THIS shard must not be wounded:
	// its coordinator may already be committing it elsewhere, so aborting it
	// here would break 2PC atomicity. The immunity is per-shard only — the
	// same transaction can still be queued on another shard, so a wound-wait
	// cycle spanning shards is not broken by this path; the coordinator's
	// vote timeout (Spec.VoteTimeout, presumed abort) is what resolves it.
	if p := s.pending[victim]; p != nil && !p.voted {
		p.wounded = true
	}
}

func (s *server) onReqExec(m reqExec) {
	id := m.T.ID
	if _, dup := s.pending[id]; dup {
		return
	}
	p := s.getPend()
	p.id, p.t, p.prio, p.coord, p.prepTS = id, m.T, m.Prio, m.Coord, s.sys.spec.Net.Sim().Now()
	s.pending[id] = p
	if s.sys.spec.CC == OCC {
		// Optimistic execution with validation at prepare time: a conflict
		// with an in-flight transaction (write-write, read-write) or a queued
		// relock fails the vote here, before any shard has applied anything,
		// so the commit phase below is infallible and 2PC stays atomic.
		s.node.Work(s.sys.spec.ExecCost)
		if !s.lockAll(p) {
			s.lt.ReleaseAll(id)
			delete(s.pending, id)
			s.pend.Put(p)
			s.sendVote(m.Coord, voteMsg{ID: id})
			return
		}
		p.voted = true
		var ret []byte
		ret, p.writes = s.st.ExecuteBuffered(p.writes, m.T.Piece(s.shard))
		s.sendVote(m.Coord, voteMsg{ID: id, OK: true, Ret: ret,
			ArriveS: p.prepTS, LockS: p.prepTS, DoneS: s.node.Busy()})
		s.armDecisionQuery(id)
		return
	}
	// 2PL: acquire all locks (wound-wait), then execute.
	if s.lockAll(p) {
		s.finishLock(id)
	}
}

// lockAll asks for every lock p's piece needs at p's priority — shared for a
// key it only reads, exclusive for one it writes — and reports whether all
// were granted at once. An OCC prepare only tries and stops at the first
// refusal, still holding what it got. Otherwise (2PL, and any relock) a
// refused request waits: p.waiting counts the grants still owed, and the
// last one runs p.grant's continuation.
func (s *server) lockAll(p *pendingSrv) bool {
	piece := p.t.Piece(s.shard)
	for _, k := range piece.ReadSet {
		if !slices.Contains(piece.WriteSet, k) && !s.lock(p, k, locks.Shared) {
			return false
		}
	}
	for _, k := range piece.WriteSet {
		if !s.lock(p, k, locks.Exclusive) {
			return false
		}
	}
	return p.waiting == 0
}

// lock asks for one of lockAll's locks and reports false only for an OCC
// prepare's refusal.
func (s *server) lock(p *pendingSrv, k string, m locks.Mode) bool {
	if s.sys.spec.CC == OCC && !p.relockPath {
		return s.lt.TryAcquire(k, m, p.id, p.prio)
	}
	if !s.lt.Acquire(k, m, p.id, p.prio, p.grant) {
		p.waiting++
	}
	return true
}

func (s *server) finishLock(id txn.ID) {
	p := s.pending[id]
	if p == nil || p.voted {
		return
	}
	if p.wounded {
		s.lt.ReleaseAll(id)
		delete(s.pending, id)
		coord := p.coord
		s.pend.Put(p)
		s.sendVote(coord, voteMsg{ID: id})
		return
	}
	p.voted = true
	p.lockS = s.sys.spec.Net.Sim().Now()
	s.node.Work(s.sys.spec.ExecCost)
	var ret []byte
	ret, p.writes = s.st.ExecuteBuffered(p.writes, p.t.Piece(s.shard))
	s.sendVote(p.coord, voteMsg{ID: id, OK: true, Ret: ret,
		ArriveS: p.prepTS, LockS: p.lockS, DoneS: s.node.Busy()})
	s.armDecisionQuery(id)
}

// onCommitReq starts the replicated apply. Validation already happened at
// vote time (OCC) or is guaranteed by held locks (2PL, wounds are rejected
// after voting), so this phase cannot fail and commitment is atomic across
// shards. Re-sent requests (coordinator vote-timeout after a leader reboot)
// are deduplicated: an already-applied commit is acknowledged directly and
// an in-flight proposal or re-lock is left alone. An unknown transaction is
// a decided commit whose prepare state died with the old leader — it is
// re-locked (wound-wait at its original priority; having voted, it is itself
// immune to wounds) and re-executed under the fresh locks before proposing,
// because its pre-crash write buffer is stale against anything committed
// since the reboot.
func (s *server) onCommitReq(m commitReq) {
	if s.applied[m.ID] {
		s.sendCommitted(m.Coord, m.ID, 0, 0)
		return
	}
	p := s.pending[m.ID]
	if p == nil {
		p = s.getPend()
		p.t, p.prio, p.coord, p.voted, p.relocking = m.T, m.Prio, m.Coord, true, true
		p.id, p.relockPath = m.ID, true
		p.prepTS, p.ts = s.sys.spec.Net.Sim().Now(), m.TS
		s.pending[m.ID] = p
		if s.lockAll(p) {
			s.finishRelock(m.ID)
		}
		return
	}
	p.coord = m.Coord
	p.ts = m.TS
	if p.proposed || p.relocking {
		return
	}
	p.cReqS = s.sys.spec.Net.Sim().Now()
	s.propose(p)
}

func (s *server) finishRelock(id txn.ID) {
	p := s.pending[id]
	if p == nil || !p.relocking {
		return
	}
	p.relocking = false
	if s.applied[id] {
		// A recovered slot committed this transaction while we waited for
		// the locks (a rejoined leader re-proposes the adopted tail).
		s.lt.ReleaseAll(id)
		delete(s.pending, id)
		coord := p.coord
		s.pend.Put(p)
		s.sendCommitted(coord, id, 0, 0)
		return
	}
	s.node.Work(s.sys.spec.ExecCost)
	// The coordinator already holds the pre-crash vote result.
	_, p.writes = s.st.ExecuteBuffered(p.writes, p.t.Piece(s.shard))
	s.propose(p)
}

// propose hands p's commit record to Paxos. Every replica's log keeps the
// record and its write set for good, so the record comes from the leader's
// slab and the writes are copied out of p's buffer, which the record's next
// use overwrites, into the arena.
func (s *server) propose(p *pendingSrv) {
	p.proposed = true
	rec := s.recs.At(s.recs.Add())
	*rec = commitRec{ID: p.id, TS: p.ts, Writes: s.keep(p.writes)}
	s.onSlot[s.pax.Propose(rec)] = p.id
}

// writeChunk is the write arena's chunk: 256 writes, 12 KB. A run pays for at
// most one chunk a leader beyond the writes it commits, so a short run does not
// pay for a large one.
const writeChunk = 256

// keep copies ws into the write arena and returns the copy, cap-limited: an
// append to one write set reallocates instead of running into the next.
func (s *server) keep(ws []store.Write) []store.Write {
	kept := s.arena.Carve(len(ws))
	copy(kept, ws)
	return kept
}

// sendVote sends coord the vote v, drawn from the leader's freelist.
func (s *server) sendVote(coord simnet.NodeID, v voteMsg) {
	m := s.votes.Get()
	*m = v
	m.src = s
	s.node.Send(coord, m)
}

// sendCommitted acknowledges transaction id's apply to coord, drawn from the
// leader's freelist.
func (s *server) sendCommitted(coord simnet.NodeID, id txn.ID, arriveS, commitS time.Duration) {
	m := s.acks.Get()
	*m = committedMsg{src: s, ID: id, ArriveS: arriveS, CommitS: commitS}
	s.node.Send(coord, m)
}

func (s *server) abortLocal(id txn.ID) {
	p := s.pending[id]
	if p == nil {
		return
	}
	s.lt.ReleaseAll(id)
	delete(s.pending, id)
	s.pend.Put(p)
}

// onPaxosCommit applies a replicated commit record on every replica; the
// leader additionally finishes the 2PC and answers the coordinator. The
// applied set makes the apply idempotent: after a leader reboot the same
// transaction can reach commit through both a re-proposed recovered slot and
// a re-sent commit request, and only the first may touch the store.
func (s *server) onPaxosCommit(slot int, cmd paxos.Command) {
	rec := cmd.(*commitRec)
	if !s.applied[rec.ID] {
		s.applied[rec.ID] = true
		// rec.TS is the minted commit timestamp under LocalReads (the stores
		// retain versions) and zero otherwise.
		s.st.ApplyAt(rec.TS, rec.Writes)
	}
	if s.replica != 0 {
		if s.sys.spec.LocalReads {
			s.reads.Applied(s.pax.Applied())
		}
		return
	}
	if s.catchingUp && s.pax.Committed() >= s.pax.LogLen() {
		s.catchingUp = false
	}
	if id, ok := s.onSlot[slot]; ok {
		delete(s.onSlot, slot)
		if p := s.pending[id]; p != nil {
			s.lt.ReleaseAll(id)
			delete(s.pending, id)
			coord, cReqS := p.coord, p.cReqS
			s.pend.Put(p)
			s.sendCommitted(coord, id, cReqS, s.sys.spec.Net.Sim().Now())
		}
	}
}

// ---- coordinator ----

// pendingCo is a transaction attempt in flight at its coordinator. The tally
// is kept per piece position i (t.Pieces[i]): votes[i] is the OK vote of
// piece i's shard (OK false while it has not voted) and acked[i] is set once
// that shard applied the commit; nvoted and nacked count them. The slices are
// reused when the record is.
type pendingCo struct {
	coord.Attempt
	prio   uint64 // kept by every attempt of the transaction
	votes  []voteMsg
	acked  []bool
	nvoted int
	nacked int
	phase  int           // 0 = exec, 1 = commit
	ts     txn.Timestamp // minted at the commit decision (LocalReads)
}

type coordinator struct {
	sys  *System
	node *simnet.Node
	// tab files the attempts in flight, recycles their records, retries
	// aborted ones (send resends them) and arms the vote timeout
	// (checkProgress).
	tab *coord.Table[pendingCo, *pendingCo]

	// gate is the admission-control gate (Spec.AdmitCap etc.); disabled by
	// default, it passes submissions straight through. start is the gate's
	// launch callback, bound once.
	gate  admit.Gate
	start func(*txn.Txn, func(txn.Result))

	// reads drives local snapshot reads (Spec.LocalReads, see snapreads.go).
	reads snapread.Coordinator

	// reqs, commits and aborts carve the requests (see the messages section).
	reqs    pool.Arena[reqExec]
	commits pool.Arena[commitReq]
	aborts  pool.Arena[abortReq]
}

// Submit runs the layered commit protocol for t, behind the coordinator's
// admission gate. Protocol-internal retries reuse the admitted slot (the
// wrapped done survives every attempt that coord.Table.Retry resends), so one
// logical transaction holds exactly one slot until its final outcome.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.gate.Submit(t, done, co.start)
}

// begin starts t's first attempt. Wound-wait priority: older transactions
// (earlier first submission) win; a retry keeps the record, and so its
// priority, so victims make progress.
func (co *coordinator) begin(t *txn.Txn, done func(txn.Result)) {
	p := co.tab.Begin(t, done)
	p.prio = uint64(co.sys.spec.Net.Sim().Now())<<8 | uint64(t.ID.Coord)
	co.send(p)
}

// send runs attempt p: it readies the tally, asks every shard leader to
// prepare and arms the vote timeout.
func (co *coordinator) send(p *pendingCo) {
	if p.Retries > 0 {
		// The failed attempt plus its backoff are retry-attributed; the mark
		// also advances the trace cursor past the dead attempt's stamps.
		p.T.Trace.Mark(co.sys.spec.Net.Sim().Now(), trace.PhaseRetry)
	}
	k := len(p.T.Pieces)
	p.votes, p.acked = coord.Zeroed(p.votes, k), coord.Zeroed(p.acked, k)
	p.phase, p.ts, p.nvoted, p.nacked = 0, txn.Timestamp{}, 0, 0
	co.tab.Multicast(p.T, co.reqs.New(reqExec{T: p.T, Prio: p.prio, Coord: co.node.ID()}), co.sys.leaders)
	if vt := co.sys.spec.VoteTimeout; vt > 0 {
		co.tab.Arm(p, vt)
	}
}

// checkProgress fires when the vote timeout elapses for a submission attempt
// that is still in flight. Still gathering votes: presumed abort — release
// every shard and retry, which is what breaks a wound-wait cycle spanning
// shards (the per-shard vote immunity in onWound cannot). Past the commit
// decision: re-send the commit records (with their writes) to the shards that
// have not confirmed, so a rebooted leader can finish the 2PC, and keep
// watching.
func (co *coordinator) checkProgress(p *pendingCo) {
	if p.phase == 0 {
		co.sys.PresumedAborts++
		// Presumed-abort retries add a per-coordinator stagger on top of the
		// shared backoff: two coordinators whose transactions deadlocked each
		// other timed out together, and with identical backoffs their retries
		// would re-collide in lockstep forever. The stagger is the
		// deterministic simulator's stand-in for randomized backoff.
		co.abort(p, co.sys.spec.RetryBackoff*time.Duration(p.T.ID.Coord)/2)
		return
	}
	m := co.commits.New(commitReq{ID: p.T.ID, Coord: co.node.ID(), T: p.T, Prio: p.prio, TS: p.ts})
	for i := range p.T.Pieces {
		if !p.acked[i] {
			co.node.Send(co.sys.leaderNode(p.T.Pieces[i].Shard()), m)
		}
	}
	co.tab.Arm(p, co.sys.spec.VoteTimeout)
}

// handle dispatches the coordinator's deliveries. A leader's reply is copied
// out and put back on the list of the leader that sent it before it is acted
// on.
func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *voteMsg:
		v := *m
		m.src.votes.Put(m)
		co.onVote(v)
	case *committedMsg:
		c := *m
		m.src.acks.Put(m)
		co.onCommitted(c)
	case *snapread.Rep:
		co.reads.OnRep(m)
	case *decisionQuery:
		co.onDecisionQuery(from, *m)
	}
}

func (co *coordinator) onVote(m voteMsg) {
	p := co.tab.Get(m.ID)
	if p == nil || p.phase != 0 {
		return
	}
	if !m.OK {
		co.abort(p, 0)
		return
	}
	m.RecvS = co.sys.spec.Net.Sim().Now()
	i := p.T.Pos(m.src.shard)
	if !p.votes[i].OK {
		p.nvoted++
	}
	p.votes[i] = m
	if p.nvoted < len(p.T.Pieces) {
		return
	}
	p.phase = 1
	// The commit timestamp is minted at the decision: it is later than every
	// shard's vote (hence every prepTS pinning a leader watermark), and
	// unique via the (Coord, Seq) tie-break.
	if co.sys.spec.LocalReads {
		p.ts = txn.Timestamp{Time: co.sys.spec.Net.Sim().Now(), Coord: m.ID.Coord, Seq: m.ID.Seq}
	}
	co.tab.Multicast(p.T, co.commits.New(commitReq{ID: m.ID, Coord: co.node.ID(), T: p.T, Prio: p.prio, TS: p.ts}), co.sys.leaders)
}

func (co *coordinator) onCommitted(m committedMsg) {
	p := co.tab.Get(m.ID)
	if p == nil {
		return
	}
	if i := p.T.Pos(m.src.shard); !p.acked[i] {
		p.acked[i] = true
		p.nacked++
	}
	if p.nacked < len(p.T.Pieces) {
		return
	}
	if tr := p.T.Trace; tr != nil {
		// Critical path: the decisive (latest-arriving) vote decomposes the
		// prepare round into flight out, lock wait, execution, and flight
		// back; this committedMsg — the one completing the 2PC — carries
		// the commit round's stamps, with the Paxos wait as replication.
		// Piece order, so RecvS ties break identically across runs.
		var dv voteMsg
		for _, v := range p.votes {
			if v.RecvS > dv.RecvS {
				dv = v
			}
		}
		tr.Mark(dv.ArriveS, trace.PhaseFlight)
		tr.Mark(dv.LockS, trace.PhaseLockWait)
		tr.Mark(dv.DoneS, trace.PhaseExec)
		tr.Mark(dv.RecvS, trace.PhaseFlight)
		tr.Mark(m.ArriveS, trace.PhaseFlight)
		tr.Mark(m.CommitS, trace.PhaseRepl)
		tr.Mark(co.sys.spec.Net.Sim().Now(), trace.PhaseFlight)
	}
	for i := range p.votes {
		co.tab.Fold(p, p.T.Pieces[i].Shard(), p.votes[i].Ret)
	}
	co.tab.Finish(p, txn.Result{OK: true, TS: p.ts})
}

// abort releases every shard and retries with backoff (plus the caller's
// stagger; 0 for ordinary wound/validation aborts) until the budget runs out.
func (co *coordinator) abort(p *pendingCo, stagger time.Duration) {
	co.tab.Multicast(p.T, co.aborts.New(abortReq{ID: p.T.ID}), co.sys.leaders)
	co.tab.Retry(p, stagger)
}
