package tiga

import (
	"sort"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/hashlog"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Server status values (Figure 4).
type status int

const (
	statusNormal status = iota
	statusViewChange
	statusRecovering
)

// logEntry is one entry of the replicated log: a transaction with its agreed
// timestamp.
type logEntry struct {
	ID txn.ID
	TS txn.Timestamp
	T  *txn.Txn
}

// rec is the server's bookkeeping for one transaction. Every replica keeps one
// per transaction from the first message that names it until it retires, a
// checkpoint interval or more after its commit (Server.retire), so the records
// of a few thousand transactions per server are live heap and the struct's
// size class counts (TestRecStaysInItsSizeClass): what only some records need
// for some of the time — §3.5 agreement state — lives behind ag.
type rec struct {
	id    txn.ID
	t     *txn.Txn
	piece *txn.Piece
	ts    txn.Timestamp // this server's current view of T.t
	coord simnet.NodeID
	// refs caches the conflict-table entries of the piece's keys, the nr read
	// keys first, resolved once when the piece is attached (Server.attach).
	// The slice is carved from the table's arena.
	refs []uint32
	// ag is the record's agreement state while agreement runs (Server.agree).
	ag     *agreement
	result []byte
	owd    time.Duration

	// Span stamps (internal/trace), in sim time, copied onto outgoing fast
	// replies: arriveS = txnMsg arrival, eligS = first expired-prefix scan
	// that reached the record (timestamp expiry), relS = picked for
	// release/execution. Plain field writes — no per-txn cost beyond them.
	arriveS, eligS, relS time.Duration

	// (The field order packs the struct into its 192 bytes: the hash, nr and
	// pos share three words with the flags.)
	replyHash hashlog.Hash
	nr        uint32
	// pos is the record's position in the log once it is there: released and
	// not a tail.
	pos uint32

	inPQ     bool
	parked   bool // leader: in pq awaiting agreement; its keys carry parked counts
	mapped   bool // the conflict table records the access sets at the current ts (recordMaps ran since ts last moved)
	held     bool // follower: arrived too late, waiting for log-sync
	tail     bool // follower: released optimistically, not yet synced (the optimistic tail, §3.3)
	executed bool
	released bool
	proposed bool // preventive mode: round-1 notification sent
	agreed   bool // agreement finished; safe to release once (re-)executed
	fetching bool
}

func (r *rec) multiShard() bool { return r.t != nil && len(r.t.Pieces) > 1 }

// reads and writes return the conflict-table entries of r's read and write
// set (empty until a piece is attached).
func (r *rec) reads() []uint32  { return r.refs[:r.nr] }
func (r *rec) writes() []uint32 { return r.refs[r.nr:] }

// prioQueue holds pending transactions ordered by timestamp (pq, Figure 4).
type prioQueue struct {
	items []*rec
	// fallbacks counts erases that did not find their record where its
	// timestamp says it is: the order invariant was broken. Tests assert zero.
	fallbacks int64
}

func (q *prioQueue) len() int { return len(q.items) }

func (q *prioQueue) insert(r *rec) {
	i := sort.Search(len(q.items), func(i int) bool { return r.ts.Less(q.items[i].ts) })
	q.items = append(q.items, nil)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = r
	r.inPQ = true
}

func (q *prioQueue) erase(r *rec) {
	if !r.inPQ {
		return
	}
	i := sort.Search(len(q.items), func(i int) bool { return !q.items[i].ts.Less(r.ts) })
	for ; i < len(q.items); i++ {
		if q.items[i] == r {
			q.items = append(q.items[:i], q.items[i+1:]...)
			r.inPQ = false
			return
		}
		if r.ts.Less(q.items[i].ts) {
			break
		}
	}
	// The record is queued but not at its timestamp: something moved r.ts
	// behind the queue's back. Keep the queue consistent, and count it.
	q.fallbacks++
	for i, it := range q.items {
		if it == r {
			q.items = append(q.items[:i], q.items[i+1:]...)
			break
		}
	}
	r.inPQ = false
}

func (q *prioQueue) reposition(r *rec, ts txn.Timestamp) {
	q.erase(r)
	r.ts = ts
	q.insert(r)
}

// Server is one Tiga replica of one shard (Algorithm 1/2).
type Server struct {
	cfg     Config
	cluster *Cluster
	node    *simnet.Node
	clock   clocks.Clock

	shard   int
	replica int

	view   globalView
	lview  int
	status status
	lnv    int // last-normal-view

	st *store.Store
	pq prioQueue
	// recs finds the record of each transaction the server has heard of and
	// not retired. The records come from recSlab a chunk at a time, or from
	// free, the LIFO of the slab entries retire handed back (newRec); installLog
	// starts all three over. Every slab entry is live and in recs, or free and
	// zero.
	recs    map[txn.ID]*rec
	recSlab pool.Slab[rec]
	free    []*rec
	// Retirement (retire): done is the highest done watermark each coordinator
	// has sent (txnMsg.Done), indexed by txn.ID.Coord; retired counts the
	// records retired since the last log install and lateRetired the messages
	// that named a retired transaction.
	done        []uint64
	retired     int
	lateRetired int64
	// keys is the conflict state (conflict.go): per touched key, Alg. 1's read
	// and write timestamps; the parked counts — how many parked records read
	// and write the key: pq records whose process call is a no-op until §3.5
	// agreement completes (detective: executed; preventive: proposed) and whose
	// timestamp the table covers (rec.mapped), maintained at the state
	// transitions (park, unpark) so pumpOnce steps over parked records instead
	// of re-deriving their keys on every pump; and pumpOnce's blocked sets for
	// blocked records that are not parked. Records reach it through the
	// entries they cached at attach.
	keys conflictTable
	// agreements holds the live §3.5 agreement objects in no particular order
	// (agreement.slot); resendAgreements sorts it by id before it walks it.
	agreements []*agreement

	// log is the leader's log, a follower's synced prefix: entry i is position
	// i. It is kept for the whole run (§4's checkpoint is a position in it), so
	// it lives in slab chunks that never move instead of a slice that copies
	// all of it at each growth. A follower's optimistic tail (§3.3) is the
	// records flagged rec.tail; tails counts them.
	log     pool.Slab[logEntry]
	tails   int
	relHash hashlog.Incremental

	syncPoint   int
	commitPoint int
	applied     int // follower: entries applied to the store
	// pendingSync buffers the log-sync messages that arrived ahead of the
	// sync-point, by position; one that arrives in order is applied as it is.
	pendingSync map[int]logSyncMsg

	followerSP map[int]int // leader: replica -> reported sync-point

	// Checkpoint (§4): a position in the committed log. Its identity is the
	// prefix log[:checkpointPos] itself and no store image is kept; installLog
	// checks the prefix against the incoming log and rebuilds the image by
	// replay when a recovery needs it.
	checkpointPos int

	pumpAt  time.Duration // earliest scheduled pump deadline (0 = none)
	pumpSeq uint64
	pumping bool
	repump  bool

	// onScan is a test hook called with every blockedBy verdict of pumpOnce:
	// the queue index examined and the verdict (nil outside tests).
	onScan func(i int, blocked bool)

	// Reused hot-path scratch: spScratch backs the commit-point quantile in
	// onSyncPoint; pumpFire/flushFire are the persistent bodies of the gated
	// pump and safe-flush timers.
	spScratch []int
	pumpFire  func()
	flushFire func()

	// Local snapshot reads (active only with Config.LocalReads): reads holds
	// the watermark (in the clock domain), the reads waiting behind it and the
	// version-GC horizon; flushSeq/flushAt dedup the leader's waiter-flush timer.
	reads    snapread.Replica
	flushSeq uint64
	flushAt  time.Duration

	// View change state (Algorithm 5). recovered is the new leader's log under
	// reconstruction, from rebuildLog until installLog adopts it.
	vQuorum   map[int]*viewChangeMsg
	tQuorum   map[int]*tsVerification
	rebuilt   bool
	recovered []logEntry

	// Stats exposed to the harness.
	Rollbacks  int64
	Executions int64
	PumpCalls  int64
	PumpScan   int64
}

// newServer wires a server, serving from st, into the cluster.
func newServer(c *Cluster, shard, replica int, node *simnet.Node, clk clocks.Clock, st *store.Store) *Server {
	s := &Server{
		cfg: c.Cfg, cluster: c, node: node, clock: clk,
		shard: shard, replica: replica,
		view: c.initial.copy(),
		st:   st,
		recs: make(map[txn.ID]*rec),

		pendingSync: make(map[int]logSyncMsg),
		followerSP:  make(map[int]int),
	}
	s.reads = snapread.Replica{
		Node: node, Sim: c.Net.Sim(), Store: s.st,
		Shard: shard, Self: replica, Replicas: c.Cfg.Replicas(),
		ExecCost: c.Cfg.ExecCost, Staleness: c.Cfg.ReadStaleness, Msgs: c.msgs.reads,
	}
	s.lview = s.view.GVec[shard]
	s.pumpFire = func() { s.pumpAt = 0; s.pump() }
	s.flushFire = func() { s.flushAt = 0; s.advanceSafeTime() }
	node.SetHandler(s.handle)
	return s
}

// Store exposes the shard store (tests, workload seeding).
func (s *Server) Store() *store.Store { return s.st }

// LogIDs returns the ids of synced log entries in order (tests).
func (s *Server) LogIDs() []txn.ID {
	out := make([]txn.ID, s.log.Len())
	for i := range out {
		out[i] = s.log.At(uint32(i)).ID
	}
	return out
}

// IsLeader reports whether this server leads its shard in its current view.
func (s *Server) IsLeader() bool { return s.lview%(s.cfg.Replicas()) == s.replica }

func (s *Server) now() time.Duration { return s.clock.Read(s.cluster.Net.Sim().Now()) }

// start launches the server's periodic tasks.
func (s *Server) start() {
	// Periodic sweep: drain any expired queue prefix. The timer chain in
	// schedulePump is the low-latency path; this bounds staleness even if a
	// deadline is missed. Followers also report sync-points; everyone
	// heartbeats the view manager.
	s.node.Every(s.cfg.SyncPointEvery, func() bool {
		s.pump()
		if s.status == statusNormal && !s.IsLeader() {
			m := s.cluster.msgs.syncPt.Get()
			*m = syncPointMsg{
				viewInfo:  s.views(),
				Shard:     s.shard,
				Replica:   s.replica,
				SyncPoint: s.syncPoint,
				W:         s.reads.Watermark(),
			}
			s.node.Send(s.leaderOf(s.shard), m)
		}
		if s.cfg.LocalReads && s.status == statusNormal && s.IsLeader() {
			s.broadcastSafeTime()
		}
		return true
	})
	s.node.Every(heartbeatEvery, func() bool {
		s.node.Send(s.cluster.vmLeaderNode(), heartbeatMsg{Shard: s.shard, Replica: s.replica})
		return true
	})
	// Re-broadcast stalled agreements (lost notifications) and re-send
	// view-change messages if a view change stalls (lost start-view).
	s.node.Every(s.cfg.RetryTimeout/2, func() bool {
		s.resendAgreements()
		if s.status == statusViewChange && !s.IsLeader() {
			s.node.Send(s.leaderOf(s.shard), s.viewChange())
		}
		return true
	})
}

func (s *Server) views() viewInfo { return viewInfo{GView: s.view.GView, LView: s.lview} }

// leaderOf is the node of shard sh's leader in the server's view.
func (s *Server) leaderOf(sh int) simnet.NodeID {
	return s.cluster.serverNode(sh, s.view.GVec[sh]%s.cfg.Replicas())
}

// handle dispatches incoming messages. Pooled hot-path messages are recycled
// here, after their handler returns — handlers copy whatever they retain.
func (s *Server) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *txnMsg:
		s.onTxn(from, m)
		s.cluster.msgs.txn.Put(m)
	case *tsNotification:
		s.onTsNotification(from, m)
		s.cluster.msgs.tsNote.Put(m)
	case *logSyncMsg:
		s.onLogSync(m)
		s.cluster.msgs.logSync.Put(m)
	case *syncPointMsg:
		s.onSyncPoint(m)
		s.cluster.msgs.syncPt.Put(m)
	case *safeTimeMsg:
		s.onSafeTime(m)
		s.cluster.msgs.safeTime.Put(m)
	case *snapread.Req:
		s.onSnapRead(from, m)
	case probeMsg:
		s.node.Send(m.Coord, probeRep{Shard: s.shard, Replica: s.replica, OWD: s.now() - m.SendClock})
	case slowInquiry:
		s.node.Send(m.Coord, slowInquiryRep{viewInfo: s.views(), Shard: s.shard, Replica: s.replica, SyncPoint: s.syncPoint})
	case fetchTxnReq:
		s.onFetchTxn(from, m)
	case fetchTxnRep:
		s.onFetchTxnRep(m)
	case viewChangeReq:
		s.onViewChangeReq(m)
	case viewChangeMsg:
		s.onViewChange(&m)
	case tsVerification:
		s.onTsVerification(&m)
	case startViewMsg:
		s.onStartView(m)
	case stateTransferReq:
		s.onStateTransferReq(from, m)
	case stateTransferRep:
		s.onStateTransferRep(m)
	case vmInfo:
		s.onVMInfo(m)
	}
}

// ---- §3.2 Conflict detection and timestamp update ----

// attach gives r its piece of the transaction and resolves the piece's keys,
// once, to their conflict-table entries: each to its KeyID of this server's
// store first (store.ID: a name and an id of the same key always meet in one
// entry), then through the table's index. The ids are the current store's:
// installLog rebuilds the table and every record when it replaces the store.
func (s *Server) attach(r *rec, p *txn.Piece) {
	nr := len(p.ReadSet)
	r.piece, r.refs, r.nr = p, s.keys.arena.Carve(nr+len(p.WriteSet)), uint32(nr)
	for i := range p.ReadSet {
		r.refs[i] = s.keys.entry(s.st.ID(p.ReadSet, p.ReadIDs, i))
	}
	for i := range p.WriteSet {
		r.refs[nr+i] = s.keys.entry(s.st.ID(p.WriteSet, p.WriteIDs, i))
	}
}

func (s *Server) onTxn(from simnet.NodeID, m *txnMsg) {
	s.noteDone(m.ID().Coord, m.Done)
	if s.status != statusNormal || m.GView != s.view.GView {
		return
	}
	r, ok := s.recs[m.ID()]
	if !ok && s.late(m.ID()) {
		return
	}
	if ok {
		// Duplicate (coordinator retry / retransmission): at-most-once —
		// re-send the reply instead of re-processing. The record may have
		// been created by log-sync or a leader fetch, so (re)learn the
		// coordinator address from the message.
		r.coord = m.Coord
		if r.t == nil {
			// The record is a placeholder from a timestamp notification
			// (the original multicast was lost): adopt the body now.
			r.t = m.T
			s.attach(r, m.T.Piece(s.shard))
			r.ts = m.TS
			r.owd = s.now() - m.SendClock
			r.arriveS = s.cluster.Net.Sim().Now()
			s.admit(r)
			s.checkAgreement(r)
			return
		}
		if !r.released && !r.agreed && r.ts.Less(m.TS) && m.Retry >= 2 {
			// Retry with a larger timestamp (Appendix B): re-position the
			// pending transaction so every leader's queue re-converges on
			// the retry timestamp, breaking cross-leader blocking cycles
			// caused by divergent local timestamp bumps. An optimistic
			// execution at the stale timestamp is revoked (as in Case-3).
			s.revoke(r)
			if r.inPQ {
				s.reposition(r, m.TS)
			} else {
				r.ts = m.TS
				if r.held && s.keys.passes(r, r.ts) {
					r.held = false
					s.pq.insert(r)
				}
			}
			s.schedulePump(r.ts.Time)
			s.pump()
			return
		}
		s.resendReply(r)
		return
	}
	r = s.newRec(m.ID())
	r.t, r.ts, r.coord = m.T, m.TS, m.Coord
	r.owd = s.now() - m.SendClock
	r.arriveS = s.cluster.Net.Sim().Now()
	s.attach(r, m.T.Piece(s.shard))
	s.admit(r)
}

// revoke undoes r's optimistic execution, made at a timestamp that no longer
// holds (Case-3 of §3.5, an Appendix-B retry). A no-op if r is not executed.
func (s *Server) revoke(r *rec) {
	if !r.executed {
		return
	}
	s.st.Revoke(r.id)
	s.relHash.Remove(r.id, r.ts)
	r.executed = false
	r.result = nil
	s.Rollbacks++
}

// newRec starts the record of a transaction the server has not heard of: the
// slab entry retire handed back last, or the next entry of the record slab when
// none is free, zero but for the id, and entered in recs. The slab only grows
// while every entry is live, so records cost one allocation per chunk of their
// peak live count.
func (s *Server) newRec(id txn.ID) *rec {
	var r *rec
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = s.recSlab.At(s.recSlab.Add())
	}
	r.id = id
	s.recs[id] = r
	return r
}

// admit runs conflict detection and queue insertion for a new transaction
// (Alg. 1 lines 1–5).
func (s *Server) admit(r *rec) {
	s.node.Work(s.cfg.PQCost)
	if s.cfg.LocalReads && s.IsLeader() && r.ts.Time <= s.reads.Watermark() {
		// A straggler below the published safe-time watermark: lift it
		// above the watermark so no transaction ever commits under a
		// snapshot already served. The coordinator sees the changed
		// timestamp and falls back to the slow path, as with any bump.
		r.ts = txn.Timestamp{Time: s.reads.Watermark() + 1, Coord: r.ts.Coord, Seq: r.ts.Seq}
	}
	if s.keys.passes(r, r.ts) {
		s.pq.insert(r)
	} else if s.IsLeader() {
		// Leader updates the timestamp to its local clock (line 4), pushed
		// past any released conflicting transaction.
		t := s.now()
		if min := s.keys.minAcceptable(r); min > t {
			t = min
		}
		r.ts = txn.Timestamp{Time: t, Coord: r.ts.Coord, Seq: r.ts.Seq}
		s.pq.insert(r)
	} else {
		// Follower: hold and wait for the slow path (§3.2).
		r.held = true
		return
	}
	s.schedulePump(r.ts.Time)
}

func (m txnMsg) ID() txn.ID { return m.T.ID }

// resendReply answers a duplicate of a transaction already replied to with the
// reply as originally issued (the hash at release time), without the first
// reply's delay sample and span stamps.
func (s *Server) resendReply(r *rec) {
	if !r.released && !r.executed {
		return
	}
	if s.IsLeader() {
		// A released record's entry lies below the log's length; an executed
		// one waiting for agreement has no position yet.
		pos := -1
		if r.released {
			pos = s.log.Len()
		}
		s.leaderReply(r, pos, false)
	} else if r.released {
		// Synced already? Then the slow reply is what the coordinator needs.
		if !r.tail {
			s.slowReply(r.coord, r.id, r.ts)
		} else {
			s.node.Send(r.coord, s.reply(r, false))
		}
	}
}

// reply builds r's fast reply (§3.4) in the server's current view, under the
// hash r was released with. A first reply also carries the arrival-delay
// sample and the span stamps; a re-sent one carries neither.
func (s *Server) reply(r *rec, first bool) *fastReply {
	m := s.cluster.msgs.fastRep.Get()
	*m = fastReply{viewInfo: s.views(), Shard: s.shard, Replica: s.replica, ID: r.id, TS: r.ts, Hash: r.replyHash}
	if first {
		m.OWD, m.ArriveS, m.EligS, m.RelS, m.DoneS = r.owd, r.arriveS, r.eligS, r.relS, s.node.Busy()
	}
	return m
}

// leaderReply sends the leader's fast reply for r: with the execution result,
// and with the log position r was released at, or -1 before its release. A
// follower's sync-point vouches for r only past that position (Appendix E).
func (s *Server) leaderReply(r *rec, pos int, first bool) {
	m := s.reply(r, first)
	m.Ret, m.IsLeader, m.LogPos = r.result, true, pos
	s.node.Send(r.coord, m)
}

// ---- §3.3 release & optimistic execution ----

// schedulePump arranges for pump to run once the local clock passes tsTime.
// At most one timer is pending at a time: scheduling an earlier deadline
// supersedes the pending one (the stale timer no-ops via the sequence check).
func (s *Server) schedulePump(tsTime time.Duration) {
	if s.cfg.EpsilonBound > 0 {
		tsTime += s.cfg.EpsilonBound
	}
	simNow := s.cluster.Net.Sim().Now()
	at := s.clock.WhenReads(tsTime, simNow)
	if s.pumpAt != 0 && s.pumpAt <= at {
		return // an earlier-or-equal pump is already pending
	}
	s.pumpAt = at
	s.pumpSeq++
	d := at - simNow
	if d < 0 {
		d = 0
	}
	// Gated timer: a stale arm (superseded by an earlier deadline, which
	// bumped pumpSeq) no-ops at fire time, and the persistent pumpFire body
	// replaces a capturing closure per arm. pumpSeq cannot change between the
	// gate check and the CPU-queued run: re-arming requires a deadline
	// strictly before pumpAt, and pumpAt is the deadline firing right now.
	s.node.AfterGate(d, &s.pumpSeq, s.pumpSeq, s.pumpFire)
}

// pump scans the expired prefix of the priority queue in timestamp order and
// processes every transaction not blocked by an earlier conflicting one
// (Alg. 1 lines 6–31). Because the queue is timestamp-ordered and expiry is a
// timestamp threshold, expired transactions always form a prefix.
func (s *Server) pump() {
	if s.status != statusNormal {
		return
	}
	if s.pumping {
		s.repump = true
		return
	}
	s.pumping = true
	defer func() { s.pumping = false }()
	for {
		s.repump = false
		s.pumpOnce()
		if !s.repump {
			return
		}
	}
}

func (s *Server) pumpOnce() {
	s.PumpCalls++
	now := s.now()
	hold := time.Duration(0)
	if s.cfg.EpsilonBound > 0 {
		hold = s.cfg.EpsilonBound
	}
	// The blocked sets live in the conflict table under this pump's stamp;
	// a pump that blocked something ends by moving to the next stamp.
	dirty := false
	i := 0
	simNow := s.cluster.Net.Sim().Now()
	for i < len(s.pq.items) {
		r := s.pq.items[i]
		if r.ts.Time+hold > now {
			break
		}
		if r.parked {
			// Re-examining it cannot make it runnable (process is a no-op
			// until agreement, which unparks it), nothing before it conflicts
			// with it, and its keys already block later records via their
			// parked counts.
			i++
			continue
		}
		s.PumpScan++
		if r.eligS == 0 {
			// First expired-prefix scan that reached the record: the
			// future-timestamp headroom wait ends here.
			r.eligS = simNow
		}
		blocked := s.keys.blockedBy(r)
		if s.onScan != nil {
			s.onScan(i, blocked)
		}
		if blocked {
			// Blocked behind an earlier conflicting transaction: it stays,
			// and its own keys block later conflicting transactions too.
			s.keys.block(r)
			dirty = true
			i++
			continue
		}
		before := len(s.pq.items)
		s.process(r)
		if len(s.pq.items) == before && s.pq.items[i] == r {
			// Still pending: it blocks conflicts — durably if all it waits
			// for is agreement and the conflict table covers its timestamp, for
			// this scan only otherwise: it is runnable again next pump (agreed
			// but unexecuted), or it proposed and was then repositioned, so a
			// conflicting record may still be admitted ahead of it and must
			// not find it in the parked sets.
			if (r.executed || r.proposed) && !r.agreed && r.mapped {
				s.keys.park(r)
			} else {
				s.keys.block(r)
				dirty = true
			}
			i++
		}
		// If process released or repositioned r, re-examine index i.
	}
	if dirty {
		s.keys.endPump()
	}
	if i < len(s.pq.items) {
		s.schedulePump(s.pq.items[i].ts.Time)
	}
}

// erase removes r from the queue (and from the parked counts).
func (s *Server) erase(r *rec) {
	s.keys.unpark(r)
	s.pq.erase(r)
}

// reposition moves a pending record to a larger timestamp (Case-3, retry). It
// may now sit after conflicting unparked records and the conflict table no
// longer covers its timestamp, so it is no longer parked and cannot be until it
// is re-mapped.
func (s *Server) reposition(r *rec, ts txn.Timestamp) {
	s.keys.unpark(r)
	r.mapped = false
	s.pq.reposition(r, ts)
	s.node.Work(s.cfg.PQCost)
}

// process handles one expired, unblocked transaction.
func (s *Server) process(r *rec) {
	if !s.IsLeader() {
		// Follower: release without executing (§3.3) and fast-reply.
		s.recordMaps(r)
		s.releaseFollower(r)
		return
	}
	preventive := s.view.GMode == ModePreventive && r.multiShard() && s.cfg.EpsilonBound == 0
	if preventive {
		if !r.proposed {
			s.recordMaps(r)
			r.proposed = true
			s.startAgreement(r)
			s.checkAgreement(r)
		} else if r.agreed && !r.executed {
			s.executeLeader(r, true)
		}
		return
	}
	// Detective mode (or single shard / epsilon mode).
	if !r.executed {
		s.recordMaps(r)
		// Single-shard transactions need no inter-leader agreement, the ε-bound
		// mode replaces agreement with the extended hold (§6), and a Case-3
		// re-execution may find agreement already complete.
		if !r.multiShard() || s.cfg.EpsilonBound > 0 || r.agreed {
			s.executeLeader(r, true)
			return
		}
		s.executeLeader(r, false)
		s.startAgreement(r)
		s.checkAgreement(r)
		return
	}
	if r.agreed {
		s.releaseAgreed(r)
	}
}

// recordMaps raises the conflict timestamps of r's access sets to its current
// timestamp.
func (s *Server) recordMaps(r *rec) {
	r.mapped = true
	s.keys.note(r, r.ts)
}

// executeLeader executes r at its timestamp and fast-replies. With release it
// also releases r, and the reply names the log position r takes; otherwise r
// waits for agreement and the reply names none.
func (s *Server) executeLeader(r *rec, release bool) {
	r.relS = s.cluster.Net.Sim().Now()
	s.node.Work(s.cfg.ExecCost)
	r.result = s.st.ExecuteID(r.id, r.ts, r.piece)
	r.executed = true
	s.Executions++
	s.relHash.Add(r.id, r.ts)
	r.replyHash = s.relHash.Sum()
	if !release {
		s.leaderReply(r, -1, true)
		return
	}
	s.leaderReply(r, s.log.Len(), true)
	s.releaseLeader(r)
}

// releaseAgreed releases r, executed before its agreement finished. Its reply
// went out without a log position, so a leader batching slow replies re-sends
// it with the position r has now (Appendix E).
func (s *Server) releaseAgreed(r *rec) {
	s.releaseLeader(r)
	if s.cfg.BatchSlowReplies {
		s.leaderReply(r, s.log.Len()-1, false)
	}
}

// releaseLeader appends r to the log, synchronizes followers, and removes it
// from the queue (Alg. 1 lines 24–25).
func (s *Server) releaseLeader(r *rec) {
	s.recordMaps(r) // timestamps may have grown during agreement
	s.erase(r)
	s.node.Work(s.cfg.PQCost)
	r.released = true
	r.pos = s.log.Append(logEntry{ID: r.id, TS: r.ts, T: r.t})
	s.syncPoint = s.log.Len()
	for rep := 0; rep < s.cfg.Replicas(); rep++ {
		if rep != s.replica {
			s.sendLogSync(rep, int(r.pos))
		}
	}
	if s.cfg.LocalReads {
		// The released entry may have been the queue head holding the
		// watermark down; reads blocked on it can be served now.
		s.advanceSafeTime()
	}
}

// releaseFollower appends to the optimistic tail and fast-replies (§3.3).
func (s *Server) releaseFollower(r *rec) {
	r.relS = s.cluster.Net.Sim().Now()
	s.erase(r)
	s.node.Work(s.cfg.PQCost)
	r.released = true
	r.tail = true
	s.tails++
	s.relHash.Add(r.id, r.ts)
	r.replyHash = s.relHash.Sum()
	s.node.Send(r.coord, s.reply(r, true))
}
