package tiga

import (
	"slices"
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
// per transaction for the whole run, so its size class is live heap
// (TestRecStaysInItsSizeClass): what only some records need for some of the
// time — §3.5 agreement state — lives behind ag.
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

	// (The field order packs the struct into its 192 bytes: the hash and nr
	// share three words with the flags.)
	replyHash hashlog.Hash
	nr        uint32

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

// agreement is the §3.5 timestamp-agreement state of one multi-shard
// transaction on a leader. It exists from the first round-1 timestamp the
// leader learns — its own, or another leader's notification, which may arrive
// before the transaction's body (the record is then a placeholder) — until
// agreement finishes; records that never agree, or have agreed, carry none.
// Live objects sit in Server.agreements, which is what resendAgreements walks.
type agreement struct {
	r     *rec
	round int
	// round1/round2 hold, per shard, the timestamp that shard's leader
	// announced in that round.
	round1, round2 tsSet
	slot           int // index in Server.agreements
}

// shardTS is one shard leader's announced timestamp in an agreement round.
type shardTS struct {
	shard int
	ts    txn.Timestamp
}

// tsSet is a small shard -> timestamp map backed by an inline array: the
// agreement state of a transaction spans its involved shards (2–4 in every
// workload here), so a linear scan beats hashing and — crucially for the
// per-transaction allocation budget — the zero value is ready to use and
// single-shard transactions and followers never populate it at all, where
// the map form cost two eager allocations per rec on every replica. Entries
// alias the inline buffer, so an agreement must not be copied once populated
// (agreements travel by pointer only).
type tsSet struct {
	items []shardTS
	buf   [4]shardTS
}

func (s *tsSet) set(shard int, ts txn.Timestamp) {
	for i := range s.items {
		if s.items[i].shard == shard {
			s.items[i].ts = ts
			return
		}
	}
	if s.items == nil {
		s.items = s.buf[:0]
	}
	s.items = append(s.items, shardTS{shard: shard, ts: ts})
}

// get returns the zero timestamp for an absent shard, like a map lookup.
func (s *tsSet) get(shard int) txn.Timestamp {
	for i := range s.items {
		if s.items[i].shard == shard {
			return s.items[i].ts
		}
	}
	return txn.Timestamp{}
}

func (s *tsSet) len() int { return len(s.items) }

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

	gview  int
	lview  int
	gvec   []int
	gmode  Mode
	status status
	lnv    int // last-normal-view

	st *store.Store
	pq prioQueue
	// recs finds a transaction's record; the records themselves come from
	// recSlab a chunk at a time (newRec) and stay until installLog starts over.
	recs    map[txn.ID]*rec
	recSlab pool.Slab[rec]
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

	// log is the leader's log, a follower's synced prefix. A follower's
	// optimistic tail (§3.3) is the records flagged rec.tail; tails counts them.
	log     []logEntry
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
	// onConflict is a test hook called with every update of the conflict table
	// and every answer it gives (nil outside tests): the differential oracle
	// feeds a copy of the map-based sets from it and compares the answers.
	onConflict func(conflictEvent)

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
		gvec:  make([]int, c.Cfg.Shards),
		gmode: c.initialMode,
		st:    st,
		recs:  make(map[txn.ID]*rec),

		pendingSync: make(map[int]logSyncMsg),
		followerSP:  make(map[int]int),
	}
	s.reads = snapread.Replica{
		Node: node, Sim: c.Net.Sim(), Store: s.st,
		Shard: shard, Self: replica, Replicas: c.Cfg.Replicas(),
		ExecCost: c.Cfg.ExecCost, Staleness: c.Cfg.ReadStaleness, Msgs: c.msgs.reads,
	}
	copy(s.gvec, c.initialGVec)
	s.lview = s.gvec[shard]
	s.pumpFire = func() { s.pumpAt = 0; s.pump() }
	s.flushFire = func() { s.flushAt = 0; s.advanceSafeTime() }
	node.SetHandler(s.handle)
	return s
}

// Store exposes the shard store (tests, workload seeding).
func (s *Server) Store() *store.Store { return s.st }

// Log returns a copy of the server's log entries (tests).
func (s *Server) Log() []logEntry { return append([]logEntry(nil), s.log...) }

// LogIDs returns the ids of synced log entries in order (tests).
func (s *Server) LogIDs() []txn.ID {
	out := make([]txn.ID, len(s.log))
	for i, e := range s.log {
		out[i] = e.ID
	}
	return out
}

// SyncPoint returns the current sync-point (tests).
func (s *Server) SyncPoint() int { return s.syncPoint }

// IsLeader reports whether this server leads its shard in its current view.
func (s *Server) IsLeader() bool { return s.lview%(s.cfg.Replicas()) == s.replica }

// Node returns the underlying simnet node.
func (s *Server) Node() *simnet.Node { return s.node }

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
			s.node.Send(s.leaderNode(), m)
		}
		if s.cfg.LocalReads && s.status == statusNormal && s.IsLeader() {
			s.broadcastSafeTime()
		}
		return true
	})
	s.node.Every(s.cfg.HeartbeatEvery, func() bool {
		s.node.Send(s.cluster.vmLeaderNode(), heartbeatMsg{Shard: s.shard, Replica: s.replica})
		return true
	})
	// Re-broadcast stalled agreements (lost notifications) and re-send
	// view-change messages if a view change stalls (lost start-view).
	s.node.Every(s.cfg.RetryTimeout/2, func() bool {
		s.resendAgreements()
		if s.status == statusViewChange && !s.IsLeader() {
			s.node.Send(s.leaderNode(), viewChangeMsg{
				GView: s.gview, GVec: append([]int(nil), s.gvec...), GMode: s.gmode,
				LView: s.lview, Shard: s.shard, Replica: s.replica,
				LNV: s.lnv, SyncPoint: s.syncPoint, Log: s.flushLog(),
			})
		}
		return true
	})
}

func (s *Server) views() viewInfo { return viewInfo{GView: s.gview, LView: s.lview} }

func (s *Server) leaderNode() simnet.NodeID {
	return s.cluster.serverNode(s.shard, s.lview%s.cfg.Replicas())
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
// once, to their conflict-table entries: to KeyIDs of this server's store first
// (store.IDs: a name and an id of the same key always meet in one entry), then
// through the table's index. The ids are the current store's: installLog
// rebuilds the table and every record when it replaces the store.
func (s *Server) attach(r *rec, p *txn.Piece) {
	reads, writes := s.st.IDs(p.ReadSet, p.ReadIDs), s.st.IDs(p.WriteSet, p.WriteIDs)
	r.piece, r.refs, r.nr = p, s.keys.refs(len(reads)+len(writes)), uint32(len(reads))
	for i, k := range reads {
		r.refs[i] = s.keys.entry(k)
	}
	for i, k := range writes {
		r.refs[len(reads)+i] = s.keys.entry(k)
	}
}

// conflictOp names what the conflict table was told or asked.
type conflictOp uint8

const (
	opNote          conflictOp = iota // the keys' timestamps rise to ts
	opPark                            // the keys' parked counts go up
	opUnpark                          // and down
	opBlock                           // the keys join this pump's blocked sets
	opEndPump                         // which are emptied
	opConflictOK                      // conflictOK at ts answered ok
	opMinAcceptable                   // minAcceptable answered min
	opBlockedBy                       // blockedBy answered ok
)

// conflictEvent is one update of, or answer from, the conflict table
// (Server.onConflict). piece carries the access sets concerned; it is nil for
// opEndPump.
type conflictEvent struct {
	op    conflictOp
	piece *txn.Piece
	ts    txn.Timestamp
	ok    bool
	min   time.Duration
}

// observe hands ev to the test hook, if one is armed.
func (s *Server) observe(ev conflictEvent) {
	if s.onConflict != nil {
		s.onConflict(ev)
	}
}

// conflictOK reports whether ts is larger than every released conflicting
// transaction's timestamp on r's read/write sets (Alg. 1 line 2).
func (s *Server) conflictOK(r *rec, ts txn.Timestamp) bool {
	ok := s.keys.passes(r, ts)
	s.observe(conflictEvent{op: opConflictOK, piece: r.piece, ts: ts, ok: ok})
	return ok
}

// minAcceptable returns the smallest timestamp time that passes conflict
// detection for r (used for leader timestamp updates).
func (s *Server) minAcceptable(r *rec) time.Duration {
	t := s.keys.minAcceptable(r)
	s.observe(conflictEvent{op: opMinAcceptable, piece: r.piece, min: t})
	return t
}

// noteAccess raises the read/write timestamps of r's keys to ts (Alg. 1 lines
// 14–15).
func (s *Server) noteAccess(r *rec, ts txn.Timestamp) {
	s.keys.note(r, ts)
	s.observe(conflictEvent{op: opNote, piece: r.piece, ts: ts})
}

func (s *Server) onTxn(from simnet.NodeID, m *txnMsg) {
	if s.status != statusNormal || m.GView != s.gview {
		return
	}
	if r, ok := s.recs[m.ID()]; ok {
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
			if r.executed {
				s.st.Revoke(r.id)
				s.relHash.Remove(r.id, r.ts)
				r.executed = false
				r.result = nil
				s.Rollbacks++
			}
			if r.inPQ {
				s.reposition(r, m.TS)
			} else {
				r.ts = m.TS
				if r.held && s.conflictOK(r, r.ts) {
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
	r := s.newRec(m.ID())
	r.t, r.ts, r.coord = m.T, m.TS, m.Coord
	r.owd = s.now() - m.SendClock
	r.arriveS = s.cluster.Net.Sim().Now()
	s.attach(r, m.T.Piece(s.shard))
	s.admit(r)
}

// newRec starts the record of a transaction the server has not heard of: the
// next entry of the record slab, zero but for the id, and entered in recs. A
// record is never handed back — the server remembers every transaction until
// installLog drops records, map and slab together — so records cost one
// allocation per chunk.
func (s *Server) newRec(id txn.ID) *rec {
	r := s.recSlab.At(s.recSlab.Add())
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
	if s.conflictOK(r, r.ts) {
		s.pq.insert(r)
	} else if s.IsLeader() {
		// Leader updates the timestamp to its local clock (line 4), pushed
		// past any released conflicting transaction.
		t := s.now()
		if min := s.minAcceptable(r); min > t {
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

func (s *Server) resendReply(r *rec) {
	if !r.released && !r.executed {
		return
	}
	if s.IsLeader() {
		// Resend the reply as originally issued (hash at release time).
		m := s.cluster.msgs.fastRep.Get()
		*m = fastReply{
			viewInfo: s.views(), Shard: s.shard, Replica: s.replica,
			ID: r.id, TS: r.ts, Hash: r.replyHash, Ret: r.result,
			IsLeader: true, LogPos: len(s.log),
		}
		s.node.Send(r.coord, m)
	} else if r.released {
		// Synced already? Then the slow reply is what the coordinator needs.
		if !r.tail {
			m := s.cluster.msgs.slowRep.Get()
			*m = slowReply{viewInfo: s.views(), Shard: s.shard, Replica: s.replica, ID: r.id, TS: r.ts}
			s.node.Send(r.coord, m)
		} else {
			m := s.cluster.msgs.fastRep.Get()
			*m = fastReply{
				viewInfo: s.views(), Shard: s.shard, Replica: s.replica,
				ID: r.id, TS: r.ts, Hash: r.replyHash,
			}
			s.node.Send(r.coord, m)
		}
	}
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
		blocked := s.blockedBy(r)
		if s.onScan != nil {
			s.onScan(i, blocked)
		}
		if blocked {
			// Blocked behind an earlier conflicting transaction: it stays,
			// and its own keys block later conflicting transactions too.
			s.addBlocked(r)
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
				s.park(r)
			} else {
				s.addBlocked(r)
				dirty = true
			}
			i++
		}
		// If process released or repositioned r, re-examine index i.
	}
	if dirty {
		s.keys.endPump()
		s.observe(conflictEvent{op: opEndPump})
	}
	if i < len(s.pq.items) {
		s.schedulePump(s.pq.items[i].ts.Time)
	}
}

// blockedBy reports whether an earlier pending record conflicts with r: a
// parked one (the keys' parked counts) or one this scan found blocked (their
// blocked bits). Consulting the parked counts without regard to queue position
// is sound because no record ever sits before a conflicting parked one: nothing
// before it conflicted when it was processed (it would have been blocked), it
// is parked only while the table records its current timestamp (rec.mapped),
// which pushes every later conflicting admission past it, and repositioning
// only moves records later — unparking them, and leaving them unmapped until
// recordMaps runs again (a preventive-mode record repositioned after proposing
// is never re-parked: its timestamps stay at the proposal until release).
func (s *Server) blockedBy(r *rec) bool {
	blocked := s.keys.blockedBy(r)
	s.observe(conflictEvent{op: opBlockedBy, piece: r.piece, ok: blocked})
	return blocked
}

func (s *Server) addBlocked(r *rec) {
	s.keys.block(r)
	s.observe(conflictEvent{op: opBlock, piece: r.piece})
}

// park marks a pq record as waiting for agreement only and counts it on its
// keys.
func (s *Server) park(r *rec) {
	r.parked = true
	s.keys.park(r, 1)
	s.observe(conflictEvent{op: opPark, piece: r.piece})
}

// unpark undoes park; every transition that makes a parked record runnable
// again or takes it out of the queue calls it (agreement, release, erase,
// reposition). A no-op for records that are not parked.
func (s *Server) unpark(r *rec) {
	if !r.parked {
		return
	}
	r.parked = false
	s.keys.park(r, -1)
	s.observe(conflictEvent{op: opUnpark, piece: r.piece})
}

// erase removes r from the queue (and from the parked counts).
func (s *Server) erase(r *rec) {
	s.unpark(r)
	s.pq.erase(r)
}

// reposition moves a pending record to a larger timestamp (Case-3, retry). It
// may now sit after conflicting unparked records and the conflict table no
// longer covers its timestamp, so it is no longer parked and cannot be until it
// is re-mapped.
func (s *Server) reposition(r *rec, ts txn.Timestamp) {
	s.unpark(r)
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
	preventive := s.gmode == ModePreventive && r.multiShard() && s.cfg.EpsilonBound == 0
	if preventive {
		if !r.proposed {
			s.recordMaps(r)
			r.proposed = true
			a := s.agree(r)
			a.round = 1
			a.round1.set(s.shard, r.ts)
			s.broadcastNotification(r, 1, r.ts)
			s.checkAgreement(r)
		} else if r.agreed && !r.executed {
			s.executeLeader(r)
			s.releaseLeader(r)
		}
		return
	}
	// Detective mode (or single shard / epsilon mode).
	if !r.executed {
		s.recordMaps(r)
		s.executeLeader(r)
		if !r.multiShard() || s.cfg.EpsilonBound > 0 {
			// Single-shard transactions need no inter-leader agreement; the
			// ε-bound mode replaces agreement with the extended hold (§6).
			s.releaseLeader(r)
			return
		}
		if r.agreed {
			// Case-3 re-execution with agreement already complete.
			s.releaseLeader(r)
			return
		}
		if a := s.agree(r); a.round == 0 {
			a.round = 1
			a.round1.set(s.shard, r.ts)
			s.broadcastNotification(r, 1, r.ts)
		}
		s.checkAgreement(r)
		return
	}
	if r.agreed {
		s.releaseLeader(r)
	}
}

// recordMaps raises the conflict timestamps of r's access sets to its current
// timestamp.
func (s *Server) recordMaps(r *rec) {
	r.mapped = true
	s.noteAccess(r, r.ts)
}

func (s *Server) executeLeader(r *rec) {
	r.relS = s.cluster.Net.Sim().Now()
	s.node.Work(s.cfg.ExecCost)
	r.result = s.st.ExecuteID(r.id, r.ts, r.piece)
	r.executed = true
	s.Executions++
	s.relHash.Add(r.id, r.ts)
	s.sendFastReply(r)
}

func (s *Server) sendFastReply(r *rec) {
	r.replyHash = s.relHash.Sum()
	m := s.cluster.msgs.fastRep.Get()
	*m = fastReply{
		viewInfo: s.views(), Shard: s.shard, Replica: s.replica,
		ID: r.id, TS: r.ts, Hash: r.replyHash, Ret: r.result,
		IsLeader: true, LogPos: len(s.log), OWD: r.owd,
		ArriveS: r.arriveS, EligS: r.eligS, RelS: r.relS, DoneS: s.node.Busy(),
	}
	s.node.Send(r.coord, m)
}

// releaseLeader appends r to the log, synchronizes followers, and removes it
// from the queue (Alg. 1 lines 24–25).
func (s *Server) releaseLeader(r *rec) {
	s.recordMaps(r) // timestamps may have grown during agreement
	s.erase(r)
	s.node.Work(s.cfg.PQCost)
	r.released = true
	e := logEntry{ID: r.id, TS: r.ts, T: r.t}
	s.log = append(s.log, e)
	s.syncPoint = len(s.log)
	pos := len(s.log) - 1
	for rep := 0; rep < s.cfg.Replicas(); rep++ {
		if rep == s.replica {
			continue
		}
		m := s.cluster.msgs.logSync.Get()
		*m = logSyncMsg{
			viewInfo: s.views(), Shard: s.shard,
			Pos: pos, ID: e.ID, TS: e.TS, T: e.T, CommitPoint: s.commitPoint,
		}
		s.node.Send(s.cluster.serverNode(s.shard, rep), m)
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
	m := s.cluster.msgs.fastRep.Get()
	*m = fastReply{
		viewInfo: s.views(), Shard: s.shard, Replica: s.replica,
		ID: r.id, TS: r.ts, Hash: r.replyHash, OWD: r.owd,
		ArriveS: r.arriveS, EligS: r.eligS, RelS: r.relS, DoneS: s.node.Busy(),
	}
	s.node.Send(r.coord, m)
}

// ---- §3.5 timestamp agreement ----

// agree returns r's agreement state, starting it if r has none.
func (s *Server) agree(r *rec) *agreement {
	if r.ag == nil {
		a := s.cluster.agreements.Get()
		*a = agreement{r: r, slot: len(s.agreements)}
		s.agreements = append(s.agreements, a)
		r.ag = a
	}
	return r.ag
}

// agreedOn marks r's agreement finished and recycles its state: nothing reads
// the rounds of an agreed record.
func (s *Server) agreedOn(r *rec) {
	r.agreed = true
	a, last := r.ag, len(s.agreements)-1
	s.agreements[a.slot] = s.agreements[last]
	s.agreements[a.slot].slot = a.slot
	s.agreements[last] = nil
	s.agreements = s.agreements[:last]
	r.ag = nil
	s.recycle(a)
}

// recycle hands a back to the cluster's pool. It lets go of the record first:
// a pooled agreement still pointing into a record slab would keep a whole chunk
// of it alive after installLog has dropped the slab.
func (s *Server) recycle(a *agreement) {
	a.r = nil
	s.cluster.agreements.Put(a)
}

func (s *Server) broadcastNotification(r *rec, round int, ts txn.Timestamp) {
	for i := range r.t.Pieces {
		sh := r.t.Pieces[i].Shard()
		if sh == s.shard {
			continue
		}
		lead := s.gvec[sh] % s.cfg.Replicas()
		m := s.cluster.msgs.tsNote.Get()
		*m = tsNotification{
			viewInfo: s.views(), Shard: s.shard, ID: r.id, TS: ts, Round: round,
		}
		s.node.Send(s.cluster.serverNode(sh, lead), m)
	}
}

func (s *Server) onTsNotification(from simnet.NodeID, m *tsNotification) {
	if s.status != statusNormal || m.GView != s.gview || !s.IsLeader() {
		return
	}
	if m.LView != s.gvec[m.Shard] {
		return // not from the current leader of that shard
	}
	r := s.recs[m.ID]
	if r == nil {
		// Notification before the coordinator's multicast arrived (or the
		// coordinator failed mid-multicast, Appendix B): remember the
		// timestamps and fetch the body if it never shows up.
		r = s.newRec(m.ID)
		s.scheduleFetch(r, from)
	}
	if r.agreed || r.released {
		// A late notification: agreement is over (a released record that never
		// agreed was installed from a recovered log), so it changes nothing.
		return
	}
	switch m.Round {
	case 1:
		s.agree(r).round1.set(m.Shard, m.TS)
	case 2:
		s.agree(r).round2.set(m.Shard, m.TS)
	}
	s.checkAgreement(r)
}

// checkAgreement evaluates Cases 1–3 of §3.5 once all round-1 timestamps are
// known.
func (s *Server) checkAgreement(r *rec) {
	if r.t == nil || r.agreed {
		return
	}
	if s.gmode == ModePreventive {
		if !r.proposed {
			return
		}
	} else if !r.executed {
		return
	}
	nShards := len(r.t.Pieces)
	a := r.ag
	if a == nil || a.round1.len() < nShards {
		return
	}
	agreed := a.round1.get(s.shard)
	mismatch := false
	for _, e := range a.round1.items {
		if agreed.Less(e.ts) {
			agreed = e.ts
		}
	}
	for _, e := range a.round1.items {
		if !e.ts.Equal(agreed) {
			mismatch = true
			break
		}
	}
	if !mismatch {
		// Case-1: all timestamps match — agreement completes in 0.5 WRTT.
		s.agreedOn(r)
		s.finishAgreement(r)
		return
	}
	if a.round < 2 {
		a.round = 2
		a.round2.set(s.shard, agreed)
		s.broadcastNotification(r, 2, agreed)
		if r.ts.Less(agreed) {
			// Case-3: our optimistic execution (if any) used a stale
			// timestamp — revoke and reposition (§3.5).
			if r.executed {
				s.st.Revoke(r.id)
				s.relHash.Remove(r.id, r.ts)
				r.executed = false
				r.result = nil
				s.Rollbacks++
			}
			s.reposition(r, agreed)
			s.schedulePump(agreed.Time)
		}
		// Case-2 (r.ts == agreed): execution stays valid but we must not
		// release until round 2 confirms every leader adopted the timestamp
		// — otherwise timestamp inversion (§3.6, Fig 5).
	}
	if a.round2.len() >= nShards {
		s.agreedOn(r)
		s.finishAgreement(r)
	}
}

// finishAgreement releases the transaction if it is already (re-)executed;
// otherwise pump will execute and release it when it reaches the head again.
func (s *Server) finishAgreement(r *rec) {
	s.unpark(r)
	if r.executed && !r.released {
		s.releaseLeader(r)
	}
	// Unblock conflicting successors (and, in the preventive mode or
	// Case-3, execute r itself once it is expired and unblocked).
	s.pump()
	if !r.executed {
		s.schedulePump(r.ts.Time)
	}
}

// resendAgreements re-broadcasts notifications for stalled agreements
// (message loss tolerance).
func (s *Server) resendAgreements() {
	if s.status != statusNormal || !s.IsLeader() {
		return
	}
	// Broadcast in a deterministic ID order — rebroadcast sends feed the
	// simulation's event order. Only unfinished agreements have state to walk.
	slices.SortFunc(s.agreements, func(a, b *agreement) int { return compareIDs(a.r.id, b.r.id) })
	for i, a := range s.agreements {
		a.slot = i
	}
	for _, a := range s.agreements {
		r := a.r
		if r.t == nil {
			continue // a placeholder: notified of, body not here yet
		}
		switch a.round {
		case 1:
			s.broadcastNotification(r, 1, a.round1.get(s.shard))
		case 2:
			s.broadcastNotification(r, 2, a.round2.get(s.shard))
		}
	}
}

// ---- Appendix B: coordinator failure / missing transaction bodies ----

func (s *Server) scheduleFetch(r *rec, from simnet.NodeID) {
	if r.fetching {
		return
	}
	r.fetching = true
	var again func()
	again = func() {
		// A record installLog replaced is nobody's placeholder any more: going
		// on would re-send for the rest of the run and pin the abandoned slab.
		if r.t != nil || s.status != statusNormal || s.recs[r.id] != r {
			return
		}
		s.node.Send(from, fetchTxnReq{Shard: s.shard, ID: r.id})
		// Keep retrying: the fetch or its reply may be lost.
		s.node.After(s.cfg.RetryTimeout/2, again)
	}
	s.node.After(s.cfg.RetryTimeout/4, again)
}

func (s *Server) onFetchTxn(from simnet.NodeID, m fetchTxnReq) {
	r := s.recs[m.ID]
	if r == nil || r.t == nil {
		return
	}
	s.node.Send(from, fetchTxnRep{ID: m.ID, T: r.t, TS: r.ts})
}

func (s *Server) onFetchTxnRep(m fetchTxnRep) {
	r := s.recs[m.ID]
	if r == nil || r.t != nil || s.status != statusNormal {
		return
	}
	r.t = m.T
	s.attach(r, m.T.Piece(s.shard))
	r.ts = m.TS
	r.coord = s.cluster.coordNode(m.ID.Coord)
	s.admit(r)
	s.checkAgreement(r)
}

// ---- §3.7 log synchronization and slow path ----

func (s *Server) onLogSync(m *logSyncMsg) {
	if s.status != statusNormal || m.GView != s.gview || m.LView != s.lview || s.IsLeader() {
		return
	}
	if m.Pos < s.syncPoint {
		s.advanceCommitPoint(m.CommitPoint)
		return // duplicate
	}
	if m.Pos > s.syncPoint {
		s.pendingSync[m.Pos] = *m // copy: the message is recycled after return
	} else {
		s.applySync(m)
		for len(s.pendingSync) > 0 {
			next, ok := s.pendingSync[s.syncPoint]
			if !ok {
				break
			}
			delete(s.pendingSync, s.syncPoint)
			s.applySync(&next)
		}
	}
	s.advanceCommitPoint(m.CommitPoint)
}

// applySync reconciles one leader log entry into the follower's log (§3.7):
// update timestamps of entries both hold, adopt entries the follower lacks,
// and move optimistically released entries into the synced prefix.
func (s *Server) applySync(m *logSyncMsg) {
	r := s.recs[m.ID]
	switch {
	case r == nil:
		// First heard of through the log.
		r = s.newRec(m.ID)
		r.t = m.T
		s.relHash.Add(m.ID, m.TS)
	case r.tail:
		r.tail = false
		s.tails--
		if !r.ts.Equal(m.TS) {
			s.relHash.Remove(r.id, r.ts)
			s.relHash.Add(m.ID, m.TS)
		}
	case r.inPQ:
		s.erase(r)
		s.relHash.Add(m.ID, m.TS)
	case r.held:
		r.held = false
		s.relHash.Add(m.ID, m.TS)
	case !r.released:
		s.relHash.Add(m.ID, m.TS)
	}
	r.released = true
	r.ts = m.TS
	s.log = append(s.log, logEntry{ID: m.ID, TS: m.TS, T: m.T})
	s.syncPoint = len(s.log)
	// The conflict timestamps must also reflect synced entries: through the
	// record's keys, attached when the transaction arrived here (the usual
	// case) or now, for an entry first heard of through the log.
	if r.piece == nil {
		if p := m.T.Piece(s.shard); p != nil {
			s.attach(r, p)
		}
	}
	if r.piece != nil {
		s.noteAccess(r, m.TS)
	}
	if !s.cfg.BatchSlowReplies {
		coord := s.cluster.coordNode(m.ID.Coord)
		sr := s.cluster.msgs.slowRep.Get()
		*sr = slowReply{viewInfo: s.views(), Shard: s.shard, Replica: s.replica, ID: m.ID, TS: m.TS}
		s.node.Send(coord, sr)
	}
}

// advanceCommitPoint lets the follower execute committed entries and move
// its checkpoint position (§3.7, §4).
func (s *Server) advanceCommitPoint(cp int) {
	if cp > s.syncPoint {
		cp = s.syncPoint
	}
	if cp <= s.commitPoint {
		return
	}
	s.commitPoint = cp
	for s.applied < s.commitPoint {
		e := s.log[s.applied]
		if p := e.T.Piece(s.shard); p != nil && !s.st.Executed(e.ID) {
			s.node.Work(s.cfg.ExecCost)
			s.st.ExecuteID(e.ID, e.TS, p)
		}
		s.st.Commit(e.ID)
		s.applied++
	}
	s.maybeCheckpoint(s.applied)
	if s.cfg.LocalReads {
		s.reads.Applied(s.applied)
	}
}

// maybeCheckpoint moves the checkpoint to pos once CheckpointEvery more
// entries have committed (§4). The checkpoint's store image is a pure function
// of the shard seed and log[:pos], both of which the server retains, so only
// the position is recorded here — the committed prefix is immutable and is its
// own identity — and installLog materialises the image by replay if a recovery
// ever asks for it.
func (s *Server) maybeCheckpoint(pos int) {
	if s.cfg.CheckpointEvery > 0 && pos-s.checkpointPos >= s.cfg.CheckpointEvery {
		s.checkpointPos = pos
	}
}

// onSyncPoint is the leader's handler for follower sync-point reports: it
// advances the commit-point once f+1 servers (leader included) hold an entry,
// and retransmits log entries to followers that fell behind (lost log-sync
// messages would otherwise stall their contiguous prefixes forever).
func (s *Server) onSyncPoint(m *syncPointMsg) {
	if !s.IsLeader() || m.GView != s.gview || m.LView != s.lview {
		return
	}
	if m.SyncPoint < len(s.log) {
		end := m.SyncPoint + 32
		if end > len(s.log) {
			end = len(s.log)
		}
		dst := s.cluster.serverNode(s.shard, m.Replica)
		for pos := m.SyncPoint; pos < end; pos++ {
			e := s.log[pos]
			ls := s.cluster.msgs.logSync.Get()
			*ls = logSyncMsg{
				viewInfo: s.views(), Shard: s.shard,
				Pos: pos, ID: e.ID, TS: e.TS, T: e.T, CommitPoint: s.commitPoint,
			}
			s.node.Send(dst, ls)
		}
	}
	if m.SyncPoint > s.followerSP[m.Replica] {
		s.followerSP[m.Replica] = m.SyncPoint
	}
	s.reads.Report(m.Replica, m.W)
	sps := s.spScratch[:0]
	for _, sp := range s.followerSP {
		sps = append(sps, sp)
	}
	slices.Sort(sps)
	s.spScratch = sps
	if len(sps) < s.cfg.F {
		return
	}
	cp := sps[len(sps)-s.cfg.F] // f followers + the leader = f+1 servers
	if cp <= s.commitPoint {
		return
	}
	s.commitPoint = cp
	for i := s.applied; i < s.commitPoint; i++ {
		s.st.Commit(s.log[i].ID)
	}
	s.applied = s.commitPoint
	s.maybeCheckpoint(s.applied)
	if s.cfg.LocalReads {
		// The commit-point advance just made the released prefix durable —
		// the leader watermark (held below undurable entries) can move, and
		// reads blocked on it can be served without waiting for the next
		// broadcast tick.
		s.advanceSafeTime()
	}
}

// ---- Local snapshot reads (safe-time watermarks) ----

// advanceSafeTime recomputes the leader's watermark: one tick below its
// synchronized clock, capped below every pending (unreleased) transaction in
// the priority queue AND below every released entry the commit point has not
// yet passed. Safe because (a) versions become visible to reads only at the
// commit-point Commit, and the watermark trails the earliest timestamp still
// awaiting it, (b) everything unreleased sits in the queue, and (c) admission
// lifts any later arrival above the current watermark — so no transaction can
// ever commit at or below it. Holding the watermark at the commit point
// (rather than release) means a leader read never observes a prefix that a
// failover could roll back; the cost is commit-point lag (~1 OWD + sync-point
// cadence) on strong leader reads, measured in EXPERIMENTS.md. Monotonic by
// construction: the watermark only moves forward.
func (s *Server) advanceSafeTime() {
	if !s.IsLeader() || s.status != statusNormal {
		return
	}
	w := s.now() - 1
	if len(s.pq.items) > 0 {
		if m := s.pq.items[0].ts.Time - 1; m < w {
			w = m
		}
	}
	// The log is release-ordered, not timestamp-ordered, so scan the whole
	// undurable suffix (bounded by the replication lag) for its minimum.
	if s.commitPoint < len(s.log) {
		for _, e := range s.log[s.commitPoint:] {
			if m := e.TS.Time - 1; m < w {
				w = m
			}
		}
	}
	s.reads.Advance(w)
}

// broadcastSafeTime is the leader's periodic watermark publication, riding
// the sync-point tick. Tiga's log is release-ordered, not timestamp-ordered,
// so the watermark W is only valid for a log prefix: the pair (W, N=len(log))
// promises every transaction committing with timestamp <= W is among the
// first N entries (later releases get larger timestamps via admission).
func (s *Server) broadcastSafeTime() {
	s.advanceSafeTime()
	if s.cfg.VersionGC {
		s.reads.AdvanceGC()
	}
	for rep := 0; rep < s.cfg.Replicas(); rep++ {
		if rep == s.replica {
			continue
		}
		m := s.cluster.msgs.safeTime.Get()
		*m = safeTimeMsg{
			viewInfo: s.views(), Shard: s.shard,
			W: s.reads.Watermark(), N: len(s.log), CP: s.commitPoint, GC: s.reads.GCHorizon(),
		}
		s.node.Send(s.cluster.serverNode(s.shard, rep), m)
	}
}

// onSafeTime is the follower side: adopt the leader's watermark once the
// promised log prefix is applied locally. The piggybacked commit-point lets
// the follower apply entries without waiting for the next log-sync message,
// shortening watermark lag by roughly one sync interval.
func (s *Server) onSafeTime(m *safeTimeMsg) {
	if !s.cfg.LocalReads || s.status != statusNormal || s.IsLeader() ||
		m.GView != s.gview || m.LView != s.lview {
		return
	}
	s.advanceCommitPoint(m.CP)
	s.reads.Offer(snapread.Pair{W: m.W, N: m.N, GC: m.GC}, s.applied)
}

// onSnapRead serves a local snapshot read through the shared replica path.
// Reads arriving during a view change are dropped — the coordinator re-drives
// them — so a partitioned or recovering replica delays a read and never lies
// (the chaos experiment exercises this).
func (s *Server) onSnapRead(from simnet.NodeID, m *snapread.Req) {
	if !s.cfg.LocalReads || s.status != statusNormal {
		return
	}
	// Leaders answer at clock freshness rather than tick freshness. The
	// replica owns m once OnReq has it, so the snapshot is read first.
	at := m.At
	s.advanceSafeTime()
	if s.reads.OnReq(from, m) && s.IsLeader() {
		s.scheduleSafeFlush(at)
	}
}

// scheduleSafeFlush arms a timer for the moment the leader's clock passes at,
// so a read blocked only on clock progress (not on a queued transaction) is
// served without waiting for the next periodic tick. Followers don't need
// this: their watermark only moves on leader broadcasts, which flush.
func (s *Server) scheduleSafeFlush(at time.Duration) {
	simNow := s.cluster.Net.Sim().Now()
	when := s.clock.WhenReads(at+1, simNow)
	if s.flushAt != 0 && s.flushAt <= when {
		return // an earlier (or equal) flush is already armed
	}
	s.flushAt = when
	s.flushSeq++
	// Gated timer (see schedulePump): superseded arms no-op at fire time, and
	// flushFire is one persistent closure. If the queue head still pins the
	// watermark below at, the read keeps waiting; releaseLeader and the
	// periodic tick will flush it.
	s.node.AfterGate(when-simNow, &s.flushSeq, s.flushSeq, s.flushFire)
}

// SafeTime exposes the replica's current watermark (tests).
func (s *Server) SafeTime() time.Duration { return s.reads.Watermark() }

// StateSizes is how much a server holds of each kind of state, and how often
// its queue had to repair itself. What a drained server must have let go of —
// agreements, tail records, buffered log-syncs — the tests assert is zero.
type StateSizes struct {
	Records         int   // transactions ever heard of (since the last log install)
	ConflictEntries int   // keys those transactions touched
	Parked          int   // parked counts over all keys: (record, key) pairs waiting on agreement in the queue
	Agreements      int   // live §3.5 agreement objects
	TailRecords     int   // follower: released optimistically, not yet synced
	BufferedSyncs   int   // follower: log-sync messages waiting for a gap to fill
	LogLen          int   // log entries (leader), synced prefix (follower)
	EraseFallbacks  int64 // queue erases that found the order invariant broken
}

// StateSizes reports the server's state sizes (tests, gauges).
func (s *Server) StateSizes() StateSizes {
	return StateSizes{
		Records:         len(s.recs),
		ConflictEntries: s.keys.entries.Len(),
		Parked:          s.keys.parked,
		Agreements:      len(s.agreements),
		TailRecords:     s.tails,
		BufferedSyncs:   len(s.pendingSync),
		LogLen:          len(s.log),
		EraseFallbacks:  s.pq.fallbacks,
	}
}
