package tiga

import (
	"sort"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// This file implements the server side of failure recovery (§4, Appendix B):
// global view changes (Algorithm 5) and server rejoin (Algorithm 6).

// flushLog empties the priority queue and optimistic tail into a log snapshot
// ordered by timestamp, appended after the synced prefix (Algorithm 5 lines
// 7–9). It does not mutate the server's own log.
func (s *Server) flushLog() []logEntry {
	out := s.logCopy(s.tails + s.pq.len())
	var extra []logEntry
	if s.tails > 0 {
		// The tail is a flag on the records; timestamps are unique, so the
		// sort below leaves nothing of the map's order.
		for _, r := range s.recs {
			if r.tail {
				extra = append(extra, logEntry{ID: r.id, TS: r.ts, T: r.t})
			}
		}
	}
	for _, r := range s.pq.items {
		extra = append(extra, logEntry{ID: r.id, TS: r.ts, T: r.t})
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].TS.Less(extra[j].TS) })
	return append(out, extra...)
}

// logCopy returns a copy of the log, with room for extra entries after it:
// what a message carries must not read the server's slab.
func (s *Server) logCopy(extra int) []logEntry {
	n := s.log.Len()
	return s.log.AppendTo(make([]logEntry, 0, n+extra), 0, uint32(n))
}

func (s *Server) onViewChangeReq(m viewChangeReq) {
	if m.GView <= s.view.GView || s.status == statusRecovering {
		return
	}
	s.enterView(m.globalView)
	msg := s.viewChange()
	if s.IsLeader() {
		s.onViewChange(&msg)
	} else {
		s.node.Send(s.leaderOf(s.shard), msg)
	}
}

// viewChange is this server's view-change message (Algorithm 5): its view,
// its last normal view and sync-point, and its log with the queue and the
// optimistic tail flushed into it.
func (s *Server) viewChange() viewChangeMsg {
	return viewChangeMsg{
		globalView: s.view.copy(), LView: s.lview, Shard: s.shard, Replica: s.replica,
		LNV: s.lnv, SyncPoint: s.syncPoint, Log: s.flushLog(),
	}
}

// startView is the new leader's start-view message: its view and its log.
func (s *Server) startView() startViewMsg {
	return startViewMsg{globalView: s.view.copy(), LView: s.lview, Shard: s.shard, Log: s.logCopy(0)}
}

// adoptView takes v as the server's view and its own shard's local view.
func (s *Server) adoptView(v globalView) {
	s.view = v.copy()
	s.lview = s.view.GVec[s.shard]
}

// enterView switches to a newer global view and stops normal processing.
func (s *Server) enterView(v globalView) {
	s.adoptView(v)
	s.status = statusViewChange
	s.vQuorum = make(map[int]*viewChangeMsg)
	s.tQuorum = make(map[int]*tsVerification)
	s.rebuilt = false
}

func (s *Server) onViewChange(m *viewChangeMsg) {
	if m.GView < s.view.GView || s.status == statusRecovering {
		return
	}
	if m.GView > s.view.GView {
		// The VM's request raced behind a peer's view-change message
		// (Algorithm 5 line 22): adopt the view from the message.
		s.enterView(m.globalView)
		own := s.viewChange()
		s.vQuorum[s.replica] = &own
	}
	if s.status == statusNormal {
		// We already completed this view change; the sender missed the
		// start-view message — resend it.
		if s.IsLeader() && m.GView == s.view.GView {
			s.node.Send(s.cluster.serverNode(s.shard, m.Replica), s.startView())
		}
		return
	}
	if !s.IsLeader() {
		return // not the new leader
	}
	s.vQuorum[m.Replica] = m
	if len(s.vQuorum) >= s.cfg.F+1 && !s.rebuilt {
		s.rebuildLog()
		s.verifyTimestamps()
	}
}

// rebuildLog reconstructs the shard log from f+1 surviving servers
// (Algorithm 5, rebuild-log): part (a) copies the log prefix of the server
// with the freshest view and largest sync-point; part (b) keeps any remaining
// entry present on at least ⌈f/2⌉+1 participants, ordered by timestamp. The
// result is Server.recovered: the server's own log stays what it was until
// installLog has compared the two.
func (s *Server) rebuildLog() {
	s.rebuilt = true
	largestLNV := -1
	for _, m := range s.vQuorum {
		if m.LNV > largestLNV {
			largestLNV = m.LNV
		}
	}
	var best *viewChangeMsg
	for _, m := range s.vQuorum {
		if m.LNV == largestLNV && (best == nil || m.SyncPoint > best.SyncPoint) {
			best = m
		}
	}
	newLog := append([]logEntry(nil), best.Log[:min(best.SyncPoint, len(best.Log))]...)
	inLog := make(map[txn.ID]int, len(newLog))
	for i, e := range newLog {
		inLog[e.ID] = i
	}
	// Part (b): count candidates across all participants.
	count := make(map[txn.ID]int)
	bodies := make(map[txn.ID]logEntry)
	for _, m := range s.vQuorum {
		seen := make(map[txn.ID]bool)
		for _, e := range m.Log {
			if _, ok := inLog[e.ID]; ok || seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			count[e.ID]++
			if b, ok := bodies[e.ID]; !ok || b.TS.Less(e.TS) {
				bodies[e.ID] = e
			}
		}
	}
	need := (s.cfg.F+1)/2 + 1 // ⌈f/2⌉+1
	var partB []logEntry
	for id, c := range count {
		if c >= need {
			partB = append(partB, bodies[id])
		}
	}
	sort.Slice(partB, func(i, j int) bool { return partB[i].TS.Less(partB[j].TS) })
	s.recovered = append(newLog, partB...)
}

// verifyTimestamps starts the cross-shard timestamp verification (§4 step 4):
// new leaders exchange their recovered multi-shard entries, adopt entries
// recovered elsewhere that involve this shard, and take the maximum
// timestamp for entries recovered with inconsistent timestamps.
func (s *Server) verifyTimestamps() {
	if s.cfg.Shards == 1 {
		s.finishViewChange()
		return
	}
	var info []verifyEntry
	for _, e := range s.recovered {
		if len(e.T.Pieces) > 1 {
			info = append(info, verifyEntry{ID: e.ID, TS: e.TS, T: e.T})
		}
	}
	for sh := 0; sh < s.cfg.Shards; sh++ {
		if sh == s.shard {
			continue
		}
		s.node.Send(s.leaderOf(sh), tsVerification{GView: s.view.GView, Shard: s.shard, Info: info})
	}
	s.maybeFinishVerification()
}

func (s *Server) onTsVerification(m *tsVerification) {
	if m.GView < s.view.GView {
		return
	}
	// Verification from a view we have not entered yet is stashed; the
	// completeness check validates views at use time.
	s.tQuorum[m.Shard] = m
	s.maybeFinishVerification()
}

func (s *Server) maybeFinishVerification() {
	if s.status != statusViewChange || !s.rebuilt {
		return
	}
	got := 0
	for _, m := range s.tQuorum {
		if m.GView == s.view.GView {
			got++
		}
	}
	if got < s.cfg.Shards-1 {
		return
	}
	// Merge: adopt missing entries involving this shard; max timestamps.
	log := s.recovered
	pos := make(map[txn.ID]int, len(log))
	for i, e := range log {
		pos[e.ID] = i
	}
	for _, m := range s.tQuorum {
		if m.GView != s.view.GView {
			continue
		}
		for _, ve := range m.Info {
			if ve.T.Piece(s.shard) == nil {
				continue
			}
			if i, ok := pos[ve.ID]; ok {
				if log[i].TS.Less(ve.TS) {
					log[i].TS = ve.TS
				}
			} else {
				pos[ve.ID] = len(log)
				log = append(log, logEntry{ID: ve.ID, TS: ve.TS, T: ve.T})
			}
		}
	}
	sort.SliceStable(log, func(i, j int) bool { return log[i].TS.Less(log[j].TS) })
	s.recovered = log
	s.finishViewChange()
}

// finishViewChange installs the recovered log, replays the store, resumes
// normal processing, and broadcasts start-view to the shard's followers.
func (s *Server) finishViewChange() {
	s.resume(s.recovered)
	s.recovered = nil
	for rep := 0; rep < s.cfg.Replicas(); rep++ {
		if rep != s.replica {
			s.node.Send(s.cluster.serverNode(s.shard, rep), s.startView())
		}
	}
}

func (s *Server) onStartView(m startViewMsg) {
	if m.GView < s.view.GView || s.status == statusRecovering {
		return
	}
	if m.GView > s.view.GView {
		s.enterView(m.globalView)
	}
	if s.status != statusViewChange || m.LView != s.lview {
		return
	}
	s.resume(m.Log)
}

// resume installs log and returns the server to normal operation in its
// current local view, which is now its last normal one.
func (s *Server) resume(log []logEntry) {
	s.installLog(log)
	s.lnv = s.lview
	s.status = statusNormal
}

// installLog replaces the server's log and rebuilds all derived state: the
// store, conflict maps, incremental hash, and commit/sync points. The store is
// replayed from the shard seed; entries before a valid checkpoint materialise
// the checkpoint's image (§4) and cost no simulated time, exactly as if the
// image had been kept, so only the entries after it charge ExecCost.
func (s *Server) installLog(log []logEntry) {
	if !s.checkpointValid(log) {
		s.checkpointPos = 0
	}
	s.log = pool.Slab[logEntry]{}
	s.tails = 0
	s.pq = prioQueue{fallbacks: s.pq.fallbacks}
	s.pendingSync = make(map[int]logSyncMsg)
	s.followerSP = make(map[int]int)
	s.recs, s.recSlab = make(map[txn.ID]*rec), pool.Slab[rec]{}
	s.free, s.retired = nil, 0
	// The rebuilt store numbers inserted keys in replay order, so the conflict
	// table and every record's references into it start over with it, and the
	// agreements of the records dropped here end.
	s.keys.reset()
	for _, a := range s.agreements {
		s.recycle(a)
	}
	s.agreements = nil
	s.relHash.Reset()

	s.st = s.cluster.newStore(s.shard)
	s.reads.Store = s.st
	for i, e := range log {
		s.log.Append(e)
		var res []byte
		if p := e.T.Piece(s.shard); p != nil {
			if i >= s.checkpointPos {
				s.node.Work(s.cfg.ExecCost)
			}
			res = s.st.ExecuteID(e.ID, e.TS, p)
		}
		s.st.Commit(e.ID)
		s.relHash.Add(e.ID, e.TS)
		r := s.newRec(e.ID)
		r.t, r.ts, r.coord, r.result = e.T, e.TS, s.cluster.coordNode(e.ID.Coord), res
		r.executed, r.released, r.pos = true, true, uint32(i)
		if p := e.T.Piece(s.shard); p != nil {
			s.attach(r, p)
			s.keys.note(r, e.TS)
		}
	}
	s.syncPoint = len(log)
	s.commitPoint = len(log)
	s.applied = len(log)
}

// checkpointValid reports whether the incoming log's prefix matches the basis
// of the last checkpoint — the same transactions in the same positions as the
// log it was taken on, which is still the server's — so that replaying it
// rebuilds the checkpoint's image.
func (s *Server) checkpointValid(log []logEntry) bool {
	if s.checkpointPos > len(log) {
		return false
	}
	for i := 0; i < s.checkpointPos; i++ {
		if log[i].ID != s.log.At(uint32(i)).ID {
			return false
		}
	}
	return true
}

// ---- Rejoin (Algorithm 6) ----

// Rejoin restarts a crashed server as a recovering follower: it refetches the
// view from the view manager and state-transfers the log from its leader.
func (s *Server) Rejoin() {
	s.status = statusRecovering
	s.node.Send(s.cluster.vmLeaderNode(), vmInquire{From: s.node.ID()})
}

func (s *Server) onVMInfo(m vmInfo) {
	if s.status != statusRecovering {
		return
	}
	s.adoptView(m.globalView)
	if s.IsLeader() {
		// A recovering server cannot resume as leader; wait for the VM to
		// move leadership, then retry.
		s.node.After(heartbeatEvery, func() { s.Rejoin() })
		return
	}
	s.node.Send(s.leaderOf(s.shard), stateTransferReq{GView: s.view.GView, LView: s.lview, Shard: s.shard, Replica: s.replica})
}

func (s *Server) onStateTransferReq(from simnet.NodeID, m stateTransferReq) {
	if s.status != statusNormal || m.GView != s.view.GView || m.LView != s.lview || !s.IsLeader() {
		return
	}
	s.node.Send(from, stateTransferRep{GView: s.view.GView, LView: s.lview, Log: s.logCopy(0), SyncPoint: s.syncPoint})
}

func (s *Server) onStateTransferRep(m stateTransferRep) {
	if s.status != statusRecovering || m.GView != s.view.GView || m.LView != s.lview {
		return
	}
	s.resume(m.Log)
}

// ---- Appendix B: coordinator failure / missing transaction bodies ----

func (s *Server) scheduleFetch(r *rec, from simnet.NodeID) {
	if r.fetching {
		return
	}
	r.fetching = true
	id := r.id
	var again func()
	again = func() {
		// A record installLog replaced is nobody's placeholder any more: going
		// on would re-send for the rest of the run and pin the abandoned slab.
		// Nor is a retired one, whose entry newRec may have handed to another
		// transaction since: the chain asks for id, never for r.id.
		if r.t != nil || s.status != statusNormal || s.recs[id] != r {
			return
		}
		s.node.Send(from, fetchTxnReq{Shard: s.shard, ID: id})
		// Keep retrying: the fetch or its reply may be lost.
		s.node.After(s.cfg.RetryTimeout/2, again)
	}
	s.node.After(s.cfg.RetryTimeout/4, again)
}

func (s *Server) onFetchTxn(from simnet.NodeID, m fetchTxnReq) {
	r := s.recs[m.ID]
	if r == nil {
		s.late(m.ID)
		return
	}
	if r.t == nil {
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
