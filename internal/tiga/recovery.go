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
	out := make([]logEntry, 0, len(s.log)+s.tails+s.pq.len())
	out = append(out, s.log...)
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

func (s *Server) onViewChangeReq(m viewChangeReq) {
	if m.GView <= s.gview || s.status == statusRecovering {
		return
	}
	s.enterView(m.GView, m.GVec, m.GMode)
	lead := s.gvec[s.shard] % s.cfg.Replicas()
	msg := viewChangeMsg{
		GView: s.gview, GVec: append([]int(nil), s.gvec...), GMode: s.gmode,
		LView: s.lview, Shard: s.shard, Replica: s.replica,
		LNV: s.lnv, SyncPoint: s.syncPoint, Log: s.flushLog(),
	}
	if lead == s.replica {
		s.onViewChange(&msg)
	} else {
		s.node.Send(s.cluster.serverNode(s.shard, lead), msg)
	}
}

// enterView switches to a newer global view and stops normal processing.
func (s *Server) enterView(gview int, gvec []int, mode Mode) {
	s.gview = gview
	copy(s.gvec, gvec)
	s.gmode = mode
	s.lview = s.gvec[s.shard]
	s.status = statusViewChange
	s.vQuorum = make(map[int]*viewChangeMsg)
	s.tQuorum = make(map[int]*tsVerification)
	s.rebuilt = false
}

func (s *Server) onViewChange(m *viewChangeMsg) {
	if m.GView < s.gview || s.status == statusRecovering {
		return
	}
	if m.GView > s.gview {
		// The VM's request raced behind a peer's view-change message
		// (Algorithm 5 line 22): adopt the view from the message.
		s.enterView(m.GView, m.GVec, m.GMode)
		own := viewChangeMsg{
			GView: s.gview, GVec: append([]int(nil), s.gvec...), GMode: s.gmode,
			LView: s.lview, Shard: s.shard, Replica: s.replica,
			LNV: s.lnv, SyncPoint: s.syncPoint, Log: s.flushLog(),
		}
		s.vQuorum[s.replica] = &own
	}
	if s.status == statusNormal {
		// We already completed this view change; the sender missed the
		// start-view message — resend it.
		if s.IsLeader() && m.GView == s.gview {
			s.node.Send(s.cluster.serverNode(s.shard, m.Replica), startViewMsg{
				GView: s.gview, GVec: append([]int(nil), s.gvec...), GMode: s.gmode,
				LView: s.lview, Shard: s.shard, Log: s.log,
			})
		}
		return
	}
	if s.gvec[s.shard]%s.cfg.Replicas() != s.replica {
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
		lead := s.gvec[sh] % s.cfg.Replicas()
		s.node.Send(s.cluster.serverNode(sh, lead), tsVerification{GView: s.gview, Shard: s.shard, Info: info})
	}
	s.maybeFinishVerification()
}

func (s *Server) onTsVerification(m *tsVerification) {
	if m.GView < s.gview {
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
		if m.GView == s.gview {
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
		if m.GView != s.gview {
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

// finishViewChange installs the recovered log, replays the store, broadcasts
// start-view to the shard's followers, and resumes normal processing.
func (s *Server) finishViewChange() {
	s.installLog(s.recovered)
	s.recovered = nil
	for rep := 0; rep < s.cfg.Replicas(); rep++ {
		if rep == s.replica {
			continue
		}
		s.node.Send(s.cluster.serverNode(s.shard, rep), startViewMsg{
			GView: s.gview, GVec: append([]int(nil), s.gvec...), GMode: s.gmode,
			LView: s.lview, Shard: s.shard, Log: s.log,
		})
	}
	s.lnv = s.lview
	s.status = statusNormal
}

func (s *Server) onStartView(m startViewMsg) {
	if m.GView < s.gview || s.status == statusRecovering {
		return
	}
	if m.GView > s.gview {
		s.enterView(m.GView, m.GVec, m.GMode)
	}
	if s.status != statusViewChange || m.LView != s.lview {
		return
	}
	s.installLog(m.Log)
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
	s.log = append([]logEntry(nil), log...)
	s.tails = 0
	s.pq = prioQueue{fallbacks: s.pq.fallbacks}
	s.pendingSync = make(map[int]logSyncMsg)
	s.followerSP = make(map[int]int)
	s.recs, s.recSlab = make(map[txn.ID]*rec), pool.Slab[rec]{}
	// The rebuilt store numbers inserted keys in replay order, so the conflict
	// table and every record's references into it start over with it, and the
	// agreements of the records dropped here end.
	s.keys = conflictTable{}
	for _, a := range s.agreements {
		s.recycle(a)
	}
	s.agreements = nil
	s.relHash.Reset()

	s.st = s.cluster.newStore(s.shard)
	s.reads.Store = s.st
	for i := 0; i < len(s.log); i++ {
		e := s.log[i]
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
		r.executed, r.released = true, true
		if p := e.T.Piece(s.shard); p != nil {
			s.attach(r, p)
			s.noteAccess(r, e.TS)
		}
	}
	s.syncPoint = len(s.log)
	s.commitPoint = len(s.log)
	s.applied = len(s.log)
}

// checkpointValid reports whether the incoming log's prefix matches the basis
// of the last checkpoint — the same transactions in the same positions as the
// log it was taken on, which is still the server's — so that replaying it
// rebuilds the checkpoint's image.
func (s *Server) checkpointValid(log []logEntry) bool {
	if s.checkpointPos > len(log) {
		return false
	}
	for i, e := range s.log[:s.checkpointPos] {
		if log[i].ID != e.ID {
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
	s.gview = m.GView
	copy(s.gvec, m.GVec)
	s.gmode = m.GMode
	s.lview = s.gvec[s.shard]
	if s.IsLeader() {
		// A recovering server cannot resume as leader; wait for the VM to
		// move leadership, then retry.
		s.node.After(s.cfg.HeartbeatEvery, func() { s.Rejoin() })
		return
	}
	s.node.Send(s.leaderNode(), stateTransferReq{GView: s.gview, LView: s.lview, Shard: s.shard, Replica: s.replica})
}

func (s *Server) onStateTransferReq(from simnet.NodeID, m stateTransferReq) {
	if s.status != statusNormal || m.GView != s.gview || m.LView != s.lview || !s.IsLeader() {
		return
	}
	s.node.Send(from, stateTransferRep{GView: s.gview, LView: s.lview, Log: s.log, SyncPoint: s.syncPoint})
}

func (s *Server) onStateTransferRep(m stateTransferRep) {
	if s.status != statusRecovering || m.GView != s.gview || m.LView != s.lview {
		return
	}
	s.installLog(m.Log)
	s.lnv = s.lview
	s.status = statusNormal
}
