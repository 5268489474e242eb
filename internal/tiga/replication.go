package tiga

import (
	"slices"

	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// This file implements §3.7, log synchronization: the leader's log-sync
// messages and their retransmission to followers that report a lagging
// sync-point, the follower's reconciliation of its optimistic tail with the
// leader's log, the slow replies (batched into inquiry answers under Appendix
// E, Config.BatchSlowReplies), and the commit-point and checkpoint (§4) that
// follow the followers' sync-points.

// ---- §3.7 log synchronization and slow path ----

func (s *Server) onLogSync(m *logSyncMsg) {
	if s.status != statusNormal || m.GView != s.view.GView || m.LView != s.lview || s.IsLeader() {
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
	r.pos = s.log.Append(logEntry{ID: m.ID, TS: m.TS, T: m.T})
	s.syncPoint = s.log.Len()
	// The conflict timestamps must also reflect synced entries: through the
	// record's keys, attached when the transaction arrived here (the usual
	// case) or now, for an entry first heard of through the log.
	if r.piece == nil {
		if p := m.T.Piece(s.shard); p != nil {
			s.attach(r, p)
		}
	}
	if r.piece != nil {
		s.keys.note(r, m.TS)
	}
	if !s.cfg.BatchSlowReplies {
		s.slowReply(s.cluster.coordNode(m.ID.Coord), m.ID, m.TS)
	}
}

// slowReply tells coordinator coord that this follower has synced id at ts
// (§3.7).
func (s *Server) slowReply(coord simnet.NodeID, id txn.ID, ts txn.Timestamp) {
	m := s.cluster.msgs.slowRep.Get()
	*m = slowReply{viewInfo: s.views(), Shard: s.shard, Replica: s.replica, ID: id, TS: ts}
	s.node.Send(coord, m)
}

// advanceCommitPoint moves the commit-point to cp, at most the sync-point, and
// commits the entries it passes: a follower first executes those it released
// without executing, while a leader executed every entry of its log before
// releasing it. The checkpoint position follows (§3.7, §4).
func (s *Server) advanceCommitPoint(cp int) {
	cp = min(cp, s.syncPoint)
	if cp <= s.commitPoint {
		return
	}
	s.commitPoint = cp
	for ; s.applied < cp; s.applied++ {
		e := s.log.At(uint32(s.applied))
		if p := e.T.Piece(s.shard); p != nil && !s.st.Executed(e.ID) {
			s.node.Work(s.cfg.ExecCost)
			s.st.ExecuteID(e.ID, e.TS, p)
		}
		s.st.Commit(e.ID)
	}
	s.maybeCheckpoint(s.applied)
	if !s.cfg.LocalReads {
		return
	}
	if s.IsLeader() {
		// The released prefix just became durable: the leader watermark
		// (held below undurable entries) can move, and reads blocked on it
		// can be served without waiting for the next broadcast tick.
		s.advanceSafeTime()
	} else {
		s.reads.Applied(s.applied)
	}
}

// maybeCheckpoint moves the checkpoint to pos once CheckpointEvery more
// entries have committed (§4). The checkpoint's store image is a pure function
// of the shard seed and log[:pos], both of which the server retains, so only
// the position is recorded here — the committed prefix is immutable and is its
// own identity — and installLog materialises the image by replay if a recovery
// ever asks for it. The records of the entries below the checkpoint it
// replaces retire.
func (s *Server) maybeCheckpoint(pos int) {
	if s.cfg.CheckpointEvery > 0 && pos-s.checkpointPos >= s.cfg.CheckpointEvery {
		s.retire(s.checkpointPos)
		s.checkpointPos = pos
	}
}

// retire forgets the transactions of log[:end] that nobody will name again.
// end is the checkpoint being replaced, so a record outlives its commit by a
// whole checkpoint interval at least, and every entry below it is applied. A
// record retires once it is in the log below end (released, not a tail), its
// coordinator has finished the transaction (Appendix B's at-most-once duty
// ends there: no retry, no fetch, no duplicate will name it) and nothing of the
// server still points at it: it is not queued or held and carries no
// agreement. Retiring drops the store's execution mark and hands the entry,
// zeroed, to the free LIFO newRec draws on.
//
// retire walks the whole slab, so a record that cannot retire yet is looked at
// again at the next checkpoint and one slow coordinator holds back only its
// own records. It refills recs as it goes: the tombstones a Go map's deletions
// leave count against its load until the map grows, and clear keeps the
// buckets and drops them.
func (s *Server) retire(end int) {
	clear(s.recs)
	for i := 0; i < s.recSlab.Len(); i++ {
		r := s.recSlab.At(uint32(i))
		switch {
		case r.id == (txn.ID{}): // free
		case r.released && !r.tail && int(r.pos) < end && s.finished(r.id) && !r.inPQ && !r.held && r.ag == nil:
			s.st.Forget(r.id)
			*r = rec{}
			s.free = append(s.free, r)
			s.retired++
		default:
			s.recs[r.id] = r
		}
	}
}

// noteDone raises coordinator coord's done watermark to done.
func (s *Server) noteDone(coord int32, done uint64) {
	for int(coord) >= len(s.done) {
		s.done = append(s.done, 0)
	}
	s.done[coord] = max(s.done[coord], done)
}

// finished reports whether id's coordinator has said it finished id.
func (s *Server) finished(id txn.ID) bool {
	return int(id.Coord) < len(s.done) && id.Seq < s.done[id.Coord]
}

// late reports whether a message naming id, which has no record, names a
// retired transaction, and counts it if so. The message is then answered with
// nothing: a record would have ignored it or answered a coordinator that no
// longer waits for the answer.
func (s *Server) late(id txn.ID) bool {
	if !s.finished(id) {
		return false
	}
	s.lateRetired++
	return true
}

// onSyncPoint is the leader's handler for follower sync-point reports: it
// advances the commit-point once f+1 servers (leader included) hold an entry,
// and retransmits log entries to followers that fell behind (lost log-sync
// messages would otherwise stall their contiguous prefixes forever).
func (s *Server) onSyncPoint(m *syncPointMsg) {
	if !s.IsLeader() || m.GView != s.view.GView || m.LView != s.lview {
		return
	}
	for pos := m.SyncPoint; pos < min(m.SyncPoint+32, s.log.Len()); pos++ {
		s.sendLogSync(m.Replica, pos)
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
	if len(sps) >= s.cfg.F {
		s.advanceCommitPoint(sps[len(sps)-s.cfg.F]) // f followers + the leader = f+1 servers
	}
}

// sendLogSync sends the leader's log entry pos to replica rep (§3.7).
func (s *Server) sendLogSync(rep, pos int) {
	e := s.log.At(uint32(pos))
	m := s.cluster.msgs.logSync.Get()
	*m = logSyncMsg{
		viewInfo: s.views(), Shard: s.shard,
		Pos: pos, ID: e.ID, TS: e.TS, T: e.T, CommitPoint: s.commitPoint,
	}
	s.node.Send(s.cluster.serverNode(s.shard, rep), m)
}
