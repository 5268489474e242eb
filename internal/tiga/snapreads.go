package tiga

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/txn"
)

// Local snapshot reads (Config.LocalReads): read-only transactions skip the
// timestamp-agreement machinery entirely and ask the nearest replica of each
// touched shard for a consistent snapshot at one timestamp — 0 WRTT when the
// replicas are local, against the coordinator path's 1 WRTT floor. The read
// path itself is internal/snapread; what is Tiga's is the snapshot clock (the
// coordinator's synchronized clock), the re-drive interval (RetryTimeout) and
// the leader's watermark rule (advanceSafeTime below).

// SubmitLocalRead implements protocol.SnapshotReadable.
func (c *Cluster) SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result)) {
	co := c.Coords[coord]
	co.tab.Mint(t)
	co.reads.Submit(t, done)
}

// SafeTimes implements protocol.SnapshotReadable: every replica's current
// watermark in shard-major order.
func (c *Cluster) SafeTimes() []time.Duration {
	out := make([]time.Duration, 0, c.Cfg.Shards*c.Cfg.Replicas())
	for _, shard := range c.Servers {
		for _, s := range shard {
			out = append(out, s.reads.Watermark())
		}
	}
	return out
}

// LieSafeTime makes one replica advertise a watermark ahead of its real one —
// fault injection for the snapshot-read checker tests.
func (c *Cluster) LieSafeTime(shard, replica int, ahead time.Duration) {
	c.Servers[shard][replica].reads.Lie(ahead)
}

var _ protocol.SnapshotReadable = (*Cluster)(nil)

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
		m.GView != s.view.GView || m.LView != s.lview {
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
