package lockocc

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/txn"
)

// Local snapshot reads for the layered baselines (Spec.LocalReads).
//
// The watermark rule instantiated for 2PL/OCC over Multi-Paxos: commit
// timestamps are minted by the coordinator at the 2PC decision, so the shard
// leader's watermark is held one tick below the arrival time of its OLDEST
// in-flight transaction (prepTS): anything that ever commits here gets a
// timestamp later than its own arrival. That is the structural contrast with
// Tiga — a lock-based leader's watermark lags by the full prepare window
// (~1 WRTT under load, unboundedly under lock waits), where Tiga's leader
// watermark tracks its synchronized clock and lags only by queued headroom.
// Followers adopt the leader's watermark once they have applied the Paxos
// prefix it was published for, exactly as in Tiga.

// safeT is the leader's periodic watermark broadcast: W is valid once the
// first N Paxos slots are applied (every commit with timestamp <= W is in
// that prefix; everything later carries a larger timestamp by the prepTS
// argument above). GC piggybacks the leader's version-GC horizon (zero
// unless Spec.VersionGC): followers prune committed history to it when they
// adopt the watermark.
type safeT snapread.Pair

// safeTAck is a follower's watermark report back to the leader, sent only
// with Spec.VersionGC (so default local-read runs keep their exact message
// schedule). The leader's GC horizon is capped below the minimum acked
// watermark: a read waiting at a follower always has a snapshot timestamp
// above that follower's watermark, so pruning below it is invisible.
type safeTAck struct {
	Replica int
	W       time.Duration
}

// advanceSafeT recomputes the leader watermark: one tick below now, capped
// below every in-flight transaction's arrival time. Monotonic — prepTS
// entries only disappear forward in time, and now only grows.
func (s *server) advanceSafeT() {
	w := s.sys.spec.Net.Sim().Now() - 1
	for _, p := range s.pending {
		if p.prepTS-1 < w {
			w = p.prepTS - 1
		}
	}
	s.reads.Advance(w)
}

func (s *server) broadcastSafeT() {
	if s.pax.Rejoining() {
		return
	}
	// Leader-driven retransmission: follower watermark adoption is gated on
	// Paxos apply progress, so a follower cut off by a partition must be
	// caught up even when new proposals are scarce — reads queued on its
	// frozen watermark throttle the very write load that would otherwise
	// carry the retransmissions.
	s.pax.Tick()
	s.advanceSafeT()
	if s.sys.spec.VersionGC {
		s.reads.AdvanceGC()
	}
	m := safeT{W: s.reads.Watermark(), N: s.pax.Applied(), GC: s.reads.GCHorizon()}
	for r, id := range s.sys.nodes[s.shard] {
		if r != s.replica {
			s.node.Send(id, m)
		}
	}
}

// onSafeTAck records a follower's watermark at the leader (Spec.VersionGC).
func (s *server) onSafeTAck(m safeTAck) {
	if s.sys.spec.VersionGC && s.replica == 0 {
		s.reads.Report(m.Replica, m.W)
	}
}

// onSafeT is the follower side: adopt the leader's watermark once the
// promised Paxos prefix is applied locally (adoption of buffered pairs is
// driven from onPaxosCommit).
func (s *server) onSafeT(m safeT) {
	if !s.sys.spec.LocalReads || s.replica == 0 {
		return
	}
	s.reads.Offer(snapread.Pair(m), s.pax.Applied())
	if s.sys.spec.VersionGC {
		s.node.Send(s.sys.nodes[s.shard][0], safeTAck{Replica: s.replica, W: s.reads.Watermark()})
	}
}

// decisionQuery asks a coordinator for the outcome of a voted prepare whose
// decision never arrived: the abort path is fire-and-forget, so a partition
// can eat it, leaking the prepare's locks — and, worse for local reads,
// pinning the shard's safe-time watermark below the orphan's prepTS forever.
// A coordinator with no trace of the transaction answers presumed-abort.
// Commit decisions need no query: checkProgress already re-sends commit
// records until every shard confirms.
type decisionQuery struct{ ID txn.ID }

func (co *coordinator) onDecisionQuery(from simnet.NodeID, m decisionQuery) {
	if co.pending[m.ID] == nil {
		co.node.Send(from, abortReq{ID: m.ID})
	}
}

// armDecisionQuery starts the server-side orphan watch for a prepare that
// just voted OK. It trails the coordinator's own vote-timeout cycle by half
// a period so an in-flight decision usually wins the race, and re-arms until
// the prepare is decided. Active only with local reads (the watermark is
// what makes orphans expensive) and a finite vote timeout.
func (s *server) armDecisionQuery(id txn.ID) {
	vt := s.sys.spec.VoteTimeout
	if vt <= 0 || !s.sys.spec.LocalReads {
		return
	}
	s.node.After(vt+vt/2, func() {
		p := s.pending[id]
		if p == nil || !p.voted || p.proposed || p.relocking {
			return
		}
		s.node.Send(p.coord, decisionQuery{ID: id})
		s.armDecisionQuery(id)
	})
}

// onSnapRead serves a snapshot read once the watermark covers it. Leaders
// blocked only on wall-clock progress are flushed by the periodic broadcast
// tick; followers are flushed by watermark adoption.
func (s *server) onSnapRead(from simnet.NodeID, m *snapread.Req) {
	if !s.sys.spec.LocalReads {
		return
	}
	if s.replica == 0 {
		s.advanceSafeT()
	}
	s.reads.OnReq(from, m)
}

// readRetryEvery re-drives snapshot requests lost to a crashed or
// partitioned replica: delayed until the fault heals, never silently lost.
const readRetryEvery = 400 * time.Millisecond

// safeTimeEvery is a leader's watermark broadcast interval.
const safeTimeEvery = 5 * time.Millisecond

// SubmitLocalRead implements protocol.SnapshotReadable.
func (sys *System) SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[coord]
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	co.reads.Submit(t, done)
}

// SafeTimes implements protocol.SnapshotReadable: every replica's current
// watermark in shard-major order.
func (sys *System) SafeTimes() []time.Duration {
	n := 2*sys.spec.F + 1
	out := make([]time.Duration, 0, sys.spec.Shards*n)
	for _, shard := range sys.servers {
		for _, s := range shard {
			out = append(out, s.reads.Watermark())
		}
	}
	return out
}

// LieSafeTime makes one replica advertise a watermark ahead of its real one —
// fault injection for the snapshot-read checker tests.
func (sys *System) LieSafeTime(shard, replica int, ahead time.Duration) {
	sys.servers[shard][replica].reads.Lie(ahead)
}

var _ protocol.SnapshotReadable = (*System)(nil)
