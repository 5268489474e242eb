package tiga

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// closedLoop keeps inflight transactions outstanding at every coordinator of
// c from at on, each incrementing one of the seeded keys of every shard.
func closedLoop(sim *simnet.Sim, c *Cluster, at time.Duration, inflight int, committed *int) {
	rng := rand.New(rand.NewSource(7))
	var submit func(co int)
	submit = func(co int) {
		tx := perShard(c.Cfg.Shards, func(sh int) *txn.Piece { return txn.IncrementPiece(fmt.Sprintf("k%d-%d", sh, rng.Intn(100))) })
		c.Coords[co].Submit(tx, func(r txn.Result) {
			if r.OK {
				*committed++
			}
			submit(co)
		})
	}
	sim.At(at, func() {
		for co := range c.Coords {
			for i := 0; i < inflight; i++ {
				submit(co)
			}
		}
	})
}

// TestLiveRecordsDoNotGrowWithTheRun: a server's live records are the
// transactions of its last two checkpoint intervals and those in flight, so
// twice the run leaves it with no more records, give or take an interval and
// the in-flight cap. Before retirement every record stayed for the whole run
// and twice the run held twice the records. Nor does a record retire early:
// it outlives its commit by a checkpoint interval, so every log entry from one
// interval below the checkpoint on still has its record.
func TestLiveRecordsDoNotGrowWithTheRun(t *testing.T) {
	const (
		w        = 3 * time.Second
		inflight = 20
	)
	cfg := DefaultConfig(3, 1)
	cfg.CheckpointEvery = 100
	sim, c := testCluster(t, 31, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	closedLoop(sim, c, 100*time.Millisecond, inflight, &committed)
	live := func() map[*Server]int {
		out := map[*Server]int{}
		for _, shard := range c.Servers {
			for _, s := range shard {
				out[s] = s.StateSizes().Records
			}
		}
		return out
	}
	sim.Run(w)
	atW, committedAtW := live(), committed
	sim.Run(2 * w)
	bound := cfg.CheckpointEvery + inflight*len(c.Coords)
	if committed-committedAtW < 4*bound {
		t.Fatalf("%d commits in the second window: too few to show a slope past %d records", committed-committedAtW, bound)
	}
	for s, n := range live() {
		z := s.StateSizes()
		if n-atW[s] >= bound || z.Retired == 0 {
			t.Errorf("shard %d replica %d: %d live records after %v, %d after %v (%d retired); want fewer than %d more",
				s.shard, s.replica, atW[s], w, n, 2*w, z.Retired, bound)
		}
		for i := max(0, s.checkpointPos-cfg.CheckpointEvery); i < s.log.Len(); i++ {
			if s.recs[s.log.At(uint32(i)).ID] == nil {
				t.Fatalf("shard %d replica %d: log entry %d retired with the checkpoint at %d", s.shard, s.replica, i, s.checkpointPos)
			}
		}
	}
	checkState(t, c)
}

// TestLateMessagesForRetiredTransactions: once a transaction's record has
// retired, the messages that could still name it — a duplicate multicast at
// the leader and at a follower, a timestamp notification, a fetch of its body
// — send nothing and start no record; each is counted as late. The record it
// replaced answered each with a reply nobody waited for, or with nothing.
func TestLateMessagesForRetiredTransactions(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.CheckpointEvery = 20
	sim, c := testCluster(t, 37, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	n := saturate(sim, c, 1000, 100*time.Millisecond, 400*time.Millisecond, 5*time.Millisecond, &committed)
	sim.Run(10 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	l, peer := c.Leader(0), c.Leader(1)
	f := c.Servers[0][(l.replica+1)%cfg.Replicas()]
	e := *l.log.At(0)
	for _, s := range []*Server{l, f} {
		if s.recs[e.ID] != nil || s.StateSizes().Retired == 0 {
			t.Fatalf("shard 0 replica %d still holds the record of its first log entry (%d retired)", s.replica, s.StateSizes().Retired)
		}
	}
	multicast := func(s *Server) {
		m := c.msgs.txn.Get()
		*m = txnMsg{T: e.T, TS: e.TS, SendClock: s.now(), Coord: c.coordNode(e.ID.Coord), GView: s.view.GView, Retry: 2}
		s.handle(m.Coord, m)
	}
	for _, tc := range []struct {
		name    string
		s       *Server
		deliver func()
	}{
		{"multicast at the leader", l, func() { multicast(l) }},
		{"multicast at a follower", f, func() { multicast(f) }},
		{"timestamp notification", l, func() {
			m := c.msgs.tsNote.Get()
			*m = tsNotification{viewInfo: viewInfo{GView: l.view.GView, LView: l.view.GVec[1]}, Shard: 1, ID: e.ID, TS: e.TS, Round: 1}
			l.handle(peer.node.ID(), m)
		}},
		{"fetch", l, func() { l.handle(peer.node.ID(), fetchTxnReq{Shard: 0, ID: e.ID}) }},
	} {
		sent, recs, late := c.Net.Sent, len(tc.s.recs), tc.s.StateSizes().LateRetired
		tc.deliver()
		if c.Net.Sent != sent || len(tc.s.recs) != recs || tc.s.StateSizes().LateRetired != late+1 {
			t.Errorf("%s: %d messages sent, %d records started, %d counted late; want none, none, one",
				tc.name, c.Net.Sent-sent, len(tc.s.recs)-recs, tc.s.StateSizes().LateRetired-late)
		}
	}
	checkDrained(t, c)
}
