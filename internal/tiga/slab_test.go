package tiga

import (
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// slabRecs returns the entries of s's record slab as a set.
func slabRecs(s *Server) map[*rec]bool {
	set := make(map[*rec]bool, s.recSlab.Len())
	for i := 0; i < s.recSlab.Len(); i++ {
		set[s.recSlab.At(uint32(i))] = true
	}
	return set
}

// checkRecSlab asserts that the record slab is where all of s's records are:
// recs names each entry once and nothing else, the queue and the live
// agreements hold entries only, and the slab made one allocation per
// pool.SlabChunk records — a chunk is added only when every earlier one is full.
func checkRecSlab(t *testing.T, s *Server) {
	t.Helper()
	in := slabRecs(s)
	if n := s.StateSizes().Records; n != len(in) || n != len(s.recs) {
		t.Errorf("shard %d replica %d: StateSizes counts %d records, recs %d, the slab holds %d", s.shard, s.replica, n, len(s.recs), len(in))
	}
	for id, r := range s.recs {
		if !in[r] || r.id != id {
			t.Errorf("shard %d replica %d: the record of %v (id %v) is not an entry of the slab", s.shard, s.replica, id, r.id)
		}
	}
	for _, r := range s.pq.items {
		if !in[r] {
			t.Errorf("shard %d replica %d: %v is queued from outside the slab", s.shard, s.replica, r.id)
		}
	}
	for _, a := range s.agreements {
		if !in[a.r] {
			t.Errorf("shard %d replica %d: a live agreement points outside the slab", s.shard, s.replica)
		}
	}
	if n, c := s.recSlab.Len(), s.recSlab.Chunks(); n > c*pool.SlabChunk || n <= (c-1)*pool.SlabChunk {
		t.Errorf("shard %d replica %d: %d records in %d chunks of %d", s.shard, s.replica, n, c, pool.SlabChunk)
	}
}

// TestRecordsCostOneAllocationPerChunk: over a steady-state run every server
// hears of every transaction, and its records — one per transaction, kept for
// the whole run — cost it one allocation per pool.SlabChunk of them where they
// used to cost one each.
func TestRecordsCostOneAllocationPerChunk(t *testing.T) {
	sim, c := testCluster(t, 23, DefaultConfig(3, 1), ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	n := saturate(sim, c, 50_000, 100*time.Millisecond, 900*time.Millisecond, time.Millisecond, &committed)
	sim.Run(10 * time.Second)
	if committed != n || n < 2*pool.SlabChunk {
		t.Fatalf("committed %d of %d transactions; the run should fill two chunks of %d records", committed, n, pool.SlabChunk)
	}
	for _, shard := range c.Servers {
		for _, s := range shard {
			recs, chunks := s.StateSizes().Records, s.recSlab.Chunks()
			if recs != n || chunks != (n+pool.SlabChunk-1)/pool.SlabChunk {
				t.Errorf("shard %d replica %d: %d records of %d transactions in %d chunk allocations", s.shard, s.replica, recs, n, chunks)
			}
		}
	}
	checkDrained(t, c)
}

// TestInstallLogAbandonsTheRecordSlab: installLog starts the records over in a
// new slab, and one pointer into the old one would keep a whole chunk of it
// alive. Nothing the server or the cluster's pools keep may still reach it: not
// the record map, the queue, a live agreement, or — the one that takes care — an
// agreement object waiting in the pool, which used to go back pointing at its
// record.
func TestInstallLogAbandonsTheRecordSlab(t *testing.T) {
	var sc scanCheck
	committed := 0
	sim, c := parkedCluster(t, &sc)
	saturate(sim, c, 100, 100*time.Millisecond, 700*time.Millisecond, time.Millisecond, &committed)
	sim.Run(600 * time.Millisecond)
	if committed == 0 {
		t.Fatal("nothing committed mid-run: no agreement has been recycled yet")
	}
	for sh := 0; sh < 3; sh++ {
		l := c.Leader(sh)
		old := slabRecs(l)
		if len(l.agreements) == 0 || l.pq.len() == 0 {
			t.Fatalf("shard %d leader: %d live agreements, %d queued mid-run", sh, len(l.agreements), l.pq.len())
		}
		l.installLog(l.log)
		for id, r := range l.recs {
			if old[r] {
				t.Errorf("shard %d: the record of %v is an entry of the abandoned slab", sh, id)
			}
		}
		if len(l.agreements) != 0 || l.pq.len() != 0 || len(l.pendingSync) != 0 {
			t.Errorf("shard %d: installLog left %d agreements, %d queued, %d buffered log-syncs", sh, len(l.agreements), l.pq.len(), len(l.pendingSync))
		}
		checkRecSlab(t, l)
	}
	// Empty the pool: Get counts a miss once nothing recycled is left.
	pooled := 0
	for f := c.agreements; ; pooled++ {
		misses := f.News
		a := f.Get()
		if f.News != misses {
			break
		}
		if a.r != nil {
			t.Fatalf("a pooled agreement still points at the record of %v", a.r.id)
		}
	}
	if pooled == 0 {
		t.Fatal("no agreement object was waiting in the pool")
	}
}

// TestFetchStopsWhenItsRecordIsReplaced: a placeholder whose body never shows
// up keeps asking for it every retry-timeout/2. Once installLog has started the
// records over, the placeholder is in the abandoned slab and the chain has to
// end: it used to re-send for the rest of the run and keep that slab alive.
func TestFetchStopsWhenItsRecordIsReplaced(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 5, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	l, peer := c.Leader(0), c.Leader(1)
	fetches := 0
	c.Net.Node(peer.node.ID()).SetHandler(func(from simnet.NodeID, msg simnet.Message) {
		if _, ok := msg.(fetchTxnReq); ok {
			fetches++
		}
		peer.handle(from, msg)
	})
	// Shard 1's leader announces a timestamp for a transaction nobody ever sent.
	ghost := txn.ID{Coord: 1, Seq: 1 << 40}
	sim.At(100*time.Millisecond, func() {
		l.onTsNotification(peer.node.ID(), &tsNotification{
			viewInfo: viewInfo{GView: l.view.GView, LView: l.view.GVec[1]}, Shard: 1, ID: ghost,
			TS: txn.Timestamp{Time: 100 * time.Millisecond, Coord: 1, Seq: 1}, Round: 1,
		})
	})
	sim.Run(100*time.Millisecond + 3*cfg.RetryTimeout)
	before := fetches
	if before < 4 || l.recs[ghost] == nil {
		t.Fatalf("%d fetches in three retry timeouts, placeholder %v: the chain is not running", before, l.recs[ghost])
	}
	l.installLog(l.log)
	if l.recs[ghost] != nil || l.status != statusNormal {
		t.Fatalf("installLog kept the placeholder (status %v)", l.status)
	}
	sim.Run(100*time.Millisecond + 13*cfg.RetryTimeout)
	if fetches != before {
		t.Fatalf("%d fetch requests after installLog replaced the records, want none", fetches-before)
	}
}
