package tiga

import (
	"reflect"
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
// its entries are the live records, which recs names once each, and the free
// LIFO's, which are zero, and no entry is both; the queue and the live
// agreements hold live entries only; and the slab made one allocation per
// pool.SlabChunk records — a chunk is added only when every earlier one is
// full.
func checkRecSlab(t *testing.T, s *Server) {
	t.Helper()
	in := slabRecs(s)
	if n := s.StateSizes().Records; n != len(s.recs) || n+len(s.free) != len(in) {
		t.Errorf("shard %d replica %d: StateSizes counts %d records, recs %d, the free LIFO %d, the slab holds %d", s.shard, s.replica, n, len(s.recs), len(s.free), len(in))
	}
	live := make(map[*rec]bool, len(s.recs))
	for id, r := range s.recs {
		if !in[r] || r.id != id || live[r] {
			t.Errorf("shard %d replica %d: the record of %v (id %v) is not an entry of the slab of its own", s.shard, s.replica, id, r.id)
		}
		live[r] = true
	}
	free := make(map[*rec]bool, len(s.free))
	for _, r := range s.free {
		if !in[r] || live[r] || free[r] || !reflect.ValueOf(*r).IsZero() {
			t.Errorf("shard %d replica %d: a free record is outside the slab, live, free twice or not zero: %+v", s.shard, s.replica, *r)
		}
		free[r] = true
	}
	for _, r := range s.pq.items {
		if !live[r] {
			t.Errorf("shard %d replica %d: %v is queued from outside the slab", s.shard, s.replica, r.id)
		}
	}
	for _, a := range s.agreements {
		if !live[a.r] {
			t.Errorf("shard %d replica %d: a live agreement points outside the slab", s.shard, s.replica)
		}
	}
	if n, c := s.recSlab.Len(), s.recSlab.Chunks(); n > c*pool.SlabChunk || n <= (c-1)*pool.SlabChunk {
		t.Errorf("shard %d replica %d: %d records in %d chunks of %d", s.shard, s.replica, n, c, pool.SlabChunk)
	}
}

// TestRecordsCostOneAllocationPerChunk: over a steady-state run every server
// hears of every transaction and keeps its record until it retires, a
// checkpoint interval or more after its commit. The records cost a server one
// allocation per pool.SlabChunk of the most it held at once, where they used to
// cost one each and then one per chunk of all of them: newRec takes the entries
// retire handed back before it adds to the slab. Checkpoints every 200 entries
// retire most of the run's records.
func TestRecordsCostOneAllocationPerChunk(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.CheckpointEvery = 200
	sim, c := testCluster(t, 23, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	n := saturate(sim, c, 50_000, 100*time.Millisecond, 2100*time.Millisecond, time.Millisecond, &committed)
	peak := map[*Server]int{}
	for sim.Now() < 10*time.Second && sim.Step() {
		for _, shard := range c.Servers {
			for _, s := range shard {
				peak[s] = max(peak[s], len(s.recs))
			}
		}
	}
	if committed != n || n < 2*pool.SlabChunk {
		t.Fatalf("committed %d of %d transactions; the run should fill two chunks of %d records", committed, n, pool.SlabChunk)
	}
	for _, shard := range c.Servers {
		for _, s := range shard {
			z, chunks := s.StateSizes(), s.recSlab.Chunks()
			if z.Records+z.Retired != n || peak[s] >= n/2 || chunks != (peak[s]+pool.SlabChunk-1)/pool.SlabChunk {
				t.Errorf("shard %d replica %d: %d live and %d retired records of %d transactions, at most %d at once, in %d chunk allocations",
					s.shard, s.replica, z.Records, z.Retired, n, peak[s], chunks)
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
		l.installLog(l.Log())
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
// end: it used to re-send for the rest of the run and keep that slab alive. So
// must the chain of a placeholder whose body came, whose transaction committed
// and whose record retired, once newRec has handed the entry to another
// transaction's placeholder: asking for the record's id, it would ask the first
// placeholder's peer for the second transaction.
func TestFetchStopsWhenItsRecordIsReplaced(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 5, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	l, peer, other := c.Leader(0), c.Leader(1), c.Leader(2)
	fetches := map[*Server]int{}
	for _, s := range []*Server{peer, other} {
		s := s
		c.Net.Node(s.node.ID()).SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			if _, ok := msg.(fetchTxnReq); ok {
				fetches[s]++
			}
			s.handle(from, msg)
		})
	}
	// notify has from, a shard leader, announce a timestamp for a transaction
	// nobody ever sent.
	notify := func(from *Server, id txn.ID) {
		l.onTsNotification(from.node.ID(), &tsNotification{
			viewInfo: viewInfo{GView: l.view.GView, LView: l.view.GVec[from.shard]}, Shard: from.shard, ID: id,
			TS: txn.Timestamp{Time: sim.Now(), Coord: id.Coord, Seq: id.Seq}, Round: 1,
		})
	}
	ghost := txn.ID{Coord: 1, Seq: 1 << 40}
	sim.At(100*time.Millisecond, func() { notify(peer, ghost) })
	sim.Run(100*time.Millisecond + 3*cfg.RetryTimeout)
	before := fetches[peer]
	if before < 4 || l.recs[ghost] == nil {
		t.Fatalf("%d fetches in three retry timeouts, placeholder %v: the chain is not running", before, l.recs[ghost])
	}
	l.installLog(l.Log())
	if l.recs[ghost] != nil || l.status != statusNormal {
		t.Fatalf("installLog kept the placeholder (status %v)", l.status)
	}
	sim.Run(100*time.Millisecond + 13*cfg.RetryTimeout)
	if fetches[peer] != before {
		t.Fatalf("%d fetch requests after installLog replaced the records, want none", fetches[peer]-before)
	}

	fetched, next := txn.ID{Coord: 2, Seq: 1 << 40}, txn.ID{Coord: 2, Seq: 1<<40 + 1}
	notify(peer, fetched)
	sim.Run(sim.Now() + cfg.RetryTimeout/2)
	r := l.recs[fetched]
	if fetches[peer] == before || r == nil {
		t.Fatalf("no fetch of %v: the chain is not running", fetched)
	}
	// Stand in for the fetch answered and the transaction agreed, released at
	// log position 0, committed and finished by its coordinator: what
	// retirement asks of it.
	r.t = incTxn(0, 1)
	r.t.ID = fetched
	l.agreedOn(r)
	r.released = true
	l.noteDone(fetched.Coord, fetched.Seq+1)
	l.retire(1)
	if l.recs[fetched] != nil || len(l.free) != 1 {
		t.Fatalf("the record of %v did not retire", fetched)
	}
	notify(other, next)
	if l.recs[next] != r {
		t.Fatalf("%v's placeholder is not the retired entry: the run does not exercise the case", next)
	}
	before = fetches[peer]
	sim.Run(sim.Now() + 13*cfg.RetryTimeout)
	if fetches[peer] != before || fetches[other] < 4 {
		t.Fatalf("%d fetch requests to shard 1's leader after %v's record retired, want none; %d to shard 2's, want its own chain's",
			fetches[peer]-before, fetched, fetches[other])
	}
}

// TestLongLogCopiesOut: a log of more than two slab chunks goes out of the
// server intact and owing it nothing. A flush, a start-view message and a
// state transfer each carry the leader's log ids in order, in a slice of their
// own: writing to it leaves the leader's log as it was. A follower that
// installs the start-view log, and one that rejoins by state transfer, end up
// with the leader's ids, and writing to the message afterwards leaves the
// follower's log as it was too.
func TestLongLogCopiesOut(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 11, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	committed := 0
	n := saturate(sim, c, 100, 100*time.Millisecond, 900*time.Millisecond, time.Millisecond, &committed)
	sim.Run(5 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	l := c.Leader(0)
	want := l.LogIDs()
	if len(want) <= 2*pool.SlabChunk {
		t.Fatalf("the leader's log holds %d entries, want more than %d", len(want), 2*pool.SlabChunk)
	}
	ids := func(log []logEntry) []txn.ID {
		out := make([]txn.ID, len(log))
		for i, e := range log {
			out[i] = e.ID
		}
		return out
	}
	// owned checks that log carries the leader's ids and that a write to it
	// does not reach the leader's log.
	owned := func(what string, log []logEntry) {
		t.Helper()
		if got := ids(log); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s carries %d entries, not the leader's %d in order", what, len(got), len(want))
		}
		last := len(log) - 1
		saved := log[last]
		log[0].ID, log[last].ID = txn.ID{}, txn.ID{}
		if got := l.LogIDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("writing to the log of a %s changed the leader's", what)
		}
		log[0].ID, log[last] = want[0], saved
	}
	owned("flush", l.flushLog())
	sv := l.startView().Log
	owned("start-view message", sv)

	f := c.Servers[0][(l.replica+1)%cfg.Replicas()]
	f.installLog(sv)
	sv[len(sv)-1].ID = txn.ID{}
	if got := f.LogIDs(); !reflect.DeepEqual(got, want) {
		t.Fatal("the follower that installed the start-view log does not hold the leader's ids, or shares the message's entries")
	}

	rejoin := (l.replica + 2) % cfg.Replicas()
	c.KillServer(0, rejoin)
	c.RestartServer(0, rejoin)
	r := c.Servers[0][rejoin]
	var transfers []stateTransferRep
	r.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(stateTransferRep); ok {
			transfers = append(transfers, m)
		}
		r.handle(from, msg)
	})
	sim.Run(sim.Now() + 5*time.Second)
	if len(transfers) != 1 || r.status != statusNormal {
		t.Fatalf("%d state transfers, rejoined server's status %v", len(transfers), r.status)
	}
	if got := r.LogIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the rejoined server holds %d entries, not the leader's %d in order", len(got), len(want))
	}
	owned("state transfer", transfers[0].Log)
	transfers[0].Log[0].ID = txn.ID{}
	if got := r.LogIDs(); !reflect.DeepEqual(got, want) {
		t.Fatal("the rejoined server shares the state transfer's entries")
	}
}
