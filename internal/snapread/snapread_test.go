package snapread

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

const ms = time.Millisecond

// testNet builds a network of n regions, every pair owd apart except the
// pairs listed in near, which are 1 ms apart.
func testNet(n int, owd time.Duration, near ...[2]int) *simnet.Network {
	m := make([][]simnet.Latency, n)
	for a := range m {
		m[a] = make([]simnet.Latency, n)
		for b := range m[a] {
			m[a][b] = simnet.Latency{Base: owd}
		}
	}
	for _, p := range near {
		m[p[0]][p[1]] = simnet.Latency{Base: ms}
		m[p[1]][p[0]] = simnet.Latency{Base: ms}
	}
	return simnet.NewNetwork(simnet.NewSim(1), simnet.Config{OWD: m})
}

func TestWaitersOrderAndPartialFlush(t *testing.T) {
	var w Waiters
	var got []string
	add := func(name string, at, now time.Duration) {
		w.Add(at, now, func(waited time.Duration) { got = append(got, fmt.Sprintf("%s/%v", name, waited)) })
	}
	add("a", 30*ms, 1*ms)
	add("b", 10*ms, 2*ms)
	add("c", 30*ms, 3*ms) // same snapshot as a: arrival order breaks the tie
	add("d", 20*ms, 4*ms)

	w.Flush(5*ms, 9*ms)
	if len(got) != 0 || w.Len() != 4 {
		t.Fatalf("a watermark below every snapshot served %v", got)
	}
	w.Flush(20*ms, 10*ms)
	if want := []string{"b/8ms", "d/6ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("partial flush served %v, want %v", got, want)
	}
	if w.Len() != 2 {
		t.Fatalf("%d reads left queued, want 2", w.Len())
	}
	w.Flush(30*ms, 20*ms)
	if want := []string{"b/8ms", "d/6ms", "a/19ms", "c/17ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
}

func TestNearest(t *testing.T) {
	net := testNet(4, 50*ms, [2]int{3, 2})
	regionOf := func(rep int) simnet.Region { return simnet.Region(rep) }
	if got := Nearest(net, 3, 3, regionOf); got != 2 {
		t.Errorf("from region 3 (1 ms from replica 2's) picked replica %d, want 2", got)
	}
	if got := Nearest(net, 0, 3, func(rep int) simnet.Region { return simnet.Region(rep + 1) }); got != 0 {
		t.Errorf("all replicas equally far: picked %d, want the lowest index", got)
	}
}

// coordRig is a Coordinator on a real simulated network whose replicas are
// scripted: every shard has one replica node that records the requests it
// gets and hands each to script, which sends whatever replies it likes.
type coordRig struct {
	net      *simnet.Network
	co       *Coordinator
	replicas []*simnet.Node
	reqs     [][]Req // by shard, in arrival order
	script   func(rep *simnet.Node, from simnet.NodeID, m Req, nth int)
	results  []txn.Result
}

func newCoordRig(shards int) *coordRig {
	r := &coordRig{net: testNet(2, 10*ms), reqs: make([][]Req, shards)}
	for sh := 0; sh < shards; sh++ {
		node := r.net.AddNode(1, nil)
		node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			m := msg.(Req)
			r.reqs[m.Shard] = append(r.reqs[m.Shard], m)
			r.script(node, from, m, len(r.reqs[m.Shard]))
		})
		r.replicas = append(r.replicas, node)
	}
	cn := r.net.AddNode(0, nil)
	r.co = &Coordinator{
		Node: cn, Net: r.net, Clock: r.net.Sim().Now, Staleness: 5 * ms, RetryEvery: 100 * ms,
		Replicas: 1, Replica: func(sh, _ int) simnet.NodeID { return r.replicas[sh].ID() },
	}
	cn.SetHandler(func(_ simnet.NodeID, msg simnet.Message) { r.co.OnRep(msg.(Rep)) })
	return r
}

// submit issues a read of one key per shard at sim time at.
func (r *coordRig) submit(at time.Duration) {
	r.net.Sim().At(at, func() {
		t := &txn.Txn{ID: txn.ID{Coord: 1, Seq: 7}, ReadOnly: true, Pieces: map[int]*txn.Piece{}}
		for sh := range r.replicas {
			t.Pieces[sh] = txn.ReadPiece(fmt.Sprintf("k%d", sh))
		}
		r.co.Submit(t, func(res txn.Result) { r.results = append(r.results, res) })
	})
}

// answer replies to m with a version stamped by the shard and the snapshot.
func answer(rep *simnet.Node, to simnet.NodeID, m Req) {
	rep.Send(to, Rep{Shard: m.Shard, Seq: m.Seq, At: m.At,
		Vals: [][]byte{{byte(m.Shard)}}, Seen: []txn.Timestamp{{Time: m.At, Seq: uint64(m.Shard)}}})
}

func TestCoordinatorRedrivesOnlyUnansweredAndDedups(t *testing.T) {
	r := newCoordRig(2)
	r.script = func(rep *simnet.Node, from simnet.NodeID, m Req, nth int) {
		switch {
		case m.Shard == 0: // answers everything twice (a retried reply)
			answer(rep, from, m)
			answer(rep, from, m)
		case nth >= 2: // shard 1 loses the first request
			answer(rep, from, m)
		}
	}
	r.submit(50 * ms)
	r.net.Sim().Run(time.Second)

	if len(r.results) != 1 {
		t.Fatalf("done called %d times, want exactly once", len(r.results))
	}
	res := r.results[0]
	if !res.OK || res.Retries != 1 || res.SnapshotAt != 45*ms {
		t.Errorf("result OK=%v Retries=%d SnapshotAt=%v, want true, 1, 45ms", res.OK, res.Retries, res.SnapshotAt)
	}
	if len(r.reqs[0]) != 1 {
		t.Errorf("shard 0 had answered, yet the re-drive asked it again (%d requests)", len(r.reqs[0]))
	}
	if len(r.reqs[1]) != 2 || r.reqs[1][1].At != r.reqs[1][0].At {
		t.Errorf("shard 1 requests %+v, want two at the same snapshot", r.reqs[1])
	}
	want := []txn.ReadObs{
		{Key: "k0", TS: txn.Timestamp{Time: 45 * ms, Seq: 0}},
		{Key: "k1", TS: txn.Timestamp{Time: 45 * ms, Seq: 1}},
	}
	if !reflect.DeepEqual(res.Reads, want) {
		t.Errorf("read observations %+v, want each shard's folded once: %+v", res.Reads, want)
	}
	if len(res.PerShard) != 2 || res.PerShard[1][0] != 1 {
		t.Errorf("PerShard = %v", res.PerShard)
	}
}

func TestCoordinatorRestartsAtOneFreshSnapshotWhenPruned(t *testing.T) {
	r := newCoordRig(2)
	r.script = func(rep *simnet.Node, from simnet.NodeID, m Req, nth int) {
		switch {
		case m.Shard == 1 && nth == 1:
			rep.Send(from, Rep{Shard: 1, Seq: m.Seq, At: m.At, Pruned: true})
		case m.Shard == 0 && nth == 1:
			// Answers the dead snapshot late: its reply lands after the restart
			// (pruned reply at +20 ms) and before the fresh answers (+40 ms).
			rep.After(15*ms, func() { answer(rep, from, m) })
		default:
			answer(rep, from, m)
		}
	}
	r.submit(50 * ms)
	r.net.Sim().Run(time.Second)

	if len(r.results) != 1 {
		t.Fatalf("done called %d times, want exactly once", len(r.results))
	}
	if len(r.reqs[0]) != 2 || len(r.reqs[1]) != 2 {
		t.Fatalf("requests per shard %d/%d, want every shard asked again after the pruned reply",
			len(r.reqs[0]), len(r.reqs[1]))
	}
	old, fresh := r.reqs[1][0].At, r.reqs[1][1].At
	if fresh <= old || r.reqs[0][1].At != fresh {
		t.Errorf("restart snapshots: shard 0 at %v, shard 1 at %v (old %v), want one fresh snapshot on both",
			r.reqs[0][1].At, fresh, old)
	}
	res := r.results[0]
	if res.SnapshotAt != fresh || res.Retries != 1 {
		t.Errorf("result SnapshotAt=%v Retries=%d, want %v, 1", res.SnapshotAt, res.Retries, fresh)
	}
	for _, ro := range res.Reads {
		if ro.TS.Time != fresh {
			t.Errorf("observation %+v comes from the dead snapshot %v", ro, old)
		}
	}
	if len(res.Reads) != 2 {
		t.Errorf("%d observations, want one per shard", len(res.Reads))
	}
}

// replicaRig is a Replica over a real store, with a client node collecting
// its replies.
type replicaRig struct {
	net    *simnet.Network
	rep    *Replica
	client *simnet.Node
	got    []Rep
}

func newReplicaRig(self, replicas int) *replicaRig {
	r := &replicaRig{net: testNet(1, ms)}
	st := store.New()
	st.EnableSnapshots()
	for i, at := range []time.Duration{500 * ms, 1500 * ms, 2500 * ms} {
		st.PutCommitted("k", txn.Timestamp{Time: at, Coord: 1, Seq: uint64(i)}, []byte{byte(i)})
	}
	node := r.net.AddNode(0, nil)
	r.rep = &Replica{Node: node, Sim: r.net.Sim(), Store: st, Shard: 4, Self: self, Replicas: replicas}
	r.client = r.net.AddNode(0, func(_ simnet.NodeID, msg simnet.Message) { r.got = append(r.got, msg.(Rep)) })
	return r
}

// read asks for "k" at snapshot at and returns the reply, or nil if the read
// is still queued after the network has drained.
func (r *replicaRig) read(seq uint64, at time.Duration) *Rep {
	r.rep.OnReq(r.client.ID(), Req{Shard: 4, Seq: seq, At: at, Keys: []string{"k"}})
	r.net.Sim().Run(r.net.Sim().Now() + 10*ms)
	for i := range r.got {
		if r.got[i].Seq == seq {
			return &r.got[i]
		}
	}
	return nil
}

func TestReplicaAdoptsPairOnlyAtItsPrefix(t *testing.T) {
	r := newReplicaRig(1, 3)
	r.rep.Offer(Pair{W: 600 * ms, N: 3}, 2)
	if w := r.rep.Watermark(); w != 0 {
		t.Fatalf("watermark %v adopted with 2 of 3 entries applied", w)
	}
	if rep := r.read(1, 550*ms); rep != nil {
		t.Fatalf("read above the watermark was served: %+v", rep)
	}
	r.rep.Applied(2)
	if w := r.rep.Watermark(); w != 0 {
		t.Fatalf("watermark %v adopted with 2 of 3 entries applied", w)
	}
	r.rep.Applied(3)
	if w := r.rep.Watermark(); w != 600*ms {
		t.Fatalf("watermark %v after the prefix was applied, want 600ms", w)
	}
	r.net.Sim().Run(r.net.Sim().Now() + 10*ms)
	if len(r.got) != 1 || r.got[0].Waited == 0 || r.got[0].Seen[0].Time != 500*ms {
		t.Fatalf("queued read after adoption: %+v, want one waited reply seeing the 500ms version", r.got)
	}

	// The watermark never decreases, whichever way a lower value arrives.
	r.rep.Advance(100 * ms)
	r.rep.Offer(Pair{W: 200 * ms, N: 0}, 3)
	r.rep.Offer(Pair{W: 300 * ms, N: 9}, 3)
	r.rep.Applied(9)
	if w := r.rep.Watermark(); w != 600*ms {
		t.Fatalf("watermark moved backwards to %v", w)
	}
}

func TestReplicaGCHorizonAndPrunedReads(t *testing.T) {
	r := newReplicaRig(0, 3)
	r.rep.Advance(5 * time.Second)
	before := map[time.Duration]*Rep{}
	for i, at := range []time.Duration{time.Second, 2 * time.Second, 2200 * ms} {
		before[at] = r.read(uint64(10+i), at)
	}

	r.rep.AdvanceGC()
	r.rep.Report(1, 4*time.Second)
	r.rep.AdvanceGC()
	if h := r.rep.GCHorizon(); h != 0 {
		t.Fatalf("GC horizon %v with one follower still unreported, want none", h)
	}
	r.rep.Report(2, 3*time.Second)
	r.rep.Report(2, 2*time.Second) // reports are monotone too
	r.rep.AdvanceGC()
	if h := r.rep.GCHorizon(); h != 2*time.Second {
		t.Fatalf("GC horizon %v, want min watermark 3s - slack 1s", h)
	}
	if n := r.rep.Store.Versions(); n != 2 {
		t.Fatalf("%d versions retained after the prune, want the 1.5s pivot and the 2.5s one", n)
	}

	if rep := r.read(20, time.Second); rep == nil || !rep.Pruned || rep.At != time.Second || rep.Seen != nil {
		t.Errorf("read below the horizon answered %+v, want a bare pruned reply", rep)
	}
	for i, at := range []time.Duration{2 * time.Second, 2200 * ms} {
		rep := r.read(uint64(30+i), at)
		if rep == nil || rep.Pruned {
			t.Fatalf("read at %v (horizon 2s) answered %+v, want served", at, rep)
		}
		if !reflect.DeepEqual(rep.Vals, before[at].Vals) || !reflect.DeepEqual(rep.Seen, before[at].Seen) {
			t.Errorf("read at %v changed across the prune: %v/%v, before %v/%v",
				at, rep.Vals, rep.Seen, before[at].Vals, before[at].Seen)
		}
	}
}
