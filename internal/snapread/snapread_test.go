package snapread

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

const ms = time.Millisecond

// Every pool in this package's tests has the double-free detector armed, so a
// message recycled twice fails as itself.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

var stale = []byte("stale")

// scribbleRep overwrites a reply the coordinator has recycled, the way its next
// user would: a result that still pointed into it would change under the test.
func scribbleRep(m *Rep) {
	vals, seen := m.Vals[:cap(m.Vals)], m.Seen[:cap(m.Seen)]
	for i := range vals {
		vals[i] = stale
	}
	for i := range seen {
		seen[i] = txn.Timestamp{Time: -1, Coord: -1}
	}
	*m = Rep{Shard: -1, Seq: ^uint64(0), At: -1, Pruned: true, Vals: vals, Seen: seen}
}

// scribbleReq does the same to a request the replica has served and recycled.
func scribbleReq(m *Req) { *m = Req{Shard: -1, Seq: ^uint64(0), At: -1} }

// allHome fails the test unless every message the pools ever made is back on
// its freelist, except lostReq requests and lostRep replies that were dropped
// in flight.
func allHome(t *testing.T, msgs *Msgs, lostReq, lostRep int) {
	t.Helper()
	if out := msgs.Req.News - msgs.Req.Idle(); out != lostReq {
		t.Errorf("%d of %d requests never came back to the pool, want %d", out, msgs.Req.News, lostReq)
	}
	if out := msgs.Rep.News - msgs.Rep.Idle(); out != lostRep {
		t.Errorf("%d of %d replies never came back to the pool, want %d", out, msgs.Rep.News, lostRep)
	}
}

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
	names := map[*Req]string{}
	add := func(name string, at, now time.Duration) {
		m := &Req{At: at}
		names[m] = name
		w.Add(7, m, now)
	}
	serve := func(to simnet.NodeID, m *Req, waited, since time.Duration) {
		if to != 7 {
			t.Errorf("%s released to node %d, want the sender, 7", names[m], to)
		}
		got = append(got, fmt.Sprintf("%s/%v/%v", names[m], waited, since))
	}
	// tailZeroed reports whether the queue's backing array holds nothing
	// beyond its length: a released request must not stay reachable from it.
	tailZeroed := func() bool {
		for _, x := range w.ws[len(w.ws):cap(w.ws)] {
			if x != (waiter{}) {
				return false
			}
		}
		return true
	}
	add("a", 30*ms, 1*ms)
	add("b", 10*ms, 2*ms)
	add("c", 30*ms, 3*ms) // same snapshot as a: arrival order breaks the tie
	add("d", 20*ms, 4*ms)

	w.Flush(5*ms, 9*ms, serve)
	if len(got) != 0 || w.Len() != 4 {
		t.Fatalf("a watermark below every snapshot served %v", got)
	}
	w.Flush(20*ms, 10*ms, serve)
	if want := []string{"b/8ms/2ms", "d/6ms/4ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("partial flush served %v, want %v", got, want)
	}
	if w.Len() != 2 || !tailZeroed() {
		t.Fatalf("%d reads left queued (want 2), vacated tail zeroed: %v", w.Len(), tailZeroed())
	}

	// A serve that re-enters Add: the released reads have already left the
	// queue, so e (below the watermark, but late) and f queue up behind them
	// in order and wait for the next flush.
	reenter := func(to simnet.NodeID, m *Req, waited, since time.Duration) {
		serve(to, m, waited, since)
		if names[m] == "a" {
			add("f", 40*ms, 20*ms)
			add("e", 25*ms, 20*ms)
		}
	}
	w.Flush(30*ms, 20*ms, reenter)
	if want := []string{"b/8ms/2ms", "d/6ms/4ms", "a/19ms/1ms", "c/17ms/3ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if w.Len() != 2 || names[w.ws[0].req] != "e" || names[w.ws[1].req] != "f" {
		t.Fatalf("queue after a re-entrant Add holds %d reads, want e then f", w.Len())
	}
	got = nil
	w.Flush(40*ms, 30*ms, serve)
	if want := []string{"e/10ms/20ms", "f/10ms/20ms"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if w.Len() != 0 || !tailZeroed() {
		t.Fatalf("%d reads left queued (want 0), vacated tail zeroed: %v", w.Len(), tailZeroed())
	}
	// The scratch slice is reused from one flush to the next.
	if n := testing.AllocsPerRun(10, func() {
		w.Add(7, &Req{At: 50 * ms}, 31*ms)
		w.Flush(50*ms, 32*ms, func(simnet.NodeID, *Req, time.Duration, time.Duration) {})
	}); n > 1 {
		t.Errorf("Add+Flush allocates %.0f times, want only the test's own Req", n)
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
// gets, recycles them as a Replica would, and hands a copy of each to script,
// which sends whatever replies it likes. The coordinator's node scribbles over
// every reply once OnRep is done with it.
type coordRig struct {
	net      *simnet.Network
	co       *Coordinator
	replicas []*simnet.Node
	reqs     [][]Req // by shard, in arrival order
	reps     int     // replies delivered to the coordinator
	script   func(r *coordRig, rep *simnet.Node, from simnet.NodeID, m Req, nth int)
	results  []txn.Result
	seq      uint64
}

func newCoordRig(shards int) *coordRig {
	r := &coordRig{net: testNet(2, 10*ms), reqs: make([][]Req, shards)}
	msgs := NewMsgs()
	for sh := 0; sh < shards; sh++ {
		node := r.net.AddNode(1, nil)
		node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			p := msg.(*Req)
			m := *p
			msgs.Req.Put(p)
			scribbleReq(p)
			r.reqs[m.Shard] = append(r.reqs[m.Shard], m)
			r.script(r, node, from, m, len(r.reqs[m.Shard]))
		})
		r.replicas = append(r.replicas, node)
	}
	cn := r.net.AddNode(0, nil)
	r.co = &Coordinator{
		Node: cn, Net: r.net, Clock: r.net.Sim().Now, Staleness: 5 * ms, RetryEvery: 100 * ms,
		Replicas: 1, Replica: func(sh, _ int) simnet.NodeID { return r.replicas[sh].ID() }, Msgs: msgs,
	}
	cn.SetHandler(func(_ simnet.NodeID, msg simnet.Message) {
		m := msg.(*Rep)
		r.reps++
		r.co.OnRep(m)
		scribbleRep(m)
	})
	return r
}

// readTxn builds a read of one key on each of the first shards shards: key
// "k<shard>", the first (and only) key its store numbers.
func readTxn(shards int) *txn.Txn {
	pieces := make([]txn.Piece, shards)
	for sh := range pieces {
		pieces[sh] = txn.ReadPieceID(fmt.Sprintf("k%d", sh), 0).On(sh)
	}
	return &txn.Txn{ReadOnly: true, Pieces: txn.ByShard(pieces...)}
}

// submit issues a read of one key per shard at sim time at.
func (r *coordRig) submit(at time.Duration) {
	r.net.Sim().At(at, func() {
		t := readTxn(len(r.replicas))
		r.seq++
		t.ID = txn.ID{Coord: 1, Seq: 6 + r.seq}
		r.co.Submit(t, func(res txn.Result) { r.results = append(r.results, res) })
	})
}

// answer replies to m with a version stamped by the shard and the snapshot.
func (r *coordRig) answer(rep *simnet.Node, to simnet.NodeID, m Req) {
	out := r.co.Msgs.Rep.Get()
	*out = Rep{Shard: m.Shard, Seq: m.Seq, At: m.At,
		Vals: append(out.Vals[:0], []byte{byte(m.Shard)}),
		Seen: append(out.Seen[:0], txn.Timestamp{Time: m.At, Seq: uint64(m.Shard)})}
	rep.Send(to, out)
}

func TestCoordinatorRedrivesOnlyUnansweredAndDedups(t *testing.T) {
	r := newCoordRig(2)
	r.script = func(r *coordRig, rep *simnet.Node, from simnet.NodeID, m Req, nth int) {
		switch {
		case m.Shard == 0: // answers everything twice (a retried reply)
			r.answer(rep, from, m)
			r.answer(rep, from, m)
		case nth >= 2: // shard 1 loses the first request
			r.answer(rep, from, m)
		}
	}
	r.submit(50 * ms)
	r.submit(700 * ms) // a second read through the recycled messages
	r.net.Sim().Run(time.Second)

	if len(r.results) != 2 {
		t.Fatalf("done called %d times, want exactly once per read", len(r.results))
	}
	if r.reps != 6 {
		t.Errorf("%d replies delivered, want 3 to each read, one of them a duplicate", r.reps)
	}
	allHome(t, r.co.Msgs, 0, 0)
	if res := r.results[1]; !res.OK || res.Retries != 0 || res.SnapshotAt != 695*ms || len(res.Reads) != 2 {
		t.Errorf("second read: %+v", res)
	}
	// The first result was handed over long before the second read reused (and
	// the rig scribbled over) the replies it was folded from.
	res := r.results[0]
	if !res.OK || res.Retries != 1 || res.SnapshotAt != 45*ms {
		t.Errorf("result OK=%v Retries=%d SnapshotAt=%v, want true, 1, 45ms", res.OK, res.Retries, res.SnapshotAt)
	}
	if len(r.reqs[0]) != 2 {
		t.Errorf("shard 0 had answered, yet the re-drive asked it again (%d requests for 2 reads)", len(r.reqs[0]))
	}
	if len(r.reqs[1]) != 3 || r.reqs[1][1].At != r.reqs[1][0].At {
		t.Errorf("shard 1 requests %+v, want two at the first read's snapshot and one at the second's", r.reqs[1])
	}
	want := []txn.ReadObs{
		{Key: "k0", TS: txn.Timestamp{Time: 45 * ms, Seq: 0}},
		{Key: "k1", TS: txn.Timestamp{Time: 45 * ms, Seq: 1}},
	}
	if !reflect.DeepEqual(res.Reads, want) {
		t.Errorf("read observations %+v, want each shard's folded once: %+v", res.Reads, want)
	}
	if want := []txn.ShardRet{{Shard: 0, Ret: []byte{0}}, {Shard: 1, Ret: []byte{1}}}; !reflect.DeepEqual(res.PerShard, want) {
		t.Errorf("PerShard = %v", res.PerShard)
	}
}

func TestCoordinatorRestartsAtOneFreshSnapshotWhenPruned(t *testing.T) {
	r := newCoordRig(3)
	r.script = func(r *coordRig, rep *simnet.Node, from simnet.NodeID, m Req, nth int) {
		switch {
		case m.Shard == 1 && nth == 1:
			// The pruned reply lands at +25 ms, after shard 2 has answered the
			// snapshot it kills (+20 ms): that answer must be forgotten.
			rep.After(5*ms, func() {
				out := r.co.Msgs.Rep.Get()
				*out = Rep{Shard: 1, Seq: m.Seq, At: m.At, Pruned: true, Vals: out.Vals[:0], Seen: out.Seen[:0]}
				rep.Send(from, out)
			})
		case m.Shard == 0 && nth == 1:
			// Answers the dead snapshot late: its reply lands after the restart
			// and before the fresh answers (+45 ms).
			rep.After(15*ms, func() { r.answer(rep, from, m) })
		default:
			r.answer(rep, from, m)
		}
	}
	r.submit(50 * ms)
	r.net.Sim().Run(time.Second)

	if len(r.results) != 1 {
		t.Fatalf("done called %d times, want exactly once", len(r.results))
	}
	if r.reps != 6 {
		t.Errorf("%d replies delivered, want shard 2's early one, the pruned one, the late one and the three fresh ones", r.reps)
	}
	allHome(t, r.co.Msgs, 0, 0)
	if len(r.reqs[0]) != 2 || len(r.reqs[1]) != 2 || len(r.reqs[2]) != 2 {
		t.Fatalf("requests per shard %d/%d/%d, want every shard asked again after the pruned reply, the one that had answered too",
			len(r.reqs[0]), len(r.reqs[1]), len(r.reqs[2]))
	}
	old, fresh := r.reqs[1][0].At, r.reqs[1][1].At
	if fresh <= old || r.reqs[0][1].At != fresh || r.reqs[2][1].At != fresh {
		t.Errorf("restart snapshots: shard 0 at %v, shard 1 at %v, shard 2 at %v (old %v), want one fresh snapshot on all",
			r.reqs[0][1].At, fresh, r.reqs[2][1].At, old)
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
	if len(res.Reads) != 3 || len(res.PerShard) != 3 {
		t.Errorf("%d observations and %d values, want one per shard", len(res.Reads), len(res.PerShard))
	}
}

// replicaRig is a Replica over a real store, with a client node collecting
// copies of its replies (and recycling them, as a Coordinator would).
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
	r.rep = &Replica{Node: node, Sim: r.net.Sim(), Store: st, Shard: 4, Self: self, Replicas: replicas, Msgs: NewMsgs()}
	r.client = r.net.AddNode(0, func(_ simnet.NodeID, msg simnet.Message) {
		m := msg.(*Rep)
		c := *m
		c.Vals, c.Seen = append([][]byte(nil), m.Vals...), append([]txn.Timestamp(nil), m.Seen...)
		r.got = append(r.got, c)
		r.rep.Msgs.Rep.Put(m)
		scribbleRep(m)
	})
	return r
}

// read asks for "k" at snapshot at and returns the reply, or nil if the read
// is still queued after the network has drained.
func (r *replicaRig) read(seq uint64, at time.Duration) *Rep {
	m := r.rep.Msgs.Req.Get()
	*m = Req{Shard: 4, Seq: seq, At: at, Keys: []string{"k"}}
	if !r.rep.OnReq(r.client.ID(), m) {
		scribbleReq(m)
	}
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
	allHome(t, r.rep.Msgs, 0, 0)

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

	// The pruned reply reuses a message that carried a version a moment ago.
	if rep := r.read(20, time.Second); rep == nil || !rep.Pruned || rep.At != time.Second || len(rep.Seen)+len(rep.Vals) != 0 {
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
	allHome(t, r.rep.Msgs, 0, 0)
}

// pairRig is a real Coordinator reading from real Replicas (one per shard, each
// over its own store holding "k<shard>") across a 10 ms link. Both handlers
// count what is delivered and scribble over whatever has been recycled.
type pairRig struct {
	net     *simnet.Network
	msgs    *Msgs
	co      *Coordinator
	cn      *simnet.Node
	reps    []*Replica
	nodes   []*simnet.Node
	reqs    int // requests delivered to replicas
	replies int // replies delivered to the coordinator
	results []txn.Result
}

func newPairRig(shards int) *pairRig {
	r := &pairRig{net: testNet(2, 10*ms), msgs: NewMsgs()}
	for sh := 0; sh < shards; sh++ {
		st := store.New()
		st.EnableSnapshots()
		st.PutCommitted(fmt.Sprintf("k%d", sh), txn.Timestamp{Time: 20 * ms, Coord: 1, Seq: uint64(sh)}, []byte{byte(sh)})
		node := r.net.AddNode(1, nil)
		rep := &Replica{Node: node, Sim: r.net.Sim(), Store: st, Shard: sh, Replicas: 1, Msgs: r.msgs}
		node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			m := msg.(*Req)
			r.reqs++
			if !rep.OnReq(from, m) {
				scribbleReq(m)
			}
		})
		r.reps, r.nodes = append(r.reps, rep), append(r.nodes, node)
	}
	r.cn = r.net.AddNode(0, nil)
	r.co = &Coordinator{
		Node: r.cn, Net: r.net, Clock: r.net.Sim().Now, Staleness: 5 * ms, RetryEvery: 100 * ms,
		Replicas: 1, Replica: func(sh, _ int) simnet.NodeID { return r.nodes[sh].ID() }, Msgs: r.msgs,
	}
	r.cn.SetHandler(func(_ simnet.NodeID, msg simnet.Message) {
		m := msg.(*Rep)
		r.replies++
		r.co.OnRep(m)
		scribbleRep(m)
	})
	return r
}

func (r *pairRig) submit(at time.Duration, seq uint64) {
	r.net.Sim().At(at, func() {
		t := readTxn(len(r.reps))
		t.ID = txn.ID{Coord: 1, Seq: seq}
		r.co.Submit(t, func(res txn.Result) { r.results = append(r.results, res) })
	})
}

// one fails the test unless exactly one read completed, with every shard's
// version in it, and returns it.
func (r *pairRig) one(t *testing.T) txn.Result {
	t.Helper()
	if len(r.results) != 1 {
		t.Fatalf("done called %d times, want exactly once", len(r.results))
	}
	res := r.results[0]
	for sh := range r.reps {
		want := txn.ReadObs{Key: fmt.Sprintf("k%d", sh), TS: txn.Timestamp{Time: 20 * ms, Coord: 1, Seq: uint64(sh)}}
		if sh >= len(res.Reads) || res.Reads[sh] != want || len(res.Ret(sh)) != 1 || res.Ret(sh)[0] != byte(sh) {
			t.Fatalf("shard %d: observed %+v, value %v; want %+v, [%d]", sh, res.Reads, res.Ret(sh), want, sh)
		}
	}
	return res
}

// A re-drive that finds the first request still queued behind the watermark
// queues a second one beside it; the watermark then releases both, the first
// reply completes the read and the second is dropped — each of the two
// requests and two replies recycled exactly once.
func TestRedriveWhileQueuedBehindTheWatermark(t *testing.T) {
	r := newPairRig(1)
	r.submit(50*ms, 9) // snapshot 45 ms; the replica's watermark is 0
	r.net.Sim().At(200*ms, func() { r.reps[0].Advance(45 * ms) })
	r.net.Sim().Run(220 * ms) // before the re-drive timer's next firing

	res := r.one(t)
	if r.reqs != 2 || r.replies != 2 {
		t.Errorf("%d requests and %d replies delivered, want 2 and 2", r.reqs, r.replies)
	}
	if res.Retries != 1 || res.SnapshotAt != 45*ms || res.Waited != 140*ms {
		t.Errorf("Retries=%d SnapshotAt=%v Waited=%v, want 1, 45ms, 140ms (queued 60ms..200ms)", res.Retries, res.SnapshotAt, res.Waited)
	}
	allHome(t, r.msgs, 0, 0)
	if r.msgs.Req.News != 2 || r.msgs.Rep.News != 2 {
		t.Errorf("pools made %d requests and %d replies, want 2 and 2: both requests were queued at once",
			r.msgs.Req.News, r.msgs.Rep.News)
	}
}

// A reply lost in flight is never recycled — the collector has it — and the
// re-drive gets the read answered through a fresh one.
func TestLostReplyIsRedrivenThroughAFreshMessage(t *testing.T) {
	r := newPairRig(2)
	r.reps[0].Advance(time.Second)
	r.reps[1].Advance(time.Second)
	r.submit(50*ms, 9)
	// Shard 1's first reply (sent at 60 ms) is cut off; the link is back for
	// the re-drive at 150 ms.
	r.net.Sim().At(55*ms, func() { r.net.BlockPair(r.nodes[1].ID(), r.cn.ID()) })
	r.net.Sim().At(100*ms, func() { r.net.UnblockPair(r.nodes[1].ID(), r.cn.ID()) })
	r.net.Sim().Run(240 * ms)

	res := r.one(t)
	if r.reqs != 3 || r.replies != 2 {
		t.Errorf("%d requests and %d replies delivered, want 3 (one re-driven) and 2 (one lost)", r.reqs, r.replies)
	}
	if res.Retries != 1 || res.Waited != 0 {
		t.Errorf("Retries=%d Waited=%v, want 1, 0", res.Retries, res.Waited)
	}
	allHome(t, r.msgs, 0, 1)
}

// TestReadRoundAllocatesPerReadOnly pins the steady state of one
// Submit→OnRep round: the pending read, its timer body, the result's PerShard
// and its Reads — nothing per key and nothing per message, so a read of
// three shards costs what a read of one does.
func TestReadRoundAllocatesPerReadOnly(t *testing.T) {
	round := func(shards int) float64 {
		r := newPairRig(shards)
		for _, rep := range r.reps {
			rep.Advance(time.Hour)
		}
		tx := readTxn(shards)
		done := func(txn.Result) { r.results = r.results[:0] }
		seq := uint64(0)
		sim := r.net.Sim()
		return testing.AllocsPerRun(50, func() {
			seq++
			tx.ID = txn.ID{Coord: 1, Seq: seq}
			r.co.Submit(tx, done)
			sim.Run(sim.Now() + 30*ms)
		})
	}
	one, three := round(1), round(3)
	t.Logf("allocations per read: %.0f over one shard, %.0f over three", one, three)
	if three > 4 {
		t.Errorf("a 3-shard read allocates %.0f objects, want at most 4 (pending read, timer body, Reads, PerShard)", three)
	}
	if one != three {
		t.Errorf("a 1-shard read allocates %.0f objects and a 3-shard read %.0f: something is allocated per key or per message", one, three)
	}
}
