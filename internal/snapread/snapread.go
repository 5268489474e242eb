// Package snapread is the protocol-independent local snapshot-read path: the
// wire messages a coordinator exchanges with the nearest replica of each
// shard, the coordinator half that drives one read-only transaction to a
// txn.Result (Coordinator), and the replica half that holds the safe-time
// watermark, the reads waiting behind it and the version-GC horizon
// (Replica). A protocol keeps only what is its own: which clock mints the
// snapshot timestamp, how often a coordinator re-drives, the rule by which
// its shard leader advances the watermark, and the messages that carry
// (watermark, applied prefix, GC horizon) triples to the followers.
//
// The rule every implementing protocol must uphold: a replica answers a
// read at snapshot timestamp At only once its monotonic safe-time watermark
// W satisfies At <= W, where W promises that every transaction that will
// ever commit at this replica with timestamp <= W is already applied. A
// lagging replica therefore delays a read (it queues in Waiters) but never
// lies; the checker validates the returned version timestamps against the
// global commit history.
package snapread

import (
	"slices"
	"time"

	"tiga/internal/pool"
	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// Knobs is the knob schema fragment of the local-read path. A protocol that
// implements protocol.SnapshotReadable appends it to its own schema, so the
// three knobs have one name, default and doc across protocols.
var Knobs = protocol.Schema{
	{Name: "local-reads", Type: protocol.KnobBool, Default: false,
		Doc: "serve read-only transactions from the nearest replica at 0 WRTT, gated by per-replica safe-time watermarks"},
	{Name: "read-staleness", Type: protocol.KnobDuration, Default: time.Duration(0),
		Doc: "snapshot age for local reads: 0 = strong reads that wait out watermark lag; positive bounds trade staleness for near-zero waits"},
	{Name: "version-gc", Type: protocol.KnobBool, Default: false,
		Doc: "with local-reads: prune committed version history below the min replica watermark − read-staleness, piggybacked on the safe-time tick"},
}

// Req asks one replica of a shard for the values of Keys at snapshot
// timestamp At. (Coord, Seq) identify the read-only transaction; Seq is the
// coordinator's own sequence, so replies can be matched to the pending read.
// A Req travels by pointer and comes from the cluster's Msgs.
type Req struct {
	Shard int
	Coord int32
	Seq   uint64
	At    time.Duration
	Keys  []string
	// KeyIDs is what the transaction's piece knows of the ids of Keys (its
	// ReadIDs): the replica's store fills in the rest by name (store.IDs), and
	// hashes no key string when there is nothing to fill in.
	KeyIDs []txn.KeyID
}

// Rep carries one shard's answer: values and observed commit timestamps
// aligned with Req.Keys, plus how long the read waited behind the replica's
// watermark (zero when served immediately). At echoes Req.At, so a
// coordinator that restarted the read at a fresh snapshot drops answers to
// the old one. A Rep travels by pointer and comes from the cluster's Msgs; Vals
// and Seen keep their capacity from one use to the next.
type Rep struct {
	Shard int
	Seq   uint64
	At    time.Duration
	// Pruned means the replica's version GC has already passed At: it holds
	// no trustworthy history there, so it answers nothing and the
	// coordinator restarts the read at a fresh snapshot.
	Pruned bool
	Vals   [][]byte
	Seen   []txn.Timestamp
	Waited time.Duration
	// Span stamps (internal/trace), in sim time: ArriveS = request arrival
	// at the replica, ServedS = the moment the read was actually served
	// (after any SAFETIME wait). The coordinator turns them into flight /
	// safetime marks on the transaction's trace. Zero on untraced runs'
	// decisive paths is harmless: the breakdown walk clamps stale stamps.
	ArriveS, ServedS time.Duration
}

// Msgs holds one cluster's snapshot-read message freelists, shared by its
// Coordinators and Replicas (see pool.Free for the lifecycle rules). Both
// messages are unicast and the receiving half recycles them: a Replica puts a
// Req back once it has served it — at once, or when the watermark releases it
// from the queue; a Coordinator puts a Rep back at the end of OnRep, having
// copied out what the result keeps. A message that is dropped — by the
// network, or by a protocol that does not hand it to OnReq (a replica mid view
// change) — is never put back; the garbage collector has it.
type Msgs struct {
	Req *pool.Free[Req]
	Rep *pool.Free[Rep]
}

// NewMsgs returns empty freelists.
func NewMsgs() *Msgs { return &Msgs{Req: pool.New[Req](), Rep: pool.New[Rep]()} }

// ---- coordinator half ----

// pendingRead tracks one outstanding read-only transaction: one snapshot
// request per involved shard, each sent to that shard's nearest replica. It is
// drawn from the coordinator's freelist at Submit and recycled when the read
// completes; vals and reads are carved afresh for every read, since the
// result hands them on.
type pendingRead struct {
	t    *txn.Txn
	at   time.Duration // snapshot timestamp
	done func(txn.Result)
	// got marks the shards that answered the current snapshot, by position in
	// t.Pieces like vals (dedups retried replies). Its storage is the
	// record's, reused from one read to the next.
	got     []bool
	vals    []txn.ShardRet
	waited  time.Duration // max SAFETIME delay across shards
	reads   []txn.ReadObs
	retries int
	// gen gates the re-drive timer (AfterGate): the read's completion bumps
	// it, so a timer armed for a completed read never runs on the record's
	// next one. redrive is the timer's body, bound at the record's first use
	// and re-armed every RetryEvery.
	gen     uint64
	redrive func()
}

// restart forgets every answer: the read starts over at snapshot at.
func (pr *pendingRead) restart(at time.Duration) {
	pr.at = at
	clear(pr.got)
	for i := range pr.vals {
		pr.vals[i].Ret = nil
	}
	pr.reads, pr.waited = pr.reads[:0], 0
}

// Coordinator drives read-only transactions from one protocol coordinator:
// it fans a snapshot request out to the nearest replica of every shard the
// transaction touches, folds the replies, re-drives unanswered shards every
// RetryEvery, and assembles the txn.Result. The owning protocol fills the
// exported fields once, mints t.ID, calls Submit, and routes every Rep its
// node receives to OnRep.
type Coordinator struct {
	Node *simnet.Node
	Net  *simnet.Network
	// Clock mints snapshot timestamps, in whatever time domain the
	// protocol's watermarks live in; reads are issued at Clock() - Staleness.
	Clock     func() time.Duration
	Staleness time.Duration
	// RetryEvery re-drives unanswered requests: a read to a partitioned or
	// crashed replica is delayed until the fault heals, never answered
	// wrongly and never silently lost.
	RetryEvery time.Duration
	// Replicas is the replica count per shard and Replica their node ids.
	Replicas int
	Replica  func(shard, replica int) simnet.NodeID
	// Msgs is the cluster's message freelists.
	Msgs *Msgs

	reads   map[uint64]*pendingRead // by t.ID.Seq
	nearest map[int]int             // shard -> cached lowest-RTT replica
	// free recycles the pending reads; vals and obs hold the results'
	// PerShard and Reads, which the callers keep.
	free *pool.Free[pendingRead]
	vals pool.Arena[txn.ShardRet]
	obs  pool.Arena[txn.ReadObs]
}

// Submit serves t (read-only, t.ID already minted) at one snapshot timestamp
// across all its shards. With Staleness 0 the read is strong — the serving
// replicas block until their watermarks cover "now"; a positive bound trades
// that wait for bounded staleness.
func (c *Coordinator) Submit(t *txn.Txn, done func(txn.Result)) {
	if c.reads == nil {
		c.reads = make(map[uint64]*pendingRead)
		c.nearest = make(map[int]int)
		c.free = pool.New[pendingRead]()
	}
	n, keys := len(t.Pieces), 0
	for i := range t.Pieces {
		keys += len(t.Pieces[i].ReadSet)
	}
	pr := c.free.Get()
	pr.t, pr.done, pr.retries = t, done, 0
	pr.vals, pr.reads = c.vals.Carve(n), c.obs.Carve(keys)
	for i := range t.Pieces {
		pr.vals[i].Shard = t.Pieces[i].Shard()
	}
	pr.got = slices.Grow(pr.got[:0], n)[:n]
	pr.restart(c.snapshot())
	if pr.redrive == nil {
		pr.redrive = func() {
			c.retry(pr)
			c.Node.AfterGate(c.RetryEvery, &pr.gen, pr.gen, pr.redrive)
		}
	}
	c.reads[t.ID.Seq] = pr
	c.send(pr)
	c.Node.AfterGate(c.RetryEvery, &pr.gen, pr.gen, pr.redrive)
}

func (c *Coordinator) snapshot() time.Duration { return max(c.Clock()-c.Staleness, 0) }

// send asks every shard that has not answered pr's current snapshot.
func (c *Coordinator) send(pr *pendingRead) {
	for i := range pr.t.Pieces {
		if pr.got[i] {
			continue
		}
		piece := &pr.t.Pieces[i]
		sh := piece.Shard()
		m := c.Msgs.Req.Get()
		*m = Req{Shard: sh, Coord: pr.t.ID.Coord, Seq: pr.t.ID.Seq,
			At: pr.at, Keys: piece.ReadSet, KeyIDs: piece.ReadIDs}
		c.Node.Send(c.Replica(sh, c.nearestReplica(sh)), m)
	}
}

func (c *Coordinator) retry(pr *pendingRead) {
	pr.retries++
	pr.t.Trace.Mark(c.Net.Sim().Now(), trace.PhaseRetry)
	c.send(pr)
}

// OnRep folds one shard's answer into its pending read, completes the
// transaction when every shard has answered the same snapshot, and recycles m.
func (c *Coordinator) OnRep(m *Rep) {
	c.fold(m)
	c.Msgs.Rep.Put(m)
}

func (c *Coordinator) fold(m *Rep) {
	pr, ok := c.reads[m.Seq]
	if !ok || m.At != pr.at {
		return
	}
	i := pr.t.Pos(m.Shard)
	if i < 0 || pr.got[i] {
		return
	}
	if m.Pruned {
		// One replica can no longer answer at pr.at, so the snapshot is dead
		// on every shard: start over at a fresh one (delay, never lie).
		pr.restart(c.snapshot())
		c.retry(pr)
		return
	}
	pr.got[i] = true
	if m.Waited > pr.waited {
		pr.waited = m.Waited
	}
	keys := pr.t.Pieces[i].ReadSet
	for k := range keys {
		if k < len(m.Seen) {
			pr.reads = append(pr.reads, txn.ReadObs{Key: keys[k], TS: m.Seen[k]})
		}
	}
	if len(m.Vals) > 0 {
		pr.vals[i].Ret = m.Vals[0]
	}
	if slices.Contains(pr.got, false) {
		return
	}
	delete(c.reads, m.Seq)
	pr.gen++
	// The decisive reply is this one — it completed the read. Its stamps
	// split the round trip into flight out, SAFETIME wait at the replica
	// (watermark lag, including the serve cost), and flight back.
	if tr := pr.t.Trace; tr != nil {
		tr.Mark(m.ArriveS, trace.PhaseFlight)
		tr.Mark(m.ServedS, trace.PhaseSafeTime)
		tr.Mark(c.Net.Sim().Now(), trace.PhaseFlight)
	}
	res := txn.Result{
		OK: true, FastPath: true, Retries: pr.retries, PerShard: pr.vals,
		SnapshotAt: pr.at, Waited: pr.waited, Reads: pr.reads,
	}
	// Recycle before the callback, which may Submit the next read: an idle
	// record holds on to no transaction, callback or result.
	done := pr.done
	pr.t, pr.done, pr.vals, pr.reads = nil, nil, nil, nil
	c.free.Put(pr)
	done(res)
}

// nearestReplica picks (and caches) the lowest-RTT replica of a shard from
// this coordinator's region, using the network's base delays — the same
// ground truth OWD probes converge to.
func (c *Coordinator) nearestReplica(sh int) int {
	rep, ok := c.nearest[sh]
	if !ok {
		rep = simnet.Nearest(c.Net, c.Node.Region(), c.Replicas, func(rep int) simnet.Region {
			return c.Net.Node(c.Replica(sh, rep)).Region()
		})
		c.nearest[sh] = rep
	}
	return rep
}

// ---- replica half ----

// Pair is what a shard leader publishes to its followers: watermark W is
// valid once the first N entries of the shard's replicated order are
// applied, and GC is the leader's version-GC horizon (zero while it keeps
// full history).
type Pair struct {
	W  time.Duration
	N  int
	GC time.Duration
}

// gcSlack is the fixed margin subtracted from the version-GC horizon on top
// of the read-staleness bound. It is a retention window, not a safety
// argument: a read is only pruned from under its snapshot when it is still
// unanswered more than gcSlack after every replica's watermark passed it,
// which takes a lost request or reply and a re-drive (coordinators re-drive
// the same snapshot without bound). Safety is the Pruned reply — a replica
// never serves below its own horizon. See EXPERIMENTS.md deviations.
const gcSlack = time.Second

// Replica is one replica's read-serving state. The owning protocol fills the
// exported fields, feeds the watermark — Advance from its leader rule, Offer
// and Applied on followers — and routes every Req to OnReq.
type Replica struct {
	Node *simnet.Node
	Sim  *simnet.Sim
	// Store is the replica's multi-version store; the protocol re-points it
	// if it ever rebuilds the store.
	Store *store.Store
	// Shard stamps replies; Self and Replicas tell a leader whose watermark
	// reports its GC horizon has to wait for.
	Shard, Self, Replicas int
	ExecCost              time.Duration // CPU charged per served read
	Staleness             time.Duration // the coordinators' staleness bound
	// Msgs is the cluster's message freelists.
	Msgs *Msgs

	safeTime  time.Duration // monotonic safe-time watermark
	safeLie   time.Duration // test hook: fault-injected watermark inflation
	pairs     []Pair        // follower: pairs awaiting applied >= N
	waiters   Waiters       // reads blocked behind the watermark
	followerW map[int]time.Duration
	gcHorizon time.Duration // monotonic; Store is pruned to it
}

// Watermark returns the replica's current safe time.
func (r *Replica) Watermark() time.Duration { return r.safeTime }

// GCHorizon returns the horizon the replica's store was last pruned to.
func (r *Replica) GCHorizon() time.Duration { return r.gcHorizon }

// Lie inflates the served watermark by ahead without moving the real one — a
// fault-injection hook that makes the replica answer reads it cannot yet
// cover, which the snapshot-read checker must catch (tests only).
func (r *Replica) Lie(ahead time.Duration) { r.safeLie = ahead }

// Advance moves the watermark forward to w — never backward — and serves the
// reads it now covers.
func (r *Replica) Advance(w time.Duration) {
	if w > r.safeTime {
		r.safeTime = w
		r.flush()
	}
}

func (r *Replica) flush() {
	if r.waiters.Len() > 0 {
		r.waiters.Flush(r.safeTime+r.safeLie, r.Sim.Now(), r.serve)
	}
}

// Offer hands a follower a leader-published pair: adopted at once when the
// first applied entries already cover p.N, buffered until Applied otherwise.
func (r *Replica) Offer(p Pair, applied int) {
	if applied < p.N {
		r.pairs = append(r.pairs, p)
		return
	}
	r.Advance(p.W)
	r.pruneTo(p.GC)
}

// Applied adopts every buffered pair whose prefix the follower has now
// applied; call it whenever the applied prefix grows.
func (r *Replica) Applied(applied int) {
	if len(r.pairs) == 0 {
		return
	}
	keep := r.pairs[:0]
	w, gc := r.safeTime, time.Duration(0)
	for _, p := range r.pairs {
		if applied < p.N {
			keep = append(keep, p)
			continue
		}
		w, gc = max(w, p.W), max(gc, p.GC)
	}
	r.pairs = keep
	r.Advance(w)
	r.pruneTo(gc)
}

// Report records a follower's watermark at the leader (monotonic).
func (r *Replica) Report(replica int, w time.Duration) {
	if w > r.followerW[replica] {
		if r.followerW == nil {
			r.followerW = make(map[int]time.Duration)
		}
		r.followerW[replica] = w
	}
}

// AdvanceGC recomputes the leader's version-GC horizon: the minimum
// watermark across all replicas minus the staleness bound and gcSlack, and
// prunes the store to it. PruneTo keeps the newest committed version at or
// below the horizon, so GetAtID at or above it is invariant under the prune.
// Until every follower has reported there is no safe horizon and the leader
// keeps full history.
func (r *Replica) AdvanceGC() {
	h := r.safeTime
	for rep := 0; rep < r.Replicas; rep++ {
		if rep == r.Self {
			continue
		}
		w, ok := r.followerW[rep]
		if !ok {
			return
		}
		h = min(h, w)
	}
	r.pruneTo(h - r.Staleness - gcSlack)
}

func (r *Replica) pruneTo(gc time.Duration) {
	if gc > r.gcHorizon {
		r.gcHorizon = gc
		r.Store.PruneTo(gc)
	}
}

// OnReq serves a snapshot read: immediately when the watermark already
// covers the requested snapshot, otherwise after the SAFETIME delay. It
// reports whether the read had to queue. The replica owns m from here on: a
// queued read keeps it until it is served.
func (r *Replica) OnReq(from simnet.NodeID, m *Req) (queued bool) {
	arriveS := r.Sim.Now()
	if m.At <= r.safeTime+r.safeLie {
		r.serve(from, m, 0, arriveS)
		return false
	}
	r.waiters.Add(from, m, arriveS)
	return true
}

// serve answers m, which arrived at arriveS and waited behind the watermark
// for waited, and recycles it.
func (r *Replica) serve(to simnet.NodeID, m *Req, waited, arriveS time.Duration) {
	rep := r.Msgs.Rep.Get()
	*rep = Rep{Shard: r.Shard, Seq: m.Seq, At: m.At, Vals: rep.Vals[:0], Seen: rep.Seen[:0]}
	if m.At < r.gcHorizon {
		rep.Pruned = true
	} else {
		r.Node.Work(r.ExecCost)
		for i := range m.Keys {
			val, seen, _ := r.Store.GetAtID(r.Store.ID(m.Keys, m.KeyIDs, i), m.At)
			rep.Vals, rep.Seen = append(rep.Vals, val), append(rep.Seen, seen)
		}
		rep.Waited, rep.ArriveS, rep.ServedS = waited, arriveS, r.Node.Busy()
	}
	r.Msgs.Req.Put(m)
	r.Node.Send(to, rep)
}

// waiter is one queued read: the request, who sent it and when it arrived.
type waiter struct {
	from  simnet.NodeID
	req   *Req
	since time.Duration
}

// Waiters queues snapshot reads whose timestamp is ahead of the replica's
// watermark. Flush releases, in (snapshot, arrival) order, every read the
// advancing watermark now covers — a deterministic order, so the replies it
// sends keep the simulation reproducible.
type Waiters struct {
	ws    []waiter
	ready []waiter // Flush's scratch: the reads being released
}

// Add enqueues m, from from, blocked until the watermark reaches m.At; now is
// the enqueue time.
func (w *Waiters) Add(from simnet.NodeID, m *Req, now time.Duration) {
	// Insert sorted by snapshot with arrival order breaking ties: the
	// queue is short and mostly append-ordered, snapshots grow with time.
	i := len(w.ws)
	for i > 0 && w.ws[i-1].req.At > m.At {
		i--
	}
	w.ws = append(w.ws, waiter{})
	copy(w.ws[i+1:], w.ws[i:])
	w.ws[i] = waiter{from: from, req: m, since: now}
}

// Flush hands serve every queued read with snapshot <= watermark, in queue
// order, with the simulated time it waited and its arrival time. The released
// reads have left the queue before the first is served, so serve may Add; it
// must not Flush.
func (w *Waiters) Flush(watermark, now time.Duration, serve func(to simnet.NodeID, m *Req, waited, since time.Duration)) {
	n := 0
	for n < len(w.ws) && w.ws[n].req.At <= watermark {
		n++
	}
	if n == 0 {
		return
	}
	w.ready = append(w.ready[:0], w.ws[:n]...)
	rest := copy(w.ws, w.ws[n:])
	clear(w.ws[rest:]) // the vacated tail must not pin released requests
	w.ws = w.ws[:rest]
	for _, r := range w.ready {
		serve(r.from, r.req, now-r.since, r.since)
	}
}

// Len reports how many reads are currently blocked.
func (w *Waiters) Len() int { return len(w.ws) }
