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
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// Req asks one replica of a shard for the values of Keys at snapshot
// timestamp At. (Coord, Seq) identify the read-only transaction; Seq is the
// coordinator's own sequence, so replies can be matched to the pending read.
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
// the old one.
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

// ---- coordinator half ----

// pendingRead tracks one outstanding read-only transaction: one snapshot
// request per involved shard, each sent to that shard's nearest replica.
type pendingRead struct {
	t       *txn.Txn
	at      time.Duration // snapshot timestamp
	done    func(txn.Result)
	got     map[int]bool // shards answered (dedups retried replies)
	vals    map[int][]byte
	waited  time.Duration // max SAFETIME delay across shards
	reads   []txn.ReadObs
	retries int
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

	reads   map[uint64]*pendingRead // by t.ID.Seq
	nearest map[int]int             // shard -> cached lowest-RTT replica
}

// Submit serves t (read-only, t.ID already minted) at one snapshot timestamp
// across all its shards. With Staleness 0 the read is strong — the serving
// replicas block until their watermarks cover "now"; a positive bound trades
// that wait for bounded staleness.
func (c *Coordinator) Submit(t *txn.Txn, done func(txn.Result)) {
	if c.reads == nil {
		c.reads = make(map[uint64]*pendingRead)
		c.nearest = make(map[int]int)
	}
	pr := &pendingRead{t: t, at: c.snapshot(), done: done, got: make(map[int]bool)}
	c.reads[t.ID.Seq] = pr
	c.send(pr)
	c.armRetry(pr)
}

func (c *Coordinator) snapshot() time.Duration { return max(c.Clock()-c.Staleness, 0) }

// send asks every shard that has not answered pr's current snapshot.
func (c *Coordinator) send(pr *pendingRead) {
	for _, sh := range pr.t.Shards() {
		if pr.got[sh] {
			continue
		}
		piece := pr.t.Pieces[sh]
		c.Node.Send(c.Replica(sh, c.nearestReplica(sh)), Req{Shard: sh, Coord: pr.t.ID.Coord, Seq: pr.t.ID.Seq,
			At: pr.at, Keys: piece.ReadSet, KeyIDs: piece.ReadIDs})
	}
}

func (c *Coordinator) armRetry(pr *pendingRead) {
	seq := pr.t.ID.Seq
	c.Node.After(c.RetryEvery, func() {
		if c.reads[seq] != pr {
			return
		}
		c.retry(pr)
		c.armRetry(pr)
	})
}

func (c *Coordinator) retry(pr *pendingRead) {
	pr.retries++
	pr.t.Trace.Mark(c.Net.Sim().Now(), trace.PhaseRetry)
	c.send(pr)
}

// OnRep folds one shard's answer into its pending read and completes the
// transaction when every shard has answered the same snapshot.
func (c *Coordinator) OnRep(m Rep) {
	pr, ok := c.reads[m.Seq]
	if !ok || m.At != pr.at || pr.got[m.Shard] {
		return
	}
	if m.Pruned {
		// One replica can no longer answer at pr.at, so the snapshot is dead
		// on every shard: start over at a fresh one (delay, never lie).
		pr.at = c.snapshot()
		clear(pr.got)
		clear(pr.vals)
		pr.reads, pr.waited = pr.reads[:0], 0
		c.retry(pr)
		return
	}
	pr.got[m.Shard] = true
	if m.Waited > pr.waited {
		pr.waited = m.Waited
	}
	keys := pr.t.Pieces[m.Shard].ReadSet
	for i := range keys {
		if i < len(m.Seen) {
			pr.reads = append(pr.reads, txn.ReadObs{Key: keys[i], TS: m.Seen[i]})
		}
	}
	if pr.vals == nil {
		pr.vals = make(map[int][]byte, len(pr.t.Pieces))
	}
	if len(m.Vals) > 0 {
		pr.vals[m.Shard] = m.Vals[0]
	}
	if len(pr.got) < len(pr.t.Pieces) {
		return
	}
	delete(c.reads, m.Seq)
	// The decisive reply is this one — it completed the read. Its stamps
	// split the round trip into flight out, SAFETIME wait at the replica
	// (watermark lag, including the serve cost), and flight back.
	if tr := pr.t.Trace; tr != nil {
		tr.Mark(m.ArriveS, trace.PhaseFlight)
		tr.Mark(m.ServedS, trace.PhaseSafeTime)
		tr.Mark(c.Net.Sim().Now(), trace.PhaseFlight)
	}
	pr.done(txn.Result{
		OK: true, FastPath: true, Retries: pr.retries, PerShard: pr.vals,
		SnapshotAt: pr.at, Waited: pr.waited, Reads: pr.reads,
	})
}

// nearestReplica picks (and caches) the lowest-RTT replica of a shard from
// this coordinator's region, using the network's base delays — the same
// ground truth OWD probes converge to.
func (c *Coordinator) nearestReplica(sh int) int {
	rep, ok := c.nearest[sh]
	if !ok {
		rep = Nearest(c.Net, c.Node.Region(), c.Replicas, func(rep int) simnet.Region {
			return c.Net.Node(c.Replica(sh, rep)).Region()
		})
		c.nearest[sh] = rep
	}
	return rep
}

// Nearest picks the replica with the smallest round-trip estimate from a
// coordinator's region, preferring the lowest index on ties — replica
// placement maps indices to regions, so on the paper topologies this is the
// same-region replica whenever one exists.
func Nearest(net *simnet.Network, from simnet.Region, replicas int, regionOf func(replica int) simnet.Region) int {
	best, bestRTT := 0, time.Duration(-1)
	for r := 0; r < replicas; r++ {
		reg := regionOf(r)
		rtt := net.BaseOWD(from, reg) + net.BaseOWD(reg, from)
		if bestRTT < 0 || rtt < bestRTT {
			best, bestRTT = r, rtt
		}
	}
	return best
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
		r.waiters.Flush(r.safeTime+r.safeLie, r.Sim.Now())
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
// reports whether the read had to queue.
func (r *Replica) OnReq(from simnet.NodeID, m Req) (queued bool) {
	arriveS := r.Sim.Now()
	if m.At <= r.safeTime+r.safeLie {
		r.serve(from, m, 0, arriveS)
		return false
	}
	r.waiters.Add(m.At, arriveS, func(waited time.Duration) {
		r.serve(from, m, waited, arriveS)
	})
	return true
}

func (r *Replica) serve(to simnet.NodeID, m Req, waited, arriveS time.Duration) {
	if m.At < r.gcHorizon {
		r.Node.Send(to, Rep{Shard: r.Shard, Seq: m.Seq, At: m.At, Pruned: true})
		return
	}
	r.Node.Work(r.ExecCost)
	vals := make([][]byte, len(m.Keys))
	seen := make([]txn.Timestamp, len(m.Keys))
	for i, id := range r.Store.IDs(m.Keys, m.KeyIDs) {
		vals[i], seen[i], _ = r.Store.GetAtID(id, m.At)
	}
	r.Node.Send(to, Rep{Shard: r.Shard, Seq: m.Seq, At: m.At, Vals: vals, Seen: seen, Waited: waited,
		ArriveS: arriveS, ServedS: r.Node.Busy()})
}

type waiter struct {
	at    time.Duration
	since time.Duration
	serve func(waited time.Duration)
}

// Waiters queues snapshot reads whose timestamp is ahead of the replica's
// watermark. Flush releases, in (snapshot, arrival) order, every read the
// advancing watermark now covers — a deterministic order, so the replies it
// sends keep the simulation reproducible.
type Waiters struct {
	ws []waiter
}

// Add enqueues a read blocked until the watermark reaches at; now is the
// enqueue time. When the watermark gets there, serve is called with the
// SAFETIME delay the read spent queued.
func (w *Waiters) Add(at, now time.Duration, serve func(waited time.Duration)) {
	// Insert sorted by snapshot with arrival order breaking ties: the
	// queue is short and mostly append-ordered, snapshots grow with time.
	i := len(w.ws)
	for i > 0 && w.ws[i-1].at > at {
		i--
	}
	w.ws = append(w.ws, waiter{})
	copy(w.ws[i+1:], w.ws[i:])
	w.ws[i] = waiter{at: at, since: now, serve: serve}
}

// Flush serves every queued read with snapshot <= watermark, in queue
// order, charging each the simulated time it waited.
func (w *Waiters) Flush(watermark, now time.Duration) {
	n := 0
	for n < len(w.ws) && w.ws[n].at <= watermark {
		n++
	}
	if n == 0 {
		return
	}
	ready := append([]waiter(nil), w.ws[:n]...)
	w.ws = w.ws[:copy(w.ws, w.ws[n:])]
	for i := range ready {
		ready[i].serve(now - ready[i].since)
	}
}

// Len reports how many reads are currently blocked.
func (w *Waiters) Len() int { return len(w.ws) }
