package tiga

import (
	"cmp"
	"slices"
	"time"

	"tiga/internal/admit"
	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// pendingTxn tracks one outstanding transaction at the coordinator. It is
// drawn from the coordinator's freelist at launch and recycled at finish, so
// the reply arrays are reused across transactions: fast/slow hold the newest
// reply per (involved shard, replica), indexed t.Pos(shard)*replicas+replica,
// with the parallel set flags distinguishing "no reply yet" from a zero one.
type pendingTxn struct {
	t       *txn.Txn
	ts      txn.Timestamp
	done    func(txn.Result)
	retries int
	fast    []fastReply
	fastSet []bool
	slow    []slowReply
	slowSet []bool
	// gen gates the retry timer (AfterGate): finish bumps it, so a timer
	// armed for a finished transaction never runs on the record's next one.
	// retry is the timer's body, bound at the record's first arm.
	gen   uint64
	retry func()
}

// Coordinator submits transactions per §3.1 (future-timestamp initialization)
// and §3.4/§3.7 (fast/slow quorum checks, Algorithm 3). Coordinators are
// stateless with respect to the servers: any coordinator can recover another's
// transaction, and a rebooted coordinator just refetches the view.
type Coordinator struct {
	cfg     Config
	cluster *Cluster
	node    *simnet.Node
	clock   clocks.Clock

	idx int32 // coordinator id; txn.ID.Coord
	seq uint64

	view globalView

	// owd holds the EWMA one-way-delay estimate per server node, measured
	// with the synchronized clocks (§3.1). Clock error feeds directly into
	// these estimates, which is how bad clocks hurt Tiga's latency (§5.7).
	owd map[simnet.NodeID]time.Duration

	pending map[txn.ID]*pendingTxn
	// launched holds the sequence numbers of launched transactions in launch
	// order from launched[head] on, the oldest one still pending first: it is
	// the done watermark every multicast carries (txnMsg.Done). finish pops
	// what is no longer pending; the slice is compacted in place.
	launched []uint64
	head     int

	// reads drives local snapshot reads (Config.LocalReads, snapreads.go).
	reads snapread.Coordinator

	// gate is the admission-control gate (Config.AdmitCap etc.); disabled
	// by default, it passes submissions straight through.
	gate admit.Gate

	// launchFn is launch, bound once: the gate's launch callback.
	launchFn func(*txn.Txn, func(txn.Result))

	// ptPool recycles pendingTxn envelopes (launch -> finish lifecycle, all
	// on this coordinator), and rets holds the committed results' PerShard,
	// which the callers keep. The scratch slices below back headroom's OWD
	// sort, pendingInOrder's deterministic ordering, and inquireSlow's
	// involved-shard set — per-call allocations otherwise.
	ptPool     *pool.Free[pendingTxn]
	rets       pool.Arena[txn.ShardRet]
	owdScratch []time.Duration
	idScratch  []txn.ID
	shardSeen  []bool

	// Retries counts protocol-level re-submissions (stats for the harness).
	Retries int64
}

func newCoordinator(c *Cluster, idx int32, node *simnet.Node, clk clocks.Clock) *Coordinator {
	co := &Coordinator{
		cfg: c.Cfg, cluster: c, node: node, clock: clk, idx: idx,
		view:    c.initial.copy(),
		owd:     make(map[simnet.NodeID]time.Duration),
		pending: make(map[txn.ID]*pendingTxn),
		ptPool:  pool.New[pendingTxn](),
	}
	co.launchFn = co.launch
	co.gate = admit.Gate{
		Cap: c.Cfg.AdmitCap, Queue: c.Cfg.AdmitQueue,
		Now: func() time.Duration { return c.Net.Sim().Now() },
	}
	co.reads = snapread.Coordinator{
		Node: node, Net: c.Net,
		Clock: co.now, Staleness: c.Cfg.ReadStaleness, RetryEvery: c.Cfg.RetryTimeout,
		Replicas: c.Cfg.Replicas(), Replica: c.serverNode, Msgs: c.msgs.reads,
	}
	node.SetHandler(co.handle)
	return co
}

// Node returns the coordinator's simnet node.
func (co *Coordinator) Node() *simnet.Node { return co.node }

func (co *Coordinator) now() time.Duration { return co.clock.Read(co.cluster.Net.Sim().Now()) }

// start probes every server to seed the OWD estimates.
func (co *Coordinator) start() {
	for sh := 0; sh < co.cfg.Shards; sh++ {
		for rep := 0; rep < co.cfg.Replicas(); rep++ {
			n := co.cluster.serverNode(sh, rep)
			// Seed with the true base OWD so early transactions are sane;
			// probes and reply samples keep refining it.
			co.owd[n] = co.cluster.Net.BaseOWD(co.node.Region(), co.cluster.Net.Node(n).Region())
			co.node.Send(n, probeMsg{SendClock: co.now(), Coord: co.node.ID()})
		}
	}
	if co.cfg.BatchSlowReplies {
		co.node.Every(10*time.Millisecond, func() bool {
			co.inquireSlow()
			return true
		})
	}
}

func (co *Coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *fastReply:
		co.onFastReply(from, m)
		co.cluster.msgs.fastRep.Put(m)
	case *slowReply:
		co.onSlowReply(m)
		co.cluster.msgs.slowRep.Put(m)
	case slowInquiryRep:
		co.onSlowInquiryRep(from, m)
	case *snapread.Rep:
		co.reads.OnRep(m)
	case probeRep:
		co.updateOWD(from, m.OWD)
	case vmInfo:
		co.adoptView(m.globalView)
	case viewChangeReq:
		co.adoptView(m.globalView)
	}
}

func (co *Coordinator) updateOWD(n simnet.NodeID, sample time.Duration) {
	if sample < 0 {
		sample = 0
	}
	cur, ok := co.owd[n]
	if !ok {
		co.owd[n] = sample
		return
	}
	co.owd[n] = cur + (sample-cur)/4 // EWMA, α = 0.25
}

// headroom computes the future-timestamp headroom (§3.1): the maximum over
// involved shards of the super-quorum-th smallest OWD, plus Δ.
func (co *Coordinator) headroom(t *txn.Txn) time.Duration {
	if co.cfg.ZeroHeadroom {
		return 0
	}
	var h time.Duration
	for i := range t.Pieces {
		sh := t.Pieces[i].Shard()
		owds := co.owdScratch[:0]
		for rep := 0; rep < co.cfg.Replicas(); rep++ {
			owds = append(owds, co.owd[co.cluster.serverNode(sh, rep)])
		}
		co.owdScratch = owds
		// Super quorum of the closest replicas.
		for i := 1; i < len(owds); i++ {
			for j := i; j > 0 && owds[j] < owds[j-1]; j-- {
				owds[j], owds[j-1] = owds[j-1], owds[j]
			}
		}
		sq := co.cfg.SuperQuorum()
		if sq > len(owds) {
			sq = len(owds)
		}
		if d := owds[sq-1]; d > h {
			h = d
		}
	}
	h += co.cfg.Delta + co.cfg.HeadroomDelta
	if h < 0 {
		h = 0
	}
	return h
}

// Submit hands t to the admission gate; admitted transactions launch into
// the protocol via launch, queued ones wait for a slot, and overflow is shed
// with Result.Shed. With admission control off (the default) the gate is a
// straight pass-through.
func (co *Coordinator) Submit(t *txn.Txn, done func(txn.Result)) {
	co.gate.Submit(t, done, co.launchFn)
}

// launch multicasts t to every replica of its involved shards with a future
// timestamp and invokes done when the transaction commits.
func (co *Coordinator) launch(t *txn.Txn, done func(txn.Result)) {
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	p := co.ptPool.Get()
	p.t = t
	p.ts = txn.Timestamp{}
	p.done = done
	p.retries = 0
	n := len(t.Pieces) * co.cfg.Replicas()
	if cap(p.fast) < n {
		p.fast = make([]fastReply, n)
		p.fastSet = make([]bool, n)
		p.slow = make([]slowReply, n)
		p.slowSet = make([]bool, n)
	} else {
		p.fast = p.fast[:n]
		p.fastSet = p.fastSet[:n]
		p.slow = p.slow[:n]
		p.slowSet = p.slowSet[:n]
		clear(p.fast) // drop stale Ret references along with the flags
		clear(p.fastSet)
		clear(p.slow)
		clear(p.slowSet)
	}
	co.pending[t.ID] = p
	co.launched = append(co.launched, co.seq)
	co.multicast(p)
	co.armRetry(p)
}

func (co *Coordinator) multicast(p *pendingTxn) {
	p.t.Trace.Mark(co.cluster.Net.Sim().Now(), trace.PhaseDispatch)
	sendClock := co.now()
	// Retries carry a fresh, larger timestamp (Appendix B): servers
	// re-position the pending transaction to it, which re-converges the
	// leaders' queue orders when local timestamp bumps made them diverge.
	p.ts = txn.Timestamp{Time: sendClock + co.headroom(p.t), Coord: co.idx, Seq: p.t.ID.Seq}
	for i := range p.t.Pieces {
		sh := p.t.Pieces[i].Shard()
		for rep := 0; rep < co.cfg.Replicas(); rep++ {
			m := co.cluster.msgs.txn.Get()
			*m = txnMsg{T: p.t, TS: p.ts, SendClock: sendClock, Coord: co.node.ID(), GView: co.view.GView, Retry: p.retries, Done: co.launched[co.head]}
			co.node.Send(co.cluster.serverNode(sh, rep), m)
		}
	}
}

// armRetry arms p's retry timeout, which finish disarms.
func (co *Coordinator) armRetry(p *pendingTxn) {
	if p.retry == nil {
		p.retry = func() { co.retryTimedOut(p) }
	}
	co.node.AfterGate(co.cfg.RetryTimeout, &p.gen, p.gen, p.retry)
}

// retryTimedOut resubmits p, still pending a retry timeout after its last
// submission, and re-arms the timeout.
func (co *Coordinator) retryTimedOut(p *pendingTxn) {
	p.retries++
	co.Retries++
	// The wait that expired into this timeout is retry-attributed: the
	// mark advances the trace cursor, so stale stamps from the abandoned
	// attempt clamp to zero in the breakdown walk.
	p.t.Trace.Mark(co.cluster.Net.Sim().Now(), trace.PhaseRetry)
	// The view may have changed under us — refresh, then resubmit.
	co.node.Send(co.cluster.vmLeaderNode(), vmInquire{From: co.node.ID()})
	co.multicast(p)
	co.armRetry(p)
}

func (co *Coordinator) onFastReply(from simnet.NodeID, m *fastReply) {
	if m.GView > co.view.GView {
		co.node.Send(co.cluster.vmLeaderNode(), vmInquire{From: co.node.ID()})
		return
	}
	if m.GView != co.view.GView || m.LView != co.view.GVec[m.Shard] {
		return
	}
	p, ok := co.pending[m.ID]
	if !ok {
		return
	}
	if m.OWD > 0 {
		co.updateOWD(from, m.OWD)
	}
	if i := p.t.Pos(m.Shard); i >= 0 {
		j := i*co.cfg.Replicas() + m.Replica
		if p.fastSet[j] && m.TS.Less(p.fast[j].TS) {
			return // stale (a newer reply with a larger timestamp already arrived)
		}
		p.fast[j] = *m // copy: the message is recycled after return
		p.fast[j].RecvS = co.cluster.Net.Sim().Now()
		p.fastSet[j] = true
	}
	co.evaluate(p)
}

func (co *Coordinator) onSlowReply(m *slowReply) {
	if m.GView != co.view.GView || m.LView != co.view.GVec[m.Shard] {
		return
	}
	p, ok := co.pending[m.ID]
	if !ok {
		return
	}
	if i := p.t.Pos(m.Shard); i >= 0 {
		j := i*co.cfg.Replicas() + m.Replica
		if p.slowSet[j] && m.TS.Less(p.slow[j].TS) {
			return
		}
		p.slow[j] = *m
		p.slow[j].RecvS = co.cluster.Net.Sim().Now()
		p.slowSet[j] = true
	}
	co.evaluate(p)
}

// inquireSlow implements the Appendix E optimization: instead of per-entry
// slow replies, periodically ask followers for their sync-points.
func (co *Coordinator) inquireSlow() {
	if len(co.pending) == 0 {
		return
	}
	if co.shardSeen == nil {
		co.shardSeen = make([]bool, co.cfg.Shards)
	}
	for _, p := range co.pending {
		for i := range p.t.Pieces {
			co.shardSeen[p.t.Pieces[i].Shard()] = true
		}
	}
	// Deterministic send order: the simulation's event order follows it.
	for sh, seen := range co.shardSeen {
		if !seen {
			continue
		}
		co.shardSeen[sh] = false
		for rep := 0; rep < co.cfg.Replicas(); rep++ {
			if rep == co.view.GVec[sh]%co.cfg.Replicas() {
				continue
			}
			co.node.Send(co.cluster.serverNode(sh, rep), slowInquiry{Coord: co.node.ID()})
		}
	}
}

func (co *Coordinator) onSlowInquiryRep(from simnet.NodeID, m slowInquiryRep) {
	if m.GView != co.view.GView || m.LView != co.view.GVec[m.Shard] {
		return
	}
	// A follower whose sync-point passed the log position a pending
	// transaction was released at counts as a slow reply for it. A leader
	// reply without a position (executed, not yet released) vouches for none.
	R := co.cfg.Replicas()
	leaderRep := co.view.GVec[m.Shard] % R
	for _, p := range co.pending {
		i := p.t.Pos(m.Shard) // -1: the inquiry went to every pending shard, p may not touch this one
		if i < 0 || !p.fastSet[i*R+leaderRep] {
			continue
		}
		lf := &p.fast[i*R+leaderRep]
		if lf.LogPos < 0 || m.SyncPoint <= lf.LogPos {
			continue
		}
		j := i*R + m.Replica
		p.slow[j] = slowReply{viewInfo: m.viewInfo, Shard: m.Shard, Replica: m.Replica, ID: p.t.ID, TS: lf.TS,
			RecvS: co.cluster.Net.Sim().Now()}
		p.slowSet[j] = true
	}
	// Evaluate in submission order: completions run client callbacks and
	// sends, so map-iteration order here would diverge runs.
	for _, id := range co.pendingInOrder() {
		if p, ok := co.pending[id]; ok {
			co.evaluate(p)
		}
	}
}

// sortIDs orders transaction IDs deterministically by (Coord, Seq) — the
// canonical ordering every map-keyed scan must apply before its results feed
// message sends or callbacks, or whole simulation runs diverge.
func sortIDs(ids []txn.ID) { slices.SortFunc(ids, compareIDs) }

// compareIDs orders transaction ids by coordinator, then sequence number: the
// order every id-ordered walk that feeds a message send uses.
func compareIDs(a, b txn.ID) int {
	if c := cmp.Compare(a.Coord, b.Coord); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// pendingInOrder returns the pending transaction IDs in submission (sequence)
// order; all of a coordinator's IDs share its Coord component. The returned
// slice is coordinator-owned scratch, valid until the next call.
func (co *Coordinator) pendingInOrder() []txn.ID {
	ids := co.idScratch[:0]
	for id := range co.pending {
		ids = append(ids, id)
	}
	sortIDs(ids)
	co.idScratch = ids
	return ids
}

// evaluate runs Algorithm 3's quorum checks and completes the transaction
// when every involved shard fast- or slow-committed with a consistent
// leader timestamp. Evaluate runs on every reply, so the not-yet-committed
// paths allocate nothing: the result is only built once the transaction
// actually commits.
func (co *Coordinator) evaluate(p *pendingTxn) {
	var agreedTS txn.Timestamp
	fastPath := true
	mismatch := false
	R := co.cfg.Replicas()
	for i := range p.t.Pieces {
		leaderRep := co.view.GVec[p.t.Pieces[i].Shard()] % R
		if !p.fastSet[i*R+leaderRep] {
			return // no leader reply yet (line 15–16)
		}
		lf := &p.fast[i*R+leaderRep]
		fastQ := 1 // the leader
		slowQ := 0
		for rep := 0; rep < R; rep++ {
			if rep == leaderRep {
				continue
			}
			j := i*R + rep
			if p.fastSet[j] && p.fast[j].Hash == lf.Hash && p.fast[j].TS.Equal(lf.TS) {
				fastQ++
			}
			if p.slowSet[j] && p.slow[j].TS.Equal(lf.TS) {
				slowQ++
			}
		}
		if fastQ >= co.cfg.SuperQuorum() {
			// fast-committed on this shard
		} else if slowQ >= co.cfg.F {
			fastPath = false // slow-committed
		} else {
			return // not committed yet (line 26–27)
		}
		if agreedTS.IsZero() {
			agreedTS = lf.TS
		} else if !lf.TS.Equal(agreedTS) {
			mismatch = true
		}
	}
	// Leaders must all have used the same timestamp (line 28–32).
	if mismatch {
		if co.cfg.EpsilonBound > 0 {
			// Coordination-free mode has no agreement to converge the
			// timestamps; abort and let the application retry (§6).
			co.finish(p, txn.Result{Aborted: true, Retries: p.retries})
		}
		return
	}
	results := co.rets.Carve(len(p.t.Pieces))
	for i := range results {
		sh := p.t.Pieces[i].Shard()
		results[i] = txn.ShardRet{Shard: sh, Ret: p.fast[i*R+co.view.GVec[sh]%R].Ret}
	}
	co.traceCommitPath(p, fastPath)
	co.finish(p, txn.Result{OK: true, PerShard: results, FastPath: fastPath, Retries: p.retries, TS: agreedTS})
}

// traceCommitPath reconstructs the committing transaction's critical path
// from the span stamps its replies carried back, and marks it on the trace.
// The decisive reply is the latest-arriving fast reply — the last leg the
// coordinator actually waited for; its server-side stamps decompose the
// round trip into flight out, headroom wait, queue reorder, execution, and
// flight back. Slow-path commits additionally waited for follower sync
// acknowledgements, attributed to replication. Stamps older than the trace
// cursor (stale attempts superseded by a retry) clamp to zero in the
// breakdown walk, so the sum invariant holds unconditionally.
func (co *Coordinator) traceCommitPath(p *pendingTxn, fastPath bool) {
	tr := p.t.Trace
	if tr == nil {
		return
	}
	var dec *fastReply
	for j := range p.fast {
		if p.fastSet[j] && (dec == nil || p.fast[j].RecvS > dec.RecvS) {
			dec = &p.fast[j]
		}
	}
	if dec != nil {
		tr.Mark(dec.ArriveS, trace.PhaseFlight)
		tr.Mark(dec.EligS, trace.PhaseHeadroom)
		tr.Mark(dec.RelS, trace.PhasePQ)
		tr.Mark(dec.DoneS, trace.PhaseExec)
		tr.Mark(dec.RecvS, trace.PhaseFlight)
	}
	if !fastPath {
		var srecv time.Duration
		for j := range p.slow {
			if p.slowSet[j] && p.slow[j].RecvS > srecv {
				srecv = p.slow[j].RecvS
			}
		}
		tr.Mark(srecv, trace.PhaseRepl)
	}
	tr.Mark(co.cluster.Net.Sim().Now(), trace.PhaseDecision)
}

func (co *Coordinator) finish(p *pendingTxn, res txn.Result) {
	delete(co.pending, p.t.ID)
	p.gen++
	co.popDone()
	if p.done != nil {
		p.done(res)
	}
	// Recycle after the callback: done may synchronously submit the next
	// transaction (closed-loop clients), which draws from the same pool. An
	// idle record holds on to no transaction and no callback.
	p.t, p.done = nil, nil
	co.ptPool.Put(p)
}

// popDone advances the done watermark past the transactions that are no longer
// pending, each popped once, so amortised O(1) per finish. Once the popped
// prefix is half the slice it is copied down, which keeps launch free of
// allocations after warm-up.
func (co *Coordinator) popDone() {
	for co.head < len(co.launched) {
		if _, ok := co.pending[txn.ID{Coord: co.idx, Seq: co.launched[co.head]}]; ok {
			break
		}
		co.head++
	}
	if co.head > 0 && 2*co.head >= len(co.launched) {
		n := copy(co.launched, co.launched[co.head:])
		co.launched, co.head = co.launched[:n], 0
	}
}

func (co *Coordinator) adoptView(v globalView) {
	if v.GView <= co.view.GView {
		return
	}
	co.view = v.copy()
	// Replies gathered under the old view are useless; resubmit in the new
	// view (§4: "In case of a view change, the coordinator retries"), in
	// deterministic submission order.
	for _, id := range co.pendingInOrder() {
		p := co.pending[id]
		clear(p.fast)
		clear(p.fastSet)
		clear(p.slow)
		clear(p.slowSet)
		co.multicast(p)
	}
}
