package tiga

import (
	"time"

	"tiga/internal/admit"
	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// pendingTxn tracks one outstanding transaction at the coordinator: a record
// of the coordinator's coord.Table, reused across transactions. slots hold
// the newest replies per (involved shard, replica), indexed
// t.Pos(shard)*replicas+replica; the record keeps them across transactions
// (resetSlots).
type pendingTxn struct {
	coord.Attempt
	ts    txn.Timestamp
	slots []replySlot
}

// replySlot is one replica's newest fast and slow reply for one piece; the
// set flags distinguish "no reply yet" from a zero one.
type replySlot struct {
	fast             fastReply
	slow             slowReply
	fastSet, slowSet bool
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

	view globalView

	// owd holds the EWMA one-way-delay estimate per server node, measured
	// with the synchronized clocks (§3.1). Clock error feeds directly into
	// these estimates, which is how bad clocks hurt Tiga's latency (§5.7).
	owd map[simnet.NodeID]time.Duration

	// tab mints the ids (local reads' too), files the pending transactions
	// and arms their retry timeouts; its Oldest is the done watermark every
	// multicast carries (txnMsg.Done).
	tab *coord.Table[pendingTxn, *pendingTxn]

	// reads drives local snapshot reads (Config.LocalReads, snapreads.go).
	reads snapread.Coordinator

	// gate is the admission-control gate (Config.AdmitCap etc.); disabled
	// by default, it passes submissions straight through.
	gate admit.Gate

	// launchFn is launch, bound once: the gate's launch callback.
	launchFn func(*txn.Txn, func(txn.Result))

	// slots carves the records' reply slots (resetSlots).
	slots pool.Arena[replySlot]

	// The scratch slices back headroom's OWD sort and inquireSlow's
	// involved-shard set — per-call allocations otherwise.
	owdScratch []time.Duration
	shardSeen  []bool

	// Retries counts protocol-level re-submissions (stats for the harness).
	Retries int64
}

func newCoordinator(c *Cluster, idx int32, node *simnet.Node, clk clocks.Clock) *Coordinator {
	co := &Coordinator{
		cfg: c.Cfg, cluster: c, node: node, clock: clk,
		view: c.initial.copy(),
		owd:  make(map[simnet.NodeID]time.Duration),
	}
	co.tab = coord.New[pendingTxn](idx, node).OnTimeout(co.retryTimedOut)
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
	p := co.tab.Begin(t, done)
	co.resetSlots(p)
	co.multicast(p)
	co.tab.Arm(p, co.cfg.RetryTimeout)
}

func (co *Coordinator) multicast(p *pendingTxn) {
	p.T.Trace.Mark(co.cluster.Net.Sim().Now(), trace.PhaseDispatch)
	sendClock := co.now()
	// Retries carry a fresh, larger timestamp (Appendix B): servers
	// re-position the pending transaction to it, which re-converges the
	// leaders' queue orders when local timestamp bumps made them diverge.
	p.ts = txn.Timestamp{Time: sendClock + co.headroom(p.T), Coord: p.T.ID.Coord, Seq: p.T.ID.Seq}
	done := co.tab.Oldest().Seq
	for i := range p.T.Pieces {
		sh := p.T.Pieces[i].Shard()
		for rep := 0; rep < co.cfg.Replicas(); rep++ {
			m := co.cluster.msgs.txn.Get()
			*m = txnMsg{T: p.T, TS: p.ts, SendClock: sendClock, Coord: co.node.ID(), GView: co.view.GView, Retry: p.Retries, Done: done}
			co.node.Send(co.cluster.serverNode(sh, rep), m)
		}
	}
}

// retryTimedOut resubmits p, still pending a retry timeout after its last
// submission, under the same id (Appendix B), and re-arms the timeout.
func (co *Coordinator) retryTimedOut(p *pendingTxn) {
	p.Retries++
	co.Retries++
	// The wait that expired into this timeout is retry-attributed: the
	// mark advances the trace cursor, so stale stamps from the abandoned
	// attempt clamp to zero in the breakdown walk.
	p.T.Trace.Mark(co.cluster.Net.Sim().Now(), trace.PhaseRetry)
	// The view may have changed under us — refresh, then resubmit.
	co.node.Send(co.cluster.vmLeaderNode(), vmInquire{From: co.node.ID()})
	co.multicast(p)
	co.tab.Arm(p, co.cfg.RetryTimeout)
}

func (co *Coordinator) onFastReply(from simnet.NodeID, m *fastReply) {
	if m.GView > co.view.GView {
		co.node.Send(co.cluster.vmLeaderNode(), vmInquire{From: co.node.ID()})
		return
	}
	if m.GView != co.view.GView || m.LView != co.view.GVec[m.Shard] {
		return
	}
	p := co.tab.Get(m.ID)
	if p == nil {
		return
	}
	if m.OWD > 0 {
		co.updateOWD(from, m.OWD)
	}
	if i := p.T.Pos(m.Shard); i >= 0 {
		s := &p.slots[i*co.cfg.Replicas()+m.Replica]
		if s.fastSet && m.TS.Less(s.fast.TS) {
			return // stale (a newer reply with a larger timestamp already arrived)
		}
		s.fast = *m // copy: the message is recycled after return
		s.fast.RecvS = co.cluster.Net.Sim().Now()
		s.fastSet = true
	}
	co.evaluate(p)
}

func (co *Coordinator) onSlowReply(m *slowReply) {
	if m.GView != co.view.GView || m.LView != co.view.GVec[m.Shard] {
		return
	}
	p := co.tab.Get(m.ID)
	if p == nil {
		return
	}
	if i := p.T.Pos(m.Shard); i >= 0 {
		s := &p.slots[i*co.cfg.Replicas()+m.Replica]
		if s.slowSet && m.TS.Less(s.slow.TS) {
			return
		}
		s.slow = *m
		s.slow.RecvS = co.cluster.Net.Sim().Now()
		s.slowSet = true
	}
	co.evaluate(p)
}

// inquireSlow implements the Appendix E optimization: instead of per-entry
// slow replies, periodically ask followers for their sync-points.
func (co *Coordinator) inquireSlow() {
	if co.tab.InFlight() == 0 {
		return
	}
	if co.shardSeen == nil {
		co.shardSeen = make([]bool, co.cfg.Shards)
	}
	for _, id := range co.tab.InOrder() {
		t := co.tab.Get(id).T
		for i := range t.Pieces {
			co.shardSeen[t.Pieces[i].Shard()] = true
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
	ids := co.tab.InOrder()
	for _, id := range ids {
		p := co.tab.Get(id)
		i := p.T.Pos(m.Shard) // -1: the inquiry went to every pending shard, p may not touch this one
		if i < 0 || !p.slots[i*R+leaderRep].fastSet {
			continue
		}
		lf := &p.slots[i*R+leaderRep].fast
		if lf.LogPos < 0 || m.SyncPoint <= lf.LogPos {
			continue
		}
		s := &p.slots[i*R+m.Replica]
		s.slow = slowReply{viewInfo: m.viewInfo, Shard: m.Shard, Replica: m.Replica, ID: p.T.ID, TS: lf.TS,
			RecvS: co.cluster.Net.Sim().Now()}
		s.slowSet = true
	}
	// Evaluate in submission order: completions run client callbacks and
	// sends, which may end and begin attempts.
	for _, id := range ids {
		if p := co.tab.Get(id); p != nil {
			co.evaluate(p)
		}
	}
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
	for i := range p.T.Pieces {
		leaderRep := co.view.GVec[p.T.Pieces[i].Shard()] % R
		if !p.slots[i*R+leaderRep].fastSet {
			return // no leader reply yet (line 15–16)
		}
		lf := &p.slots[i*R+leaderRep].fast
		fastQ := 1 // the leader
		slowQ := 0
		for rep := 0; rep < R; rep++ {
			if rep == leaderRep {
				continue
			}
			s := &p.slots[i*R+rep]
			if s.fastSet && s.fast.Hash == lf.Hash && s.fast.TS.Equal(lf.TS) {
				fastQ++
			}
			if s.slowSet && s.slow.TS.Equal(lf.TS) {
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
			co.tab.Finish(p, txn.Result{Aborted: true})
		}
		return
	}
	for i := range p.T.Pieces {
		sh := p.T.Pieces[i].Shard()
		co.tab.Fold(p, sh, p.slots[i*R+co.view.GVec[sh]%R].fast.Ret)
	}
	co.traceCommitPath(p, fastPath)
	co.tab.Finish(p, txn.Result{OK: true, FastPath: fastPath, TS: agreedTS})
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
	tr := p.T.Trace
	if tr == nil {
		return
	}
	var dec *fastReply
	for j := range p.slots {
		if s := &p.slots[j]; s.fastSet && (dec == nil || s.fast.RecvS > dec.RecvS) {
			dec = &s.fast
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
		for j := range p.slots {
			if s := &p.slots[j]; s.slowSet && s.slow.RecvS > srecv {
				srecv = s.slow.RecvS
			}
		}
		tr.Mark(srecv, trace.PhaseRepl)
	}
	tr.Mark(co.cluster.Net.Sim().Now(), trace.PhaseDecision)
}

func (co *Coordinator) adoptView(v globalView) {
	if v.GView <= co.view.GView {
		return
	}
	co.view = v.copy()
	// Replies gathered under the old view are useless; resubmit in the new
	// view (§4: "In case of a view change, the coordinator retries"), in
	// deterministic submission order.
	for _, id := range co.tab.InOrder() {
		p := co.tab.Get(id)
		co.resetSlots(p)
		co.multicast(p)
	}
}

// resetSlots gives p one unset reply slot per (piece, replica) of its
// transaction. A record reuses the slots it holds when they are enough;
// otherwise it carves new ones from the coordinator's arena, and the ones it
// held are never handed out again. A coordinator's records thus fill chunks
// of the arena, not an allocation each.
func (co *Coordinator) resetSlots(p *pendingTxn) {
	k := len(p.T.Pieces) * co.cfg.Replicas()
	if k > cap(p.slots) {
		p.slots = co.slots.Carve(k)
		return
	}
	p.slots = p.slots[:k]
	clear(p.slots)
}
