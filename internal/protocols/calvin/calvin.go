// Package calvin implements the Calvin+ baseline (§5.1): Calvin's
// deterministic epoch-based ordering with its Paxos consensus layer replaced
// by a Nezha-style 1-WRTT batch replication, saving at least one WRTT per
// commit.
//
// Each region runs a sequencer that batches incoming transactions into fixed
// epochs and broadcasts each epoch batch to every region. A region's
// schedulers merge the per-region batches of an epoch in a deterministic
// order and execute them serially per shard. The merge barrier — epoch e
// cannot run until ALL regions' epoch-e batches have arrived — is Calvin's
// straggler problem: one slow region or overloaded shard delays everyone
// (§5.2, §5.3).
package calvin

import (
	"time"

	"tiga/internal/pool"
	"tiga/internal/protocol/coord"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Spec describes the deployment.
type Spec struct {
	Shards       int
	Regions      int // replication degree; one full replica per region
	Net          *simnet.Network
	CoordRegions []simnet.Region
	Seed         func(shard int, st *store.Store)
	ExecCost     time.Duration
	Epoch        time.Duration
	// Resend arms the sequencer retransmission path: an executor stuck at
	// the merge barrier re-requests the missing region batches after this
	// timeout, and sequencers retain flushed batches to answer. 0 disables
	// it (the original behavior — correct on reliable links, but a single
	// dropped epochBatch under loss stalls the barrier, and every epoch
	// after it, forever). Calvin proper reaches the same guarantee by
	// running its sequencers through Paxos; a retransmission timer is the
	// Nezha-style equivalent for the 1-WRTT batch replication this
	// baseline models.
	Resend time.Duration
}

// ---- messages ----
//
// Who owns each message. A coordinator's *submitMsg comes from its freelist
// (coordinator.subs) and carries it as src; the sequencer copies it into its
// buffer and puts it back. An *epochBatch is carved once per flush from the
// sequencer's arena and shared by every executor it goes to and by the
// sequencer's history, which re-sends it to answer a fetch; its Txns are
// carved at their exact length from a second arena. An executor's *resultMsg
// and *fetchMsg come from its freelists and carry it as src; the receiver
// copies the fields out and puts the message back. A message the network
// drops is never put back.

// submitMsg hands T to the sequencer of its coordinator's home region; src is
// the coordinator, which the home region's executors answer. An epoch batch
// carries the copies the sequencer made.
type submitMsg struct {
	src *coordinator
	T   *txn.Txn
}

type epochBatch struct {
	Region int
	Epoch  int
	Txns   []submitMsg
}

// resultMsg is executor src's return for its shard's piece of ID.
type resultMsg struct {
	src *executor
	ID  txn.ID
	Ret []byte
}

// fetchMsg asks a region's sequencer to retransmit one flushed epoch batch
// to the requesting executor src (merge-barrier gap repair under loss).
type fetchMsg struct {
	src   *executor
	Epoch int
}

// sequencer batches submissions per region.
type sequencer struct {
	sys    *System
	region int
	node   *simnet.Node
	// buf gathers the epoch's submissions; a flush copies them out and
	// keeps its storage.
	buf   []submitMsg
	epoch int
	// batches and txns carve each flushed batch and its transactions.
	batches pool.Arena[epochBatch]
	txns    pool.Arena[submitMsg]
	// history retains the flushed batches, indexed by epoch, for
	// retransmission when Spec.Resend is armed (runs are bounded, so
	// retention is too).
	history []*epochBatch
}

// executor executes one shard's pieces at one region, in global epoch order.
type executor struct {
	sys    *System
	region int
	shard  int
	node   *simnet.Node
	st     *store.Store
	// window is the merge barrier's state: the batches of epochs next,
	// next+1, …, epoch e's in window[e&(len(window)-1)]. Its length is a
	// power of two, doubled when a batch arrives past its end; a slot is
	// emptied when its epoch runs and serves the epoch len(window) later.
	window []epochSlot
	next   int // next epoch to run
	// results and fetches are the executor's message freelists.
	results *pool.Free[resultMsg]
	fetches *pool.Free[fetchMsg]
}

// epochSlot gathers one epoch's batches: from[r] is region r's, nil until it
// arrives, and n counts those that have.
type epochSlot struct {
	from []*epochBatch
	n    int
}

// System is a running Calvin+ deployment.
type System struct {
	spec   Spec
	seqs   []*sequencer
	execs  [][]*executor // [region][shard]
	coords []*coordinator
}

// New builds the deployment.
func New(spec Spec) *System {
	sys := &System{spec: spec}
	for reg := 0; reg < spec.Regions; reg++ {
		node := spec.Net.AddNode(simnet.Region(reg), nil)
		sq := &sequencer{sys: sys, region: reg, node: node, batches: pool.NewArena[epochBatch](coord.PayloadChunk)}
		node.SetHandler(sq.handle)
		sys.seqs = append(sys.seqs, sq)
	}
	sys.execs = make([][]*executor, spec.Regions)
	for reg := 0; reg < spec.Regions; reg++ {
		sys.execs[reg] = make([]*executor, spec.Shards)
		for sh := 0; sh < spec.Shards; sh++ {
			node := spec.Net.AddNode(simnet.Region(reg), nil)
			ex := &executor{sys: sys, region: reg, shard: sh, node: node, st: store.New(),
				results: pool.New[resultMsg](), fetches: pool.New[fetchMsg]()}
			ex.widen(1)
			if spec.Seed != nil {
				spec.Seed(sh, ex.st)
			}
			node.SetHandler(ex.handle)
			sys.execs[reg][sh] = ex
		}
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, tab: coord.New[pending](int32(len(sys.coords)+1), node),
			subs: pool.New[submitMsg]()}
		// Coordinators use the nearest server region's replica for results.
		co.home = simnet.Nearest(spec.Net, reg, spec.Regions, func(r int) simnet.Region { return simnet.Region(r) })
		node.SetHandler(co.handle)
		sys.coords = append(sys.coords, co)
	}
	return sys
}

// Start launches the epoch tickers, and — when retransmission is armed —
// the executors' merge-barrier gap detectors.
func (sys *System) Start() {
	for _, sq := range sys.seqs {
		sq := sq
		sq.node.Every(sys.spec.Epoch, func() bool {
			sq.flush()
			return true
		})
	}
	if sys.spec.Resend <= 0 {
		return
	}
	for _, regExecs := range sys.execs {
		for _, ex := range regExecs {
			ex := ex
			ex.node.Every(sys.spec.Resend, func() bool {
				ex.fetchMissing()
				return true
			})
		}
	}
}

// ---- sequencer ----

func (sq *sequencer) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *submitMsg:
		sq.buf = append(sq.buf, *m)
		m.src.subs.Put(m)
	case *fetchMsg:
		epoch := m.Epoch
		m.src.fetches.Put(m)
		// Gap repair: retransmit a flushed batch to the stuck executor.
		// An epoch not yet flushed is not a gap — the executor's next tick
		// re-asks if the regular broadcast is lost too.
		if epoch < len(sq.history) {
			sq.node.Send(from, sq.history[epoch])
		}
	}
}

// flush closes the current epoch and broadcasts its batch (possibly empty —
// every region must see every epoch for the merge barrier) to all executors
// in all regions.
func (sq *sequencer) flush() {
	b := sq.batches.New(epochBatch{Region: sq.region, Epoch: sq.epoch, Txns: sq.txns.Carve(len(sq.buf))})
	copy(b.Txns, sq.buf)
	sq.buf = sq.buf[:0]
	sq.epoch++
	if sq.sys.spec.Resend > 0 {
		sq.history = append(sq.history, b)
	}
	for reg := 0; reg < sq.sys.spec.Regions; reg++ {
		for sh := 0; sh < sq.sys.spec.Shards; sh++ {
			sq.node.Send(sq.sys.execs[reg][sh].node.ID(), b)
		}
	}
}

// ---- executor ----

// fetchMissing asks the sequencers of the regions whose batch for the next
// epoch has not arrived to retransmit it. Harmless when the epoch simply has
// not been flushed yet: the sequencer ignores unknown epochs and the next
// tick re-asks.
func (ex *executor) fetchMissing() {
	from := ex.slot(ex.next).from
	for reg := 0; reg < ex.sys.spec.Regions; reg++ {
		if from[reg] == nil {
			f := ex.fetches.Get()
			*f = fetchMsg{src: ex, Epoch: ex.next}
			ex.node.Send(ex.sys.seqs[reg].node.ID(), f)
		}
	}
}

func (ex *executor) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(*epochBatch)
	if !ok {
		return
	}
	if m.Epoch < ex.next {
		// A retransmission raced the original delivery; the epoch already
		// ran. Reliable links reach this too: the fetch timer is shorter
		// than a WAN's one-way delay, so it asks for batches still in
		// flight (EXPERIMENTS.md, Known deviations).
		return
	}
	for m.Epoch-ex.next >= len(ex.window) {
		ex.widen(2 * len(ex.window))
	}
	// A retransmitted duplicate of a batch that is already here counts once.
	if s := ex.slot(m.Epoch); s.from[m.Region] == nil {
		s.from[m.Region] = m
		s.n++
	}
	// Merge barrier: run epochs in order once all regions' batches arrived.
	for {
		s := ex.slot(ex.next)
		if s.n < ex.sys.spec.Regions {
			return
		}
		ex.runEpoch(s.from)
		clear(s.from)
		s.n = 0
		ex.next++
	}
}

// slot returns epoch e's slot; e lies in [next, next+len(window)).
func (ex *executor) slot(e int) *epochSlot { return &ex.window[e&(len(ex.window)-1)] }

// widen replaces the window by one of size slots (a power of two, at least
// the current size), moving every waiting epoch to its slot there.
func (ex *executor) widen(size int) {
	r := ex.sys.spec.Regions
	w := make([]epochSlot, size)
	for e := ex.next; e < ex.next+len(ex.window); e++ {
		w[e&(size-1)] = *ex.slot(e)
	}
	spare := make([]*epochBatch, (size-len(ex.window))*r)
	for i := range w {
		if w[i].from == nil {
			w[i].from, spare = spare[:r:r], spare[r:]
		}
	}
	ex.window = w
}

// runEpoch executes this shard's pieces of one epoch serially, merged in a
// deterministic order: region id, then submission order.
func (ex *executor) runEpoch(from []*epochBatch) {
	for _, b := range from {
		for _, sm := range b.Txns {
			piece := sm.T.Piece(ex.shard)
			if piece == nil {
				continue
			}
			ex.node.Work(ex.sys.spec.ExecCost)
			ret := ex.st.ExecuteID(sm.T.ID, txn.Timestamp{}, piece)
			ex.st.Commit(sm.T.ID)
			ex.st.Forget(sm.T.ID) // an epoch runs exactly once
			if sm.src.home == ex.region {
				r := ex.results.Get()
				*r = resultMsg{src: ex, ID: sm.T.ID, Ret: ret}
				ex.node.Send(sm.src.node.ID(), r)
			}
		}
	}
}

// ---- coordinator ----

// pending is a transaction in flight at its coordinator, filed in
// coordinator.tab and put back when its last result arrives.
type pending struct{ coord.Attempt }

type coordinator struct {
	sys  *System
	node *simnet.Node
	home int
	tab  *coord.Table[pending, *pending]
	subs *pool.Free[submitMsg]
}

// Submit hands t to the coordinator's nearest sequencer.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.tab.Begin(t, done)
	m := co.subs.Get()
	*m = submitMsg{src: co, T: t}
	co.node.Send(co.sys.seqs[co.home].node.ID(), m)
}

// handle takes an executor's result: it copies the fields out and puts the
// message back on its sender's list before acting on them.
func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(*resultMsg)
	if !ok {
		return
	}
	shard, id, ret := m.src.shard, m.ID, m.Ret
	m.src.results.Put(m)
	if p := co.tab.Get(id); p != nil && co.tab.Fold(p, shard, ret) {
		co.tab.Finish(p, txn.Result{OK: true})
	}
}
