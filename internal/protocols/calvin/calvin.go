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
	"sort"
	"time"

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

type submitMsg struct {
	T     *txn.Txn
	Coord simnet.NodeID
	// HomeRegion is the region whose executors answer this coordinator.
	HomeRegion int
}

type epochBatch struct {
	Region int
	Epoch  int
	Txns   []submitMsg
}

type resultMsg struct {
	Shard int
	ID    txn.ID
	Ret   []byte
}

// fetchMsg asks a region's sequencer to retransmit one flushed epoch batch
// to the requesting executor (merge-barrier gap repair under loss).
type fetchMsg struct {
	Epoch int
}

// sequencer batches submissions per region.
type sequencer struct {
	sys    *System
	region int
	node   *simnet.Node
	buf    []submitMsg
	epoch  int
	// history retains flushed batches for retransmission when Spec.Resend
	// is armed (runs are bounded, so retention is too).
	history map[int]epochBatch
}

// executor executes one shard's pieces at one region, in global epoch order.
type executor struct {
	sys     *System
	region  int
	shard   int
	node    *simnet.Node
	st      *store.Store
	batches map[int]map[int]epochBatch // epoch -> region -> batch
	next    int                        // next epoch to run
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
		sq := &sequencer{sys: sys, region: reg, node: node}
		if spec.Resend > 0 {
			sq.history = make(map[int]epochBatch)
		}
		node.SetHandler(sq.handle)
		sys.seqs = append(sys.seqs, sq)
	}
	sys.execs = make([][]*executor, spec.Regions)
	for reg := 0; reg < spec.Regions; reg++ {
		sys.execs[reg] = make([]*executor, spec.Shards)
		for sh := 0; sh < spec.Shards; sh++ {
			node := spec.Net.AddNode(simnet.Region(reg), nil)
			ex := &executor{sys: sys, region: reg, shard: sh, node: node,
				st: store.New(), batches: make(map[int]map[int]epochBatch)}
			if spec.Seed != nil {
				spec.Seed(sh, ex.st)
			}
			node.SetHandler(ex.handle)
			sys.execs[reg][sh] = ex
		}
	}
	for _, reg := range spec.CoordRegions {
		node := spec.Net.AddNode(reg, nil)
		co := &coordinator{sys: sys, node: node, tab: coord.New[pending](int32(len(sys.coords)+1), node)}
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

// Store exposes a region's shard store (tests).
func (sys *System) Store(region, shard int) *store.Store { return sys.execs[region][shard].st }

// ---- sequencer ----

func (sq *sequencer) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case submitMsg:
		sq.buf = append(sq.buf, m)
	case fetchMsg:
		// Gap repair: retransmit a flushed batch to the stuck executor.
		// An epoch not yet flushed is not a gap — the executor's next tick
		// re-asks if the regular broadcast is lost too.
		if b, ok := sq.history[m.Epoch]; ok {
			sq.node.Send(from, b)
		}
	}
}

// flush closes the current epoch and broadcasts its batch (possibly empty —
// every region must see every epoch for the merge barrier) to all executors
// in all regions.
func (sq *sequencer) flush() {
	b := epochBatch{Region: sq.region, Epoch: sq.epoch, Txns: sq.buf}
	sq.epoch++
	sq.buf = nil
	if sq.history != nil {
		sq.history[b.Epoch] = b
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
	byRegion := ex.batches[ex.next]
	for reg := 0; reg < ex.sys.spec.Regions; reg++ {
		if _, ok := byRegion[reg]; !ok {
			ex.node.Send(ex.sys.seqs[reg].node.ID(), fetchMsg{Epoch: ex.next})
		}
	}
}

func (ex *executor) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(epochBatch)
	if !ok {
		return
	}
	if m.Epoch < ex.next {
		// A retransmission raced the original delivery; the epoch already
		// ran. (Never reached on reliable links: an epoch below next has
		// been merged, so its batches were all delivered exactly once.)
		return
	}
	byRegion := ex.batches[m.Epoch]
	if byRegion == nil {
		byRegion = make(map[int]epochBatch)
		ex.batches[m.Epoch] = byRegion
	}
	byRegion[m.Region] = m
	// Merge barrier: run epochs in order once all regions' batches arrived.
	for {
		br, ok := ex.batches[ex.next]
		if !ok || len(br) < ex.sys.spec.Regions {
			return
		}
		ex.runEpoch(br)
		delete(ex.batches, ex.next)
		ex.next++
	}
}

// runEpoch merges the per-region batches deterministically (region id, then
// submission order) and executes this shard's pieces serially.
func (ex *executor) runEpoch(byRegion map[int]epochBatch) {
	regions := make([]int, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	for _, r := range regions {
		for _, sm := range byRegion[r].Txns {
			piece := sm.T.Piece(ex.shard)
			if piece == nil {
				continue
			}
			ex.node.Work(ex.sys.spec.ExecCost)
			ret := ex.st.ExecuteID(sm.T.ID, txn.Timestamp{}, piece)
			ex.st.Commit(sm.T.ID)
			if sm.HomeRegion == ex.region {
				ex.node.Send(sm.Coord, resultMsg{Shard: ex.shard, ID: sm.T.ID, Ret: ret})
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
}

// Submit hands t to the coordinator's nearest sequencer.
func (sys *System) Submit(ci int, t *txn.Txn, done func(txn.Result)) {
	co := sys.coords[ci]
	co.tab.Begin(t, done)
	co.node.Send(co.sys.seqs[co.home].node.ID(), submitMsg{T: t, Coord: co.node.ID(), HomeRegion: co.home})
}

func (co *coordinator) handle(from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(resultMsg)
	if !ok {
		return
	}
	if p := co.tab.Get(m.ID); p != nil && co.tab.Fold(p, m.Shard, m.Ret) {
		co.tab.Finish(p, txn.Result{OK: true})
	}
}
