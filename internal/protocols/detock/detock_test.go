package detock

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"tiga/internal/graph"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestMain arms pool.Check for every deployment the tests build: putting a
// message or a record back twice, or into a list it did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

func build(t *testing.T, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 3, Regions: 3, Net: net,
		CoordRegions: []simnet.Region{0, 1, 2},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("d%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, DDRScan: 256,
	})
	sys.Start()
	return sim, sys
}

// TestSingleHomeCommit: a transaction touching one home region commits with
// local ordering plus synchronous geo-replication.
func TestSingleHomeCommit(t *testing.T) {
	sim, sys := build(t, 1)
	var res *txn.Result
	var lat time.Duration
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		tx := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("d0-0").On(0))}
		// Shard 0 is homed in region 0; submit from the region-0 coordinator.
		sys.Submit(0, tx, func(r txn.Result) { res, lat = &r, sim.Now()-s })
	})
	sim.Run(3 * time.Second)
	if res == nil || !res.OK {
		t.Fatal("no commit")
	}
	// Local ordering (LAN) + sync replication to the nearest remote region
	// (SC↔FI, 110 ms RTT) + local reply.
	if lat < 100*time.Millisecond || lat > 200*time.Millisecond {
		t.Fatalf("single-home latency %v, want ~1 WRTT for sync replication", lat)
	}
}

// TestMultiHomeCommit: spanning all three home regions costs the sequence
// exchange plus replication (≥2 WRTTs from the farthest pair).
func TestMultiHomeCommit(t *testing.T) {
	sim, sys := build(t, 2)
	committed := 0
	const n = 10
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i*30)*time.Millisecond, func() {
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(fmt.Sprintf("d0-%d", i%8)).On(0),
				txn.IncrementPiece(fmt.Sprintf("d1-%d", i%8)).On(1),
				txn.IncrementPiece(fmt.Sprintf("d2-%d", i%8)).On(2),
			)}
			sys.Submit(i%3, tx, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(8 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d multi-home txns", committed, n)
	}
	// Synchronous replication propagated writes to every region's copy.
	for reg := 1; reg < 3; reg++ {
		for sh := 0; sh < 3; sh++ {
			if !sys.Store(0, sh).Equal(sys.Store(reg, sh)) {
				t.Fatalf("region %d shard %d copy diverged", reg, sh)
			}
		}
	}
	// The engines forgot every transaction once its result was sent.
	checkDrained(t, sys)
}

// TestConflictingMultiHomeSerialize: conflicting multi-home transactions from
// different regions are ordered deterministically (no lost updates).
func TestConflictingMultiHomeSerialize(t *testing.T) {
	sim, sys := build(t, 3)
	hot := func() *txn.Txn {
		return &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("d0-0").On(0),
			txn.IncrementPiece("d1-0").On(1),
		)}
	}
	const n = 20
	committed := 0
	for i := 0; i < n; i++ {
		i := i
		sim.At(time.Duration(50+i)*time.Millisecond, func() {
			sys.Submit(i%3, hot(), func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(10 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	if got := txn.DecodeInt(sys.Store(0, 0).Get("d0-0")); got != n {
		t.Fatalf("d0-0 = %d, want %d (lost updates)", got, n)
	}
}

// ---- the reference engine ----
//
// refEngine is the ordering half of the engine as it stood before it kept
// per-key wait lists: tryOrder and tryExecute below are that code verbatim,
// re-sorting the whole queue, rebuilding the blocked-key sets and a conflict
// graph on every ordering. It sends nothing; fed the same homeReq and seqInfo
// messages as a live engine it records the charges and executions the old
// engine would have made, and the differential tests require the live engine
// to make exactly those.

type step struct {
	id   uint64
	exec bool
	work time.Duration
}

type refTxn struct {
	t       *txn.Txn
	queued  bool
	homes   homeSet
	seqs    map[int]uint64 // region -> local sequence
	key     uint64         // deterministic global order key
	ordered bool
	done    bool
}

type refEngine struct {
	spec   *Spec
	region int
	seq    uint64
	txns   map[uint64]*refTxn
	queue  []*refTxn
	log    []step
	// What the schedule exercised.
	overtaken int // seqInfo that arrived before the transaction's homeReq
	overScan  int // orderings with the queue longer than the scan window
	ties      int // orderings onto the key of a queued transaction that conflicts
	maxQueue  int
}

func (en *refEngine) work(d *refTxn, exec bool, w time.Duration) {
	en.log = append(en.log, step{tid(d.t.ID), exec, w})
}

func (en *refEngine) handle(msg simnet.Message) {
	switch m := msg.(type) {
	case *homeReq:
		id := tid(m.T.ID)
		d := en.txns[id]
		if d == nil {
			d = &refTxn{seqs: make(map[int]uint64)}
			en.txns[id] = d
		}
		d.t = m.T
		d.homes = m.Homes
		if !d.queued {
			d.queued = true
			en.queue = append(en.queue, d)
		}
		en.seq++
		d.seqs[en.region] = en.seq
		en.tryOrder(d)
	case *seqInfo:
		id := tid(m.ID)
		d := en.txns[id]
		if d == nil {
			d = &refTxn{seqs: make(map[int]uint64)}
			en.txns[id] = d
		}
		if d.t == nil {
			en.overtaken++
		}
		d.seqs[m.src.region] = m.Seq
		en.tryOrder(d)
	}
}

func (en *refEngine) tryOrder(d *refTxn) {
	if d.t == nil || d.ordered || len(d.seqs) < d.homes.len() {
		return
	}
	d.ordered = true
	if len(en.queue) > en.spec.DDRScan {
		en.overScan++
	}
	en.maxQueue = max(en.maxQueue, len(en.queue))
	var max uint64
	for _, s := range d.seqs {
		if s > max {
			max = s
		}
	}
	d.key = max<<16 | (tid(d.t.ID) & 0xffff)
	if slices.ContainsFunc(en.queue, func(o *refTxn) bool {
		return o != d && o.key == d.key && o.t.ConflictsWith(d.t)
	}) {
		en.ties++
	}
	// Model the deadlock-resolution cost: build the conflict graph over
	// pending ordered transactions and charge its size.
	g := graph.New()
	me := tid(d.t.ID)
	g.AddNode(me)
	// Cap the modeled deadlock-detection scan so saturated queues do not turn
	// per-arrival ordering into quadratic work (DDR only needs the recent
	// conflicting window).
	scan := en.queue
	if max := en.spec.DDRScan; len(scan) > max {
		scan = scan[:max]
	}
	for _, o := range scan {
		if o == d || o.t == nil || o.done {
			continue
		}
		if o.t.ConflictsWith(d.t) {
			oid := tid(o.t.ID)
			if o.key < d.key {
				g.AddEdge(oid, me)
			} else {
				g.AddEdge(me, oid)
			}
		}
	}
	en.work(d, false, en.spec.GraphCost*time.Duration(g.Len()+g.Edges()))
	en.tryExecute()
}

func (en *refEngine) tryExecute() {
	sort.SliceStable(en.queue, func(i, j int) bool { return en.queue[i].key < en.queue[j].key })
	blockedR := make(map[string]bool)
	blockedW := make(map[string]bool)
	addKeys := func(d *refTxn) {
		for _, p := range d.t.Pieces {
			for _, k := range p.ReadSet {
				blockedR[k] = true
			}
			for _, k := range p.WriteSet {
				blockedW[k] = true
			}
		}
	}
	conflicts := func(d *refTxn) bool {
		for _, p := range d.t.Pieces {
			for _, k := range p.WriteSet {
				if blockedR[k] || blockedW[k] {
					return true
				}
			}
			for _, k := range p.ReadSet {
				if blockedW[k] {
					return true
				}
			}
		}
		return false
	}
	for _, d := range en.queue {
		if d.t == nil || d.done {
			continue
		}
		if !d.ordered || conflicts(d) {
			// Unordered or blocked entries gate later conflicting ones.
			addKeys(d)
			continue
		}
		en.execute(d)
	}
	// Compact completed entries.
	live := en.queue[:0]
	for _, d := range en.queue {
		if !d.done {
			live = append(live, d)
		}
	}
	en.queue = live
}

func (en *refEngine) execute(d *refTxn) {
	d.done = true
	var w time.Duration
	for i := range d.t.Pieces {
		if en.spec.Home(d.t.Pieces[i].Shard()) == en.region {
			w += en.spec.ExecCost
		}
	}
	en.work(d, true, w)
}

// shadow arms the differential check on every engine of sys: a refEngine sees
// each message first, and after the live engine has handled it the two logs
// must be equal. It also returns the checking handlers it installed, so that
// a test can feed an engine messages directly.
func shadow(t *testing.T, sys *System) ([]*refEngine, []simnet.Handler) {
	t.Helper()
	refs := make([]*refEngine, len(sys.engines))
	handlers := make([]simnet.Handler, len(sys.engines))
	for i, en := range sys.engines {
		en := en
		ref := &refEngine{spec: &sys.spec, region: en.region, txns: make(map[uint64]*refTxn)}
		refs[i] = ref
		var got []step
		en.onCharge = func(d *dtxn, exec bool, work time.Duration) {
			got = append(got, step{tid(d.t.ID), exec, work})
		}
		checked := 0
		handlers[i] = func(from simnet.NodeID, msg simnet.Message) {
			ref.handle(msg)
			en.handle(from, msg)
			if !slices.Equal(got[checked:], ref.log[checked:]) {
				t.Fatalf("region %d, on %T %+v: engine did %v, the reference engine %v",
					en.region, msg, msg, got[checked:], ref.log[checked:])
			}
			checked = len(got)
		}
		en.node.SetHandler(handlers[i])
	}
	return refs, handlers
}

// schedule is a randomized load for the differential tests. Key names embed
// their shard, as every workload's do: the reference engine's blocked sets go
// by name alone, the live engine's wait lists by (shard, KeyID).
type schedule struct {
	seed     int64
	ddrScan  int
	txns     int
	over     time.Duration // submissions spread over this long
	hotShare float64       // share of pieces that touch key 0 of their shard
}

const oracleKeys = 48 // seeded keys per shard

func oracleKey(shard, i int) string { return fmt.Sprintf("k%d-%d", shard, i) }

// randomPiece builds a piece of one of the forms the engine must treat alike:
// numbered, named, half-numbered, multi-key, read-only, reading one key and
// writing another, and inserting a row no store has seen.
func randomPiece(rng *rand.Rand, shard int, hotShare float64, fresh *int) *txn.Piece {
	pick := func() int {
		if rng.Float64() < hotShare {
			return 0
		}
		return rng.Intn(oracleKeys)
	}
	a, b := pick(), pick()
	ka, kb := oracleKey(shard, a), oracleKey(shard, b)
	ida, idb := txn.KeyID(a), txn.KeyID(b)
	nop := func(txn.KV) []byte { return nil }
	switch rng.Intn(8) {
	case 0:
		return txn.IncrementPieceID(ka, ida)
	case 1:
		return txn.IncrementPiece(ka)
	case 2:
		return txn.IncrementPiece(ka, kb)
	case 3:
		return txn.ReadPieceID(ka, ida)
	case 4:
		return txn.ReadPiece(ka)
	case 5: // reads a, writes b; only the write is numbered
		return &txn.Piece{ReadSet: []string{ka}, WriteSet: []string{kb},
			ReadIDs: []txn.KeyID{txn.NoKeyID}, WriteIDs: []txn.KeyID{idb}, Exec: txn.Func(nop)}
	case 6: // numbered reads of two keys, one of them also written
		return &txn.Piece{ReadSet: []string{ka, kb}, WriteSet: []string{kb},
			ReadIDs: []txn.KeyID{ida, idb}, WriteIDs: []txn.KeyID{idb}, Exec: txn.Func(nop)}
	default: // inserts a row, reads a seeded key
		*fresh++
		row := fmt.Sprintf("row%d-%d", shard, *fresh%6)
		return &txn.Piece{ReadSet: []string{ka}, WriteSet: []string{row},
			ReadIDs: []txn.KeyID{ida}, WriteIDs: []txn.KeyID{txn.NoKeyID},
			Exec: txn.Func(func(kv txn.KV) []byte { kv.Put(row, txn.EncodeInt(1)); return nil })}
	}
}

// run drives the schedule on a 4-shard, 3-region deployment with coordinators
// in all four geo4 regions and 4 ms of link jitter, so that home requests and
// sequence exchanges overtake one another, and returns the system after the
// simulation has drained.
func (sc schedule) run(t *testing.T, arm func(*System)) (sys *System, committed int) {
	t.Helper()
	sim := simnet.NewSim(sc.seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(4*time.Millisecond, 0))
	names := make([]string, oracleKeys)
	sys = New(Spec{
		Shards: 4, Regions: 3, Net: net,
		CoordRegions: []simnet.Region{0, 1, 2, 3, 0},
		Seed: func(shard int, st *store.Store) {
			for i := range names {
				names[i] = oracleKey(shard, i)
			}
			st.SeedBulk(slices.Clone(names), txn.EncodeInt(0))
		},
		ExecCost: 3 * time.Microsecond, GraphCost: 7 * time.Microsecond,
		DDRScan: sc.ddrScan,
	})
	if arm != nil {
		arm(sys)
	}
	rng := rand.New(rand.NewSource(sc.seed))
	fresh := 0
	for i := 0; i < sc.txns; i++ {
		// A shard drawn twice keeps its later piece.
		var byShard [4]*txn.Piece
		var pieces []txn.Piece
		for n, have := 1+rng.Intn(3), 0; have < n; {
			sh := rng.Intn(4)
			if byShard[sh] == nil {
				have++
			}
			byShard[sh] = randomPiece(rng, sh, sc.hotShare, &fresh)
		}
		for sh, p := range byShard {
			if p != nil {
				pieces = append(pieces, p.On(sh))
			}
		}
		tx := &txn.Txn{Pieces: txn.ByShard(pieces...)}
		coord := rng.Intn(len(sys.coords))
		at := 10*time.Millisecond + time.Duration(rng.Int63n(int64(sc.over)))
		sim.At(at, func() {
			sys.Submit(coord, tx, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	sim.Run(time.Minute)
	return sys, committed
}

// TestEngineMatchesReference is the differential oracle of the per-key engine:
// on randomized schedules every engine makes the reference engine's charges
// and executions, in its order.
func TestEngineMatchesReference(t *testing.T) {
	cases := []schedule{
		{seed: 1, ddrScan: 256, txns: 900, over: 60 * time.Millisecond, hotShare: 0.05},
		{seed: 2, ddrScan: 4, txns: 400, over: 400 * time.Millisecond, hotShare: 0.3},
		{seed: 3, ddrScan: 256, txns: 1200, over: 150 * time.Millisecond, hotShare: 0.5},
		{seed: 4, ddrScan: 4, txns: 600, over: 30 * time.Millisecond, hotShare: 0},
		{seed: 5, ddrScan: 32, txns: 700, over: 2 * time.Second, hotShare: 0.2},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(fmt.Sprintf("seed%d-scan%d", sc.seed, sc.ddrScan), func(t *testing.T) {
			if testing.Short() && sc.txns > 1000 {
				t.Skip("the longest schedule is skipped under -short")
			}
			var refs []*refEngine
			sys, committed := sc.run(t, func(sys *System) { refs, _ = shadow(t, sys) })
			if committed != sc.txns {
				t.Fatalf("committed %d of %d", committed, sc.txns)
			}
			steps, overtaken, overScan, ties, maxQueue := 0, 0, 0, 0, 0
			for _, ref := range refs {
				steps += len(ref.log)
				overtaken += ref.overtaken
				overScan += ref.overScan
				ties += ref.ties
				maxQueue = max(maxQueue, ref.maxQueue)
			}
			t.Logf("%d steps compared; %d seqInfo overtook their homeReq; queue up to %d, past the scan window in %d orderings; %d onto the key of a conflicting queued transaction",
				steps, overtaken, maxQueue, overScan, ties)
			if overtaken == 0 || overScan == 0 {
				t.Errorf("the schedule exercised %d overtaking seqInfo and %d orderings past the scan window; want both", overtaken, overScan)
			}
			checkDrained(t, sys)
		})
	}
}

// TestEngineMatchesReferenceOnEqualKeys feeds one engine shuffled home requests
// and sequence numbers drawn from a range so small that conflicting
// transactions keep landing on one order key (max<<16 | low bits of the id),
// where the order is the queue's history: a transaction queued through an
// earlier ordering goes before its equals, a later arrival behind them.
func TestEngineMatchesReferenceOnEqualKeys(t *testing.T) {
	ties, overtaken, overScan := 0, 0, 0
	for round := 0; round < 400; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		net := simnet.NewNetwork(simnet.NewSim(1), simnet.GeoConfig(0, 0))
		sys := New(Spec{Shards: 3, Regions: 3, Net: net, ExecCost: time.Microsecond,
			GraphCost: time.Microsecond, DDRScan: []int{3, 256}[round%2]})
		refs, handlers := shadow(t, sys)
		var msgs []simnet.Message
		n := 8 + rng.Intn(40)
		for i := 0; i < n; i++ {
			tx := &txn.Txn{ID: txn.ID{Coord: int32(i + 1), Seq: uint64(1 + rng.Intn(2))}}
			// Shard 0 is homed at the engine under test.
			var pieces []txn.Piece
			for sh := 0; sh < 1+rng.Intn(3); sh++ {
				key := oracleKey(sh, rng.Intn(3))
				if rng.Intn(3) == 0 {
					pieces = append(pieces, txn.ReadPiece(key).On(sh))
				} else {
					pieces = append(pieces, txn.IncrementPiece(key).On(sh))
				}
			}
			tx.Pieces = txn.ByShard(pieces...)
			homes := sys.homesOf(tx)
			msgs = append(msgs, &homeReq{T: tx, Homes: homes})
			for hs := homes &^ 1; hs != 0; hs &= hs - 1 {
				h := bits.TrailingZeros64(uint64(hs))
				m := sys.engines[h].infos.Get()
				*m = seqInfo{src: sys.engines[h], ID: tx.ID, Seq: uint64(1 + rng.Intn(n))}
				msgs = append(msgs, m)
			}
		}
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, m := range msgs {
			handlers[0](0, m)
		}
		en := sys.engines[0]
		if len(en.unordered)+len(en.ordered)+len(en.keys) != 0 {
			t.Fatalf("round %d: %d unordered, %d ordered, %d key states left", round, len(en.unordered), len(en.ordered), len(en.keys))
		}
		ties += refs[0].ties
		overtaken += refs[0].overtaken
		overScan += refs[0].overScan
	}
	t.Logf("%d orderings onto the key of a conflicting queued transaction, %d overtaking seqInfo, %d orderings past the scan window",
		ties, overtaken, overScan)
	if ties < 100 || overtaken == 0 || overScan == 0 {
		t.Errorf("the rounds exercised too little")
	}
}

// checkDrained requires that a drained run leaves the engines holding no
// transaction and no wait state, and the coordinators waiting for nothing.
func checkDrained(t *testing.T, sys *System) {
	t.Helper()
	for reg, en := range sys.engines {
		if n := len(en.txns) + len(en.unordered) + len(en.ordered) + len(en.keys) + len(en.cand); n != 0 {
			t.Errorf("region %d still holds %d txns, %d unordered, %d ordered, %d key states, %d candidates",
				reg, len(en.txns), len(en.unordered), len(en.ordered), len(en.keys), len(en.cand))
		}
	}
	for c, co := range sys.coords {
		if co.tab.InFlight() != 0 {
			t.Errorf("coordinator %d still waits for %d transactions", c, co.tab.InFlight())
		}
	}
}

// TestKeyProbesDoNotGrowWithTheQueue bounds the ordering work the way
// PumpScan bounds Tiga's pump: with ten times as many non-conflicting
// multi-home transactions outstanding, an engine examines the same number of
// wait-list entries and key states per committed transaction. (The engine this
// replaced walked the whole queue's keys on every ordering.)
func TestKeyProbesDoNotGrowWithTheQueue(t *testing.T) {
	probesPerTxn := func(outstanding int) float64 {
		total := 3 * outstanding
		names := make([][]string, 3)
		for sh := range names {
			for i := 0; i < total; i++ {
				names[sh] = append(names[sh], oracleKey(sh, i))
			}
		}
		sim := simnet.NewSim(9)
		net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
		sys := New(Spec{Shards: 3, Regions: 3, Net: net,
			CoordRegions: []simnet.Region{0, 1, 2, 3},
			Seed:         func(shard int, st *store.Store) { st.SeedBulk(names[shard], txn.EncodeInt(0)) },
			ExecCost:     time.Microsecond, DDRScan: 256})
		maxQueue := 0
		for _, en := range sys.engines {
			en := en
			en.onCharge = func(*dtxn, bool, time.Duration) {
				maxQueue = max(maxQueue, len(en.unordered)+len(en.ordered))
			}
		}
		next, committed := 0, 0
		var submit func()
		submit = func() {
			if next == total {
				return
			}
			i := next
			next++
			a, b := i%3, (i+1)%3
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPieceID(names[a][i], txn.KeyID(i)).On(a),
				txn.IncrementPieceID(names[b][i], txn.KeyID(i)).On(b),
			)}
			sys.Submit(i%len(sys.coords), tx, func(txn.Result) {
				committed++
				submit()
			})
		}
		sim.At(10*time.Millisecond, func() {
			for i := 0; i < outstanding; i++ {
				submit()
			}
		})
		sim.Run(time.Minute)
		if committed != total {
			t.Fatalf("%d outstanding: committed %d of %d", outstanding, committed, total)
		}
		if maxQueue < outstanding/2 {
			t.Fatalf("%d outstanding: the longest queue was %d", outstanding, maxQueue)
		}
		checkDrained(t, sys)
		var probes int64
		for _, en := range sys.engines {
			probes += en.probes
		}
		per := float64(probes) / float64(committed)
		t.Logf("%d outstanding: queue up to %d, %.1f key probes per committed transaction", outstanding, maxQueue, per)
		return per
	}
	small := probesPerTxn(200)
	if testing.Short() {
		return
	}
	if large := probesPerTxn(2000); large > 1.5*small {
		t.Errorf("key probes per transaction grew from %.1f at 200 outstanding to %.1f at 2000", small, large)
	}
}

// hotRun submits, from each of the coordinators in regions 0, 1 and 2,
// perCoord increments of the hot key of each of the three shards, a
// millisecond apart, on a jitter-free WAN (replicated writes carry values and are applied
// as they arrive, so only FIFO links keep the copies equal). burn(c) one-key
// transactions go first from coordinator c to move its sequence numbers on. It
// returns the order in which each engine executed the hot transactions.
func hotRun(t *testing.T, perCoord int, burn func(coord int) int) [][]uint64 {
	t.Helper()
	sim := simnet.NewSim(11)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	sys := New(Spec{Shards: 3, Regions: 3, Net: net, CoordRegions: []simnet.Region{0, 1, 2},
		ExecCost: time.Microsecond, DDRScan: 256})
	order := make([][]uint64, len(sys.engines))
	hot := make(map[uint64]bool)
	for i, en := range sys.engines {
		i := i
		en.onCharge = func(d *dtxn, exec bool, _ time.Duration) {
			if exec && hot[tid(d.t.ID)] {
				order[i] = append(order[i], tid(d.t.ID))
			}
		}
	}
	committed, want := 0, 0
	done := func(r txn.Result) {
		if r.OK {
			committed++
		}
	}
	for c := 0; c < 3; c++ {
		c := c
		for i := 0; i < burn(c); i++ {
			want++
			key := fmt.Sprintf("burn%d-%d", c, i)
			sim.At(time.Millisecond, func() {
				sys.Submit(c, &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece(key).On(c))}, done)
			})
		}
		for i := 0; i < perCoord; i++ {
			want++
			sim.At(time.Second+time.Duration(i)*time.Millisecond, func() {
				tx := &txn.Txn{Pieces: txn.ByShard(
					txn.IncrementPiece(oracleKey(0, 0)).On(0),
					txn.IncrementPiece(oracleKey(1, 0)).On(1),
					txn.IncrementPiece(oracleKey(2, 0)).On(2),
				)}
				sys.Submit(c, tx, done)
				hot[tid(tx.ID)] = true
			})
		}
	}
	sim.Run(time.Minute)
	if committed != want {
		t.Fatalf("committed %d of %d", committed, want)
	}
	checkDrained(t, sys)
	for reg := 1; reg < 3; reg++ {
		for sh := 0; sh < 3; sh++ {
			if !sys.Store(0, sh).Equal(sys.Store(reg, sh)) {
				t.Errorf("region %d shard %d copy diverged", reg, sh)
			}
		}
	}
	for sh := 0; sh < 3; sh++ {
		if got := txn.DecodeInt(sys.Store(0, sh).Get(oracleKey(sh, 0))); got != int64(3*perCoord) {
			t.Errorf("hot key of shard %d = %d, want %d", sh, got, 3*perCoord)
		}
	}
	return order
}

// sameOrder reports the first pair of transactions two engines executed in
// opposite orders.
func sameOrder(t *testing.T, order [][]uint64) {
	t.Helper()
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			pos := make(map[uint64]int, len(order[j]))
			for n, id := range order[j] {
				pos[id] = n
			}
			last, lastID := -1, uint64(0)
			for _, id := range order[i] {
				n, common := pos[id]
				if !common {
					continue
				}
				if n < last {
					t.Errorf("region %d executed %#x before %#x, region %d after it", i, lastID, id, j)
					return
				}
				last, lastID = n, id
			}
		}
	}
}

// TestRegionsExecuteConflictsInOneOrder: after a drained run of conflicting
// multi-home transactions every region holds the same data and any two engines
// executed the transactions they share in the same order. The coordinators'
// sequence numbers are kept 1000 apart, so no two order keys are equal.
func TestRegionsExecuteConflictsInOneOrder(t *testing.T) {
	sameOrder(t, hotRun(t, 80, func(coord int) int { return 1000 * coord }))
}

// TestEqualOrderKeysDivergeAcrossRegions pins a fault of the order key: it
// keeps only the low 16 bits of the id, which is the coordinator's own
// sequence number, so transactions of different coordinators collide — and
// each engine then breaks the tie by its own queue history. With three
// coordinators in step, two engines execute one pair of conflicting
// transactions in opposite orders. Fixing the key moves every Detock number,
// so it is left for its own change (ROADMAP, carried over).
func TestEqualOrderKeysDivergeAcrossRegions(t *testing.T) {
	t.Skip("known fault: equal order keys are broken by engine-local queue history")
	sameOrder(t, hotRun(t, 80, func(int) int { return 0 }))
}

// TestMessagesComeHome drains a lossless, contended run: three coordinators,
// one of them remote, submit increments of one of three hot keys on every
// shard, so each transaction has three home regions, exchanges sequence
// numbers and queues behind its predecessors. Every handler scribbles over
// each pooled message once it has handled it, the way the sender's next
// message would, and an engine over the record it recycled, the way the next
// transaction's execution would: a field read after the Put reads garbage.
// Every message was delivered, so every one is back on its sender's list,
// every engine record and coordinator record is back on its list, on every
// key the values reported are 1 to its commit count, each once, and the three
// regions hold equal copies.
func TestMessagesComeHome(t *testing.T) {
	sim := simnet.NewSim(5)
	sys := New(Spec{
		Shards: 3, Regions: 3, Net: simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)),
		CoordRegions: []simnet.Region{0, 2, 3},
		Seed: func(shard int, st *store.Store) {
			for k := 0; k < 3; k++ {
				st.Seed(oracleKey(shard, k), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, GraphCost: time.Microsecond, DDRScan: 256,
	})
	for _, en := range sys.engines {
		en.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			var id uint64
			var rec *dtxn
			if m, ok := msg.(*replAck); ok {
				id = tid(m.ID)
				rec = en.txns[id]
			}
			en.handle(from, msg)
			if rec != nil && en.txns[id] == nil {
				for i := range rec.rets {
					rec.rets[i].Ret = txn.EncodeInt(-1)
				}
			}
			switch m := msg.(type) {
			case *seqInfo:
				*m = seqInfo{src: m.src, ID: txn.ID{Coord: -1}, Seq: 1 << 40}
			case *replWrite:
				for i := range m.Writes {
					m.Writes[i] = store.Write{Name: "scribbled", Val: txn.EncodeInt(-1)}
				}
				*m = replWrite{src: m.src, ID: txn.ID{Coord: -1}, Shard: -1, Writes: m.Writes}
			case *replAck:
				*m = replAck{src: m.src, ID: txn.ID{Coord: -1}}
			}
		})
	}
	for _, co := range sys.coords {
		co.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			co.handle(from, msg)
			if m, ok := msg.(*resultMsg); ok {
				for i := range m.Ret {
					m.Ret[i].Ret = txn.EncodeInt(-1)
				}
				*m = resultMsg{src: m.src, ID: txn.ID{Coord: -1}, Ret: m.Ret}
			}
		})
	}
	const n = 60
	committed := 0
	reported := make([][3]map[int64]int, 3)
	for i := 0; i < n; i++ {
		sim.At(time.Duration(50+10*i)*time.Millisecond, func() {
			k := i % 3
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(oracleKey(0, k)).On(0),
				txn.IncrementPiece(oracleKey(1, k)).On(1),
				txn.IncrementPiece(oracleKey(2, k)).On(2),
			)}
			sys.Submit(i%3, tx, func(r txn.Result) {
				if !r.OK {
					return
				}
				committed++
				for _, out := range r.PerShard {
					if reported[k][out.Shard] == nil {
						reported[k][out.Shard] = map[int64]int{}
					}
					reported[k][out.Shard][txn.DecodeInt(out.Ret)]++
				}
			})
		})
	}
	for sim.Step() {
	}
	if committed != n {
		t.Fatalf("%d of %d committed", committed, n)
	}
	checkDrained(t, sys)
	for k, shards := range reported {
		for sh, vals := range shards {
			want := txn.DecodeInt(sys.Store(0, sh).Get(oracleKey(sh, k)))
			for v := int64(1); v <= want; v++ {
				if vals[v] != 1 {
					t.Errorf("%s: value %d reported %d times", oracleKey(sh, k), v, vals[v])
				}
			}
			if len(vals) != int(want) || want == 0 {
				t.Errorf("%s: %d values reported for %d commits", oracleKey(sh, k), len(vals), want)
			}
		}
	}
	for reg := 1; reg < 3; reg++ {
		for sh := 0; sh < 3; sh++ {
			if !sys.Store(0, sh).Equal(sys.Store(reg, sh)) {
				t.Errorf("region %d shard %d copy diverged", reg, sh)
			}
		}
	}
	for reg, en := range sys.engines {
		for _, l := range []struct {
			what       string
			news, idle int
		}{
			{"sequence exchanges", en.infos.News, en.infos.Idle()},
			{"replicated writes", en.repls.News, en.repls.Idle()},
			{"replication acks", en.acks.News, en.acks.Idle()},
			{"results", en.results.News, en.results.Idle()},
			{"records", en.recs.News, en.recs.Idle()},
		} {
			if l.news == 0 || l.news != l.idle {
				t.Errorf("region %d %s: %d allocated, %d back", reg, l.what, l.news, l.idle)
			}
		}
	}
	for c, co := range sys.coords {
		if co.tab.News() == 0 || co.tab.News() != co.tab.Idle() {
			t.Errorf("coordinator %d: %d records allocated, %d back", c, co.tab.News(), co.tab.Idle())
		}
	}
}

// TestSteadyCommitAllocatesPerTransaction: once the freelists are warm, a
// transaction with a piece homed in each of three regions allocates per
// transaction and not per message or per region: nothing but amortised growth.
// The home request its three engines share and the result list handed to the
// caller are carved from the coordinator's arenas, and the maps that index the
// engines' records and the coordinator's pending transactions grow.
func TestSteadyCommitAllocatesPerTransaction(t *testing.T) {
	pool.Check = false // its id maps allocate
	defer func() { pool.Check = true }()
	sim := simnet.NewSim(1)
	zero := [][]time.Duration{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	net := simnet.NewNetwork(sim, simnet.Config{OWD: simnet.SymmetricOWD(zero, 0)})
	sys := New(Spec{
		Shards: 3, Regions: 3, Net: net,
		CoordRegions: []simnet.Region{0},
		Seed: func(shard int, st *store.Store) {
			for k := 0; k < 8; k++ {
				st.Seed(oracleKey(shard, k), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond, GraphCost: time.Microsecond, DDRScan: 256,
	})
	txns := make([]*txn.Txn, 1200)
	for i := range txns {
		k := i % 8
		txns[i] = &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPieceID(oracleKey(0, k), txn.KeyID(k)).On(0),
			txn.IncrementPieceID(oracleKey(1, k), txn.KeyID(k)).On(1),
			txn.IncrementPieceID(oracleKey(2, k), txn.KeyID(k)).On(2),
		)}
	}
	next, committed := 0, 0
	done := func(r txn.Result) {
		if r.OK {
			committed++
		}
	}
	step := func() {
		sys.Submit(0, txns[next], done)
		next++
		for sim.Step() {
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if committed != next {
		t.Fatalf("%d submitted, %d committed", next, committed)
	}
	for reg := 0; reg < 3; reg++ {
		if got := txn.DecodeInt(sys.Store(reg, 2).Get(oracleKey(2, 7))); got != int64(next/8) {
			t.Fatalf("%s = %d in region %d after %d transactions", oracleKey(2, 7), got, reg, next)
		}
	}
	checkDrained(t, sys)
	t.Logf("%.2f allocations per transaction", allocs)
	if allocs > 1 {
		t.Fatalf("%.2f allocations per transaction, want the amortised growth alone", allocs)
	}
}
