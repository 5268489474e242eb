package tiga

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// shadowSets is the differential oracle for the conflict table (conflict.go):
// the six KeyID-keyed maps the server kept before it — rMap/wMap (Alg. 1),
// parkR/parkW, blockedR/blockedW — with the code that read and wrote them,
// fed from the table's onEvent hook. Where the table answers from the entries a
// record cached at attach, the shadow resolves the piece's keys through the
// store on every event, as the maps' callers did, so a stale or misplaced
// reference, a lost present bit or a blocked bit that outlives its pump shows up
// as a different answer. Every passes, minAcceptable and blockedBy answer is
// compared, and after every park and unpark the parked counts of the piece's
// keys and the table's total.
type shadowSets struct {
	t   *testing.T
	s   *Server
	cov *oracleCoverage
	// st is the store the maps' ids are of. A log install replaces the store,
	// and the new one numbers inserted keys in replay order: the maps start
	// over with it, whether or not the server remembered that its table must.
	st *store.Store

	rMap, wMap         map[txn.KeyID]txn.Timestamp
	parkR, parkW       map[txn.KeyID]int
	blockedR, blockedW map[txn.KeyID]bool
	parked             int
}

// oracleCoverage counts, over every server it is armed on, the answers checked
// and the cases a test must have driven to mean anything.
type oracleCoverage struct {
	answers int
	// nonPositive: conflictOK passed at a timestamp at or below zero — a key
	// absent from the maps is not a key touched at the zero timestamp.
	nonPositive int
	// readOnly: conflictOK refused a writer because of a key that had only
	// ever been read (in rMap, absent from wMap).
	readOnly int
	// blocked: blockedBy answered true; parks: records parked.
	blocked, parks int
	// resets: the maps started over because a log install replaced the store.
	resets int
}

// armShadow arms a shadowSets on s.
func armShadow(t *testing.T, s *Server, cov *oracleCoverage) {
	sh := &shadowSets{t: t, s: s, cov: cov}
	sh.reset()
	s.keys.onEvent = sh.on
}

// armShadows arms the oracle on every server of c.
func armShadows(t *testing.T, c *Cluster) *oracleCoverage {
	cov := &oracleCoverage{}
	for _, shard := range c.Servers {
		for _, s := range shard {
			armShadow(t, s, cov)
		}
	}
	return cov
}

func (sh *shadowSets) reset() {
	sh.st = sh.s.st
	sh.rMap, sh.wMap = map[txn.KeyID]txn.Timestamp{}, map[txn.KeyID]txn.Timestamp{}
	sh.parkR, sh.parkW = map[txn.KeyID]int{}, map[txn.KeyID]int{}
	sh.blockedR, sh.blockedW = map[txn.KeyID]bool{}, map[txn.KeyID]bool{}
	sh.parked = 0
}

// storeIDs resolves a declared set to st's ids, key by key (store.ID).
func storeIDs(st *store.Store, names []string, ids []txn.KeyID) []txn.KeyID {
	out := make([]txn.KeyID, len(names))
	for i := range names {
		out[i] = st.ID(names, ids, i)
	}
	return out
}

func (sh *shadowSets) on(ev conflictEvent) {
	s, t := sh.s, sh.t
	if s.st != sh.st {
		sh.reset()
		sh.cov.resets++
	}
	if ev.op == opEndPump {
		clear(sh.blockedR)
		clear(sh.blockedW)
		return
	}
	p := ev.piece
	reads, writes := storeIDs(s.st, p.ReadSet, p.ReadIDs), storeIDs(s.st, p.WriteSet, p.WriteIDs)
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("shard %d replica %d at %v: %s on reads %v writes %v (ts %v) = %v, the maps say %v",
			s.shard, s.replica, s.cluster.Net.Sim().Now(), what, p.ReadSet, p.WriteSet, ev.ts, got, want)
	}
	switch ev.op {
	case opNote:
		for _, k := range reads {
			if cur, ok := sh.rMap[k]; !ok || cur.Less(ev.ts) {
				sh.rMap[k] = ev.ts
			}
		}
		for _, k := range writes {
			if cur, ok := sh.wMap[k]; !ok || cur.Less(ev.ts) {
				sh.wMap[k] = ev.ts
			}
		}
	case opConflictOK:
		want, byReadOnly := true, false
		for _, k := range reads {
			if w, ok := sh.wMap[k]; ok && !w.Less(ev.ts) {
				want = false
			}
		}
		for _, k := range writes {
			w, written := sh.wMap[k]
			if written && !w.Less(ev.ts) {
				want = false
			}
			if r, ok := sh.rMap[k]; ok && !r.Less(ev.ts) {
				want = false
				byReadOnly = byReadOnly || !written
			}
		}
		if ev.ok != want {
			fail("conflictOK", ev.ok, want)
		}
		sh.cov.answers++
		if want && ev.ts.Time <= 0 {
			sh.cov.nonPositive++
		}
		if byReadOnly {
			sh.cov.readOnly++
		}
	case opMinAcceptable:
		var max txn.Timestamp
		for _, k := range reads {
			if w, ok := sh.wMap[k]; ok && max.Less(w) {
				max = w
			}
		}
		for _, k := range writes {
			if w, ok := sh.wMap[k]; ok && max.Less(w) {
				max = w
			}
			if r, ok := sh.rMap[k]; ok && max.Less(r) {
				max = r
			}
		}
		if ev.min != max.Time+1 {
			fail("minAcceptable", ev.min, max.Time+1)
		}
		sh.cov.answers++
	case opBlockedBy:
		want := false
		for _, k := range reads {
			want = want || sh.parkW[k] > 0 || sh.blockedW[k]
		}
		for _, k := range writes {
			want = want || sh.parkW[k] > 0 || sh.blockedW[k] || sh.parkR[k] > 0 || sh.blockedR[k]
		}
		if ev.ok != want {
			fail("blockedBy", ev.ok, want)
		}
		sh.cov.answers++
		if want {
			sh.cov.blocked++
		}
	case opBlock:
		for _, k := range reads {
			sh.blockedR[k] = true
		}
		for _, k := range writes {
			sh.blockedW[k] = true
		}
	case opPark, opUnpark:
		d := 1
		if ev.op == opUnpark {
			d = -1
		} else {
			sh.cov.parks++
		}
		for _, k := range reads {
			sh.parkR[k] += d
		}
		for _, k := range writes {
			sh.parkW[k] += d
		}
		sh.parked += d * (len(reads) + len(writes))
		for _, k := range append(append([]txn.KeyID(nil), reads...), writes...) {
			if r, w := s.keys.parkedOn(k); int(r) != sh.parkR[k] || int(w) != sh.parkW[k] {
				fail(fmt.Sprintf("parked counts of key %d", k), [2]int32{r, w}, [2]int{sh.parkR[k], sh.parkW[k]})
			}
		}
		if s.keys.parked != sh.parked {
			fail("parked total", s.keys.parked, sh.parked)
		}
	}
}

// logFirst counts the records c's followers first heard of through log-sync:
// the multicast never reached them, so their keys were resolved by applySync.
func logFirst(c *Cluster) int {
	n := 0
	for _, shard := range c.Servers {
		for _, s := range shard {
			for _, r := range s.recs {
				if r.piece != nil && r.released && !r.executed && r.arriveS == 0 {
					n++
				}
			}
		}
	}
	return n
}

// checkDrained asserts what a server must have let go of once its load has
// drained, every transaction committed: no live agreement object, no record
// left in the optimistic tail, no buffered log-sync, nothing queued or parked;
// and what it must still account for: a record, live or retired, of every
// entry of its log. A server left behind in an old view (a deposed leader that
// was partitioned away) holds whatever it held then and is passed over.
func checkDrained(t *testing.T, c *Cluster) {
	t.Helper()
	checkState(t, c)
	for sh, shard := range c.Servers {
		for rep, s := range shard {
			z := s.StateSizes()
			if s.view.GView == c.VMs[0].view.GView && (z.Agreements != 0 || z.TailRecords != 0 || z.BufferedSyncs != 0 || z.Parked != 0 || s.pq.len() != 0 || z.Records+z.Retired < z.LogLen) {
				t.Errorf("shard %d replica %d after the drain: %d queued, %+v", sh, rep, s.pq.len(), z)
			}
		}
	}
}

// checkState asserts what holds of a server's bookkeeping at any time, drained
// or stuck: the queue never had to repair itself (a record was always erased
// from where its timestamp said it was); every live agreement object belongs
// to a record of a multi-shard transaction (or a placeholder) that has not
// agreed and is not released, which points back at it — what resendAgreements
// relies on when it walks them; the tail count is the number of records flagged;
// every record is an entry of the server's current record slab (checkRecSlab).
func checkState(t *testing.T, c *Cluster) {
	t.Helper()
	for sh, shard := range c.Servers {
		for rep, s := range shard {
			if n := s.StateSizes().EraseFallbacks; n != 0 {
				t.Errorf("shard %d replica %d: %d queue erases fell back to a linear scan", sh, rep, n)
			}
			for i, a := range s.agreements {
				if a.slot != i || a.r.ag != a || a.r.agreed || a.r.released || s.recs[a.r.id] != a.r || (a.r.t != nil && !a.r.multiShard()) {
					t.Errorf("shard %d replica %d: agreement %d (slot %d) of %v: agreed %v released %v", sh, rep, i, a.slot, a.r.id, a.r.agreed, a.r.released)
				}
			}
			live, tails := 0, 0
			for _, r := range s.recs {
				if r.ag != nil {
					live++
				}
				if r.tail {
					tails++
				}
			}
			if live != len(s.agreements) || tails != s.tails {
				t.Errorf("shard %d replica %d: %d records carry agreements, %d are live; %d are flagged tail, %d counted", sh, rep, live, len(s.agreements), tails, s.tails)
			}
			checkRecSlab(t, s)
		}
	}
}

// TestOracleNearTimeZero: chrony clocks read a few milliseconds either side of
// true time, so at zero headroom the transactions of the first milliseconds of
// a run carry timestamps at or below zero. A table that took "no timestamp
// yet" for the zero timestamp would refuse every one of them (zero is not
// before a negative timestamp); the maps never did. The load mixes increments
// of hot keys with pieces that read one key — never written by anyone — and
// write another, from six coordinators, in both agreement modes.
func TestOracleNearTimeZero(t *testing.T) {
	for _, mode := range []Mode{ModePreventive, ModeDetective} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.Mode = mode
			cfg.ZeroHeadroom = true
			coords := []simnet.Region{0, 0, 1, 1, 2, 2}
			pl := ColocatedPlacement(coords)
			if mode == ModeDetective {
				pl = Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: coords}
			}
			sim, c := testCluster(t, 101, cfg, pl, clocks.ModelChrony)
			var sc scanCheck
			armAll(t, c, &sc)
			cov := sc.cov
			early := 0
			for _, co := range c.Coords {
				if co.now() < 0 {
					early++
				}
			}
			if early == 0 {
				t.Fatal("no coordinator clock reads below zero at the start: the run does not exercise the case")
			}
			committed, n := 0, 0
			for i := 0; i < 40; i++ {
				for co := range c.Coords {
					i, co := i, co
					tx := perShard(3, func(sh int) *txn.Piece {
						if (i+co)%3 == 0 {
							// Reads a key nothing writes, writes its own.
							rk, wk := fmt.Sprintf("k%d-99", sh), fmt.Sprintf("k%d-%d", sh, 10+co)
							return &txn.Piece{ReadSet: []string{rk}, WriteSet: []string{wk},
								Exec: txn.Func(func(kv txn.KV) []byte { kv.Put(wk, kv.Get(rk)); return nil })}
						}
						return txn.IncrementPiece(fmt.Sprintf("k%d-%d", sh, i%3))
					})
					sim.At(time.Duration(i)*150*time.Microsecond, func() {
						c.Coords[co].Submit(tx, func(r txn.Result) {
							if r.OK {
								committed++
							}
						})
					})
					n++
				}
			}
			sim.Run(30 * time.Second)
			// At zero headroom the leaders' local bumps diverge and it takes
			// coordinator retries to re-converge their queues; a retry can also
			// move a record another leader has released (retry_test.go), and
			// that transaction never completes. The oracle's subject is every
			// answer on the way, not the count.
			if committed < n/2 {
				t.Fatalf("committed %d of %d", committed, n)
			}
			if cov.nonPositive == 0 || cov.blocked == 0 {
				t.Fatalf("coverage %+v: no conflict check passed at a timestamp at or below zero, or nothing was ever blocked", *cov)
			}
			checkState(t, c)
		})
	}
}

// TestOracleKeyOnlyEverRead: a key that has been read and never written has a
// read timestamp and no write timestamp, and its first writer, arriving late,
// must be refused on the read timestamp alone. Local coordinators read ten
// keys continuously at zero headroom; a remote coordinator then writes each
// once, and by the time a write arrives, reads stamped after it have been
// released.
func TestOracleKeyOnlyEverRead(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.ZeroHeadroom = true
	sim, c := testCluster(t, 103, cfg, ColocatedPlacement([]simnet.Region{0, 0, 3}), clocks.ModelChrony)
	var sc scanCheck
	armAll(t, c, &sc)
	cov := sc.cov
	committed, n := 0, 0
	submit := func(at time.Duration, co int, tx *txn.Txn) {
		sim.At(at, func() {
			c.Coords[co].Submit(tx, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
		n++
	}
	piece := func(sh, key, co int, write bool) *txn.Piece {
		k, own := fmt.Sprintf("k%d-%d", sh, key), fmt.Sprintf("k%d-%d", sh, 50+co)
		if write {
			return &txn.Piece{WriteSet: []string{k}, Exec: txn.Func(func(kv txn.KV) []byte { kv.Put(k, txn.EncodeInt(1)); return nil })}
		}
		return &txn.Piece{ReadSet: []string{k}, WriteSet: []string{own},
			Exec: txn.Func(func(kv txn.KV) []byte { kv.Put(own, kv.Get(k)); return nil })}
	}
	for i := 0; i < 400; i++ {
		for co := 0; co < 2; co++ {
			tx := perShard(3, func(sh int) *txn.Piece { return piece(sh, i%10, co, false) })
			submit(100*time.Millisecond+time.Duration(i)*500*time.Microsecond, co, tx)
		}
	}
	for key := 0; key < 10; key++ {
		tx := perShard(3, func(sh int) *txn.Piece { return piece(sh, key, 2, true) })
		submit(150*time.Millisecond+time.Duration(key)*5*time.Millisecond, 2, tx)
	}
	sim.Run(30 * time.Second)
	if committed < n/2 { // zero headroom: see TestOracleNearTimeZero
		t.Fatalf("committed %d of %d", committed, n)
	}
	if cov.readOnly == 0 {
		t.Fatalf("coverage %+v: no writer was refused on a key that had only ever been read", *cov)
	}
	checkState(t, c)
}

// TestOracleInstallLogRenumbersInsertedKeys: keys a run inserts get their ids
// in the order each replica first meets them — arrival order, which differs by
// region — and a view change rebuilds every store by replaying the recovered
// log, which numbers them in log order. The conflict table is keyed by those
// ids and the records cache entries found by them, so both must start over
// with the store: afterwards transactions on the renumbered keys still meet
// (every increment serializes) and the table still answers as the maps do.
func TestOracleInstallLogRenumbersInsertedKeys(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	sim, c := testCluster(t, 107, cfg, ColocatedPlacement([]simnet.Region{0, 1, 2}), clocks.ModelChrony)
	cov := armShadows(t, c)
	const keys = 12
	name := func(sh, i int) string { return fmt.Sprintf("ins%d-%d", sh, i) }
	committed, n := 0, 0
	// Three coordinators in three regions insert different keys at the same
	// instants, then keep incrementing all of them across the view change.
	for round := 0; round < 60; round++ {
		for co := 0; co < 3; co++ {
			co := co
			tx := perShard(3, func(sh int) *txn.Piece { return txn.IncrementPiece(name(sh, (round*3+co)%keys)) })
			sim.At(100*time.Millisecond+time.Duration(round)*40*time.Millisecond, func() {
				c.Coords[co].Submit(tx, func(r txn.Result) {
					if r.OK {
						committed++
					}
				})
			})
			n++
		}
	}
	ids := func(s *Server) []txn.KeyID {
		out := make([]txn.KeyID, keys)
		for i := range out {
			out[i], _ = s.Store().Lookup(name(s.shard, i))
		}
		return out
	}
	before := map[*Server][]txn.KeyID{}
	sim.At(700*time.Millisecond, func() {
		for _, shard := range c.Servers {
			for _, s := range shard {
				before[s] = ids(s)
			}
		}
		c.KillServer(1, 0)
	})
	sim.Run(30 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d across the view change", committed, n)
	}
	renumbered := 0
	for s, was := range before {
		if s == c.Servers[1][0] {
			continue
		}
		for i, id := range ids(s) {
			if id != was[i] {
				renumbered++
			}
		}
	}
	if renumbered == 0 || cov.resets == 0 {
		t.Fatalf("%d inserted keys renumbered over %d store replacements: the run does not exercise the case", renumbered, cov.resets)
	}
	for sh := 0; sh < 3; sh++ {
		var sum int64
		for i := 0; i < keys; i++ {
			sum += txn.DecodeInt(c.Leader(sh).Store().Get(name(sh, i)))
		}
		if sum != int64(n) {
			t.Errorf("shard %d: the inserted keys add up to %d after %d increments", sh, sum, n)
		}
	}
	oneTimestampPerTxn(t, c)
	c.Servers[1][0] = c.Servers[1][1] // the dead server holds whatever it died with
	checkDrained(t, c)
}

// TestLateNotificationAllocatesNothing: a timestamp notification that arrives
// after its transaction agreed and was released — a re-broadcast that crossed
// the last round — finds no agreement state and must not start any.
func TestLateNotificationAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.Mode = ModeDetective
	sim, c := testCluster(t, 109, cfg, Placement{ServerRegion: simnet.ServerPlacement(serverRegions, true), CoordRegions: []simnet.Region{0, 1, 2}}, clocks.ModelChrony)
	committed := 0
	n := saturate(sim, c, 1000, 100*time.Millisecond, 200*time.Millisecond, 5*time.Millisecond, &committed)
	sim.Run(10 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	checkDrained(t, c)
	if c.agreements.Gets == 0 {
		t.Fatal("no agreement object was ever drawn: the run does not exercise the case")
	}
	l := c.Leader(0)
	var ids []txn.ID
	for id := range l.recs {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareIDs)
	gets, recs := c.agreements.Gets, len(l.recs)
	for _, id := range ids {
		for round := 1; round <= 2; round++ {
			l.onTsNotification(c.Leader(1).node.ID(), &tsNotification{
				viewInfo: viewInfo{GView: l.view.GView, LView: l.view.GVec[1]}, Shard: 1, ID: id, TS: l.recs[id].ts, Round: round,
			})
		}
	}
	if c.agreements.Gets != gets || len(l.recs) != recs || l.StateSizes().Agreements != 0 {
		t.Errorf("late notifications drew %d agreement objects and left %d live (%d new records)",
			c.agreements.Gets-gets, l.StateSizes().Agreements, len(l.recs)-recs)
	}
}

// TestConflictLookupsOncePerKey pins the cost model of the conflict table: a
// record's keys go through the table's index once, when its piece is attached,
// and never again — however many pumps examine the record while it queues on
// a contended key.
func TestConflictLookupsOncePerKey(t *testing.T) {
	var sc scanCheck
	committed := 0
	sim, c := parkedCluster(t, &sc)
	n := saturate(sim, c, 20, 100*time.Millisecond, 400*time.Millisecond, time.Millisecond, &committed)
	sim.Run(60 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	for sh, shard := range c.Servers {
		for rep, s := range shard {
			attached := int64(0)
			for _, r := range s.recs {
				attached += int64(len(r.refs))
			}
			if s.keys.lookups != attached || attached != int64(2*n) {
				t.Errorf("shard %d replica %d: %d index lookups for %d keys attached (%d transactions of one read-write key)",
					sh, rep, s.keys.lookups, attached, n)
			}
			if s.IsLeader() && s.PumpScan < 2*int64(n) {
				t.Errorf("shard %d leader: %d pump scans of %d records: the run is not contended", sh, s.PumpScan, n)
			}
		}
	}
	checkDrained(t, c)
}
