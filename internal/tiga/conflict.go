package tiga

import (
	"time"

	"tiga/internal/pool"
	"tiga/internal/txn"
)

// keyState is everything a server knows about one key its transactions have
// touched: Alg. 1's read and write timestamps (rMap/wMap), the number of
// parked records reading and writing the key, and whether a record the
// current pump found blocked reads or writes it. One entry is one cache line.
type keyState struct {
	// rts/wts mean something only under hasR/hasW: a key nothing has read is
	// not a key read at the zero timestamp, because clocks read negative near
	// t = 0 and a transaction stamped there must still pass conflict detection.
	rts, wts     txn.Timestamp
	parkR, parkW int32
	// stamp is the pump (conflictTable.stamp) the blocked bits belong to; under
	// any other stamp they read as clear, which is how a pump's blocked sets
	// are emptied without visiting them.
	stamp uint32
	flags uint8
}

const (
	hasR uint8 = 1 << iota
	hasW
	blockedR
	blockedW
)

// blocked returns the entry's blocked bits as of pump stamp.
func (e *keyState) blocked(stamp uint32) uint8 {
	if e.stamp != stamp {
		return 0
	}
	return e.flags & (blockedR | blockedW)
}

func (e *keyState) block(stamp uint32, bit uint8) {
	if e.stamp != stamp {
		e.stamp = stamp
		e.flags &^= blockedR | blockedW
	}
	e.flags |= bit
}

func (e *keyState) noteRead(ts txn.Timestamp) {
	if e.flags&hasR == 0 || e.rts.Less(ts) {
		e.rts = ts
		e.flags |= hasR
	}
}

func (e *keyState) noteWrite(ts txn.Timestamp) {
	if e.flags&hasW == 0 || e.wts.Less(ts) {
		e.wts = ts
		e.flags |= hasW
	}
}

// readAfter/writtenAfter report whether the key was read/written at or after ts.
func (e *keyState) readAfter(ts txn.Timestamp) bool { return e.flags&hasR != 0 && !e.rts.Less(ts) }

func (e *keyState) writtenAfter(ts txn.Timestamp) bool { return e.flags&hasW != 0 && !e.wts.Less(ts) }

const (
	arenaChunk = 2048 // references per arena chunk (8 KB)
	groupBits  = 3    // index slots per group: 8 of 8 B, one cache line
)

// indexSlot is one slot of the table's key index; ref is the entry's number
// plus one, zero marking a free slot.
type indexSlot struct {
	key txn.KeyID
	ref uint32
}

// conflictTable is one server's conflict state: a slab with one keyState per
// key touched so far, an open-addressing index from KeyID to entry, and the
// arena records keep their entry references in. It is sized by the keys
// touched, never by the keyspace; entries are numbered in order of first touch
// and are never deleted or moved (pool.Slab), so a record resolves its keys
// once (Server.attach) and every conflict check after that indexes the slab
// directly. The zero value is an empty table.
type conflictTable struct {
	entries pool.Slab[keyState]
	// index has a power-of-two length and stays at most half full (linear
	// probing, no deletions); shift takes a 32-bit hash to a group of slots.
	index []indexSlot
	shift uint8
	// stamp numbers the pump whose blocked bits are live (keyState.stamp).
	stamp uint32
	// parked totals the entries' parked counts.
	parked int
	arena  []uint32
	// lookups counts by-key lookups: one per key per access set of every record
	// attached, however many pumps examine the record afterwards.
	lookups int64
	// onEvent is a test hook called with every update of the table and every
	// answer it gives (nil outside tests): the differential oracle feeds a copy
	// of the map-based sets from it and compares the answers. reset keeps it.
	onEvent func(conflictEvent)
}

// conflictOp names what the conflict table was told or asked.
type conflictOp uint8

const (
	opNote          conflictOp = iota // the keys' timestamps rise to ts
	opPark                            // the keys' parked counts go up
	opUnpark                          // and down
	opBlock                           // the keys join this pump's blocked sets
	opEndPump                         // which are emptied
	opConflictOK                      // passes at ts answered ok
	opMinAcceptable                   // minAcceptable answered min
	opBlockedBy                       // blockedBy answered ok
)

// conflictEvent is one update of, or answer from, the conflict table
// (conflictTable.onEvent). piece carries the access sets concerned; it is nil
// for opEndPump.
type conflictEvent struct {
	op    conflictOp
	piece *txn.Piece
	ts    txn.Timestamp
	ok    bool
	min   time.Duration
}

// observe hands ev to the test hook, if one is armed.
func (t *conflictTable) observe(ev conflictEvent) {
	if t.onEvent != nil {
		t.onEvent(ev)
	}
}

// reset empties the table, as a server does when it replaces its store: the
// new store numbers inserted keys afresh. The test hook stays armed.
func (t *conflictTable) reset() { *t = conflictTable{onEvent: t.onEvent} }

// slot returns k's index slot: the one holding it, or the free one it belongs
// in. KeyIDs are small dense integers and a piece's keys are often neighbours
// (the columns of one TPC-C row are numbered together), so ids are hashed by
// groups of eight — Fibonacci hashing spreads the groups — and the ids of a
// group start their probes in one cache line of the index, each at its own slot.
func (t *conflictTable) slot(k txn.KeyID) *indexSlot {
	mask := uint32(len(t.index) - 1)
	for i := ((k>>groupBits)*2654435769>>t.shift)<<groupBits | k&(1<<groupBits-1); ; i = (i + 1) & mask {
		if s := &t.index[i]; s.ref == 0 || s.key == k {
			return s
		}
	}
}

// entry returns the number of k's entry, adding an empty one on first touch.
// It is the table's only by-key lookup.
func (t *conflictTable) entry(k txn.KeyID) uint32 {
	t.lookups++
	if 2*t.entries.Len() >= len(t.index) {
		t.growIndex()
	}
	s := t.slot(k)
	if s.ref == 0 {
		*s = indexSlot{key: k, ref: t.entries.Add() + 1}
	}
	return s.ref - 1
}

func (t *conflictTable) growIndex() {
	old := t.index
	if len(old) == 0 {
		t.index, t.shift = make([]indexSlot, 64), 32-(6-groupBits)
	} else {
		t.index, t.shift = make([]indexSlot, 2*len(old)), t.shift-1
	}
	for _, s := range old {
		if s.ref != 0 {
			*t.slot(s.key) = s
		}
	}
}

// refs carves room for n entry references out of the arena: a record's cache
// of its keys costs no allocation of its own.
func (t *conflictTable) refs(n int) []uint32 {
	if n > cap(t.arena)-len(t.arena) {
		t.arena = make([]uint32, 0, max(n, arenaChunk))
	}
	at := len(t.arena)
	t.arena = t.arena[:at+n]
	return t.arena[at : at+n : at+n]
}

// endPump empties the blocked sets by moving to the next pump stamp. When the
// stamp wraps, a stamp left behind 2^32 pumps ago could read as current, so
// that once every entry is cleared by hand.
func (t *conflictTable) endPump() {
	if t.stamp++; t.stamp == 0 {
		for i := 0; i < t.entries.Len(); i++ {
			e := t.entries.At(uint32(i))
			e.stamp = 0
			e.flags &^= blockedR | blockedW
		}
	}
	t.observe(conflictEvent{op: opEndPump})
}

// ---- §3.2 conflict detection on a record's cached entries ----

// passes reports whether ts is larger than every released conflicting
// transaction's timestamp on r's read/write sets (Alg. 1 line 2).
func (t *conflictTable) passes(r *rec, ts txn.Timestamp) bool {
	ok := t.passesAt(r, ts)
	t.observe(conflictEvent{op: opConflictOK, piece: r.piece, ts: ts, ok: ok})
	return ok
}

func (t *conflictTable) passesAt(r *rec, ts txn.Timestamp) bool {
	for _, i := range r.reads() {
		if t.entries.At(i).writtenAfter(ts) {
			return false
		}
	}
	for _, i := range r.writes() {
		if e := t.entries.At(i); e.writtenAfter(ts) || e.readAfter(ts) {
			return false
		}
	}
	return true
}

// minAcceptable returns the smallest timestamp time that passes conflict
// detection for r (used for leader timestamp updates).
func (t *conflictTable) minAcceptable(r *rec) time.Duration {
	var last txn.Timestamp
	for _, i := range r.reads() {
		if e := t.entries.At(i); e.flags&hasW != 0 && last.Less(e.wts) {
			last = e.wts
		}
	}
	for _, i := range r.writes() {
		e := t.entries.At(i)
		if e.flags&hasW != 0 && last.Less(e.wts) {
			last = e.wts
		}
		if e.flags&hasR != 0 && last.Less(e.rts) {
			last = e.rts
		}
	}
	t.observe(conflictEvent{op: opMinAcceptable, piece: r.piece, min: last.Time + 1})
	return last.Time + 1
}

// note raises the read/write timestamps of r's keys to ts (Alg. 1 lines
// 14–15).
func (t *conflictTable) note(r *rec, ts txn.Timestamp) {
	for _, i := range r.reads() {
		t.entries.At(i).noteRead(ts)
	}
	for _, i := range r.writes() {
		t.entries.At(i).noteWrite(ts)
	}
	t.observe(conflictEvent{op: opNote, piece: r.piece, ts: ts})
}

// blockedBy reports whether an earlier pending record conflicts with r: a
// parked one (the keys' parked counts) or one this pump found blocked (their
// blocked bits). Consulting the parked counts without regard to queue position
// is sound because no record ever sits before a conflicting parked one: nothing
// before it conflicted when it was processed (it would have been blocked), it
// is parked only while the table records its current timestamp (rec.mapped),
// which pushes every later conflicting admission past it, and repositioning
// only moves records later — unparking them, and leaving them unmapped until
// recordMaps runs again (a preventive-mode record repositioned after proposing
// is never re-parked: its timestamps stay at the proposal until release).
func (t *conflictTable) blockedBy(r *rec) bool {
	blocked := t.blocks(r)
	t.observe(conflictEvent{op: opBlockedBy, piece: r.piece, ok: blocked})
	return blocked
}

func (t *conflictTable) blocks(r *rec) bool {
	for _, i := range r.reads() {
		if e := t.entries.At(i); e.parkW > 0 || e.blocked(t.stamp)&blockedW != 0 {
			return true
		}
	}
	for _, i := range r.writes() {
		if e := t.entries.At(i); e.parkW > 0 || e.parkR > 0 || e.blocked(t.stamp) != 0 {
			return true
		}
	}
	return false
}

// block adds r's keys to this pump's blocked sets.
func (t *conflictTable) block(r *rec) {
	for _, i := range r.reads() {
		t.entries.At(i).block(t.stamp, blockedR)
	}
	for _, i := range r.writes() {
		t.entries.At(i).block(t.stamp, blockedW)
	}
	t.observe(conflictEvent{op: opBlock, piece: r.piece})
}

// park marks a queued record as waiting for agreement only and counts it on
// its keys.
func (t *conflictTable) park(r *rec) {
	r.parked = true
	t.count(r, 1)
	t.observe(conflictEvent{op: opPark, piece: r.piece})
}

// unpark undoes park; every transition that makes a parked record runnable
// again or takes it out of the queue calls it (agreement, release, erase,
// reposition). A no-op for records that are not parked.
func (t *conflictTable) unpark(r *rec) {
	if !r.parked {
		return
	}
	r.parked = false
	t.count(r, -1)
	t.observe(conflictEvent{op: opUnpark, piece: r.piece})
}

// count adds d to the parked counts of r's keys.
func (t *conflictTable) count(r *rec, d int32) {
	for _, i := range r.reads() {
		t.entries.At(i).parkR += d
	}
	for _, i := range r.writes() {
		t.entries.At(i).parkW += d
	}
	t.parked += int(d) * len(r.refs)
}
