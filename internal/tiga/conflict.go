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
}

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
	if t.stamp++; t.stamp != 0 {
		return
	}
	for i := 0; i < t.entries.Len(); i++ {
		e := t.entries.At(uint32(i))
		e.stamp = 0
		e.flags &^= blockedR | blockedW
	}
}

// ---- §3.2 conflict detection on a record's cached entries ----

// passes reports whether ts is larger than every released conflicting
// transaction's timestamp on r's read/write sets (Alg. 1 line 2).
func (t *conflictTable) passes(r *rec, ts txn.Timestamp) bool {
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
}

// blockedBy reports whether a parked record, or one this pump found blocked,
// conflicts with r.
func (t *conflictTable) blockedBy(r *rec) bool {
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
}

// park counts r on its keys' parked counts (d = 1), or takes it off (d = -1).
func (t *conflictTable) park(r *rec, d int32) {
	for _, i := range r.reads() {
		t.entries.At(i).parkR += d
	}
	for _, i := range r.writes() {
		t.entries.At(i).parkW += d
	}
	t.parked += int(d) * len(r.refs)
}
