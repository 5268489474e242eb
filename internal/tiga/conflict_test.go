package tiga

import (
	"sort"
	"testing"

	"tiga/internal/txn"
)

// parkedOn returns how many parked records read and write key k, without
// adding an entry for a key nothing has touched.
func (t *conflictTable) parkedOn(k txn.KeyID) (r, w int32) {
	if len(t.index) == 0 {
		return 0, 0
	}
	if s := t.slot(k); s.ref != 0 {
		e := t.entries.At(s.ref - 1)
		return e.parkR, e.parkW
	}
	return 0, 0
}

// TestPumpStampWraps: the blocked bits are emptied by moving to the next pump
// stamp, and a stamp is 32 bits: when it wraps, bits left under an old stamp
// must not come back to life.
func TestPumpStampWraps(t *testing.T) {
	var tab conflictTable
	r := &rec{refs: []uint32{tab.entry(7), tab.entry(7)}, nr: 1}
	tab.block(r)
	tab.endPump()
	tab.stamp = ^uint32(0)
	if tab.blockedBy(r) {
		t.Fatal("blocked under a stamp two pumps old")
	}
	tab.block(r)
	if !tab.blockedBy(r) {
		t.Fatal("not blocked within the pump")
	}
	tab.endPump()
	if tab.stamp != 0 || tab.blockedBy(r) {
		t.Fatalf("stamp %d after the wrap, blocked %v", tab.stamp, tab.blockedBy(r))
	}
	// An entry stamped before the wrap, in the pump that now has its number.
	tab.stamp = 5
	tab.block(r)
	tab.stamp = ^uint32(0)
	tab.endPump()
	for i := 0; i < 5; i++ {
		tab.endPump()
	}
	if tab.stamp != 5 || tab.blockedBy(r) {
		t.Fatalf("stamp %d, blocked %v: a bit from before the wrap came back", tab.stamp, tab.blockedBy(r))
	}
}

// TestConflictTableIndex: the index finds every key it was given, under growth,
// for dense ids (seeded keys) and scattered ones alike, and numbers entries in
// order of first touch.
func TestConflictTableIndex(t *testing.T) {
	var tab conflictTable
	keys := make([]txn.KeyID, 0, 5000)
	for i := 0; i < 2500; i++ {
		keys = append(keys, txn.KeyID(i), txn.KeyID(i)*2654435761+17)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i]*31%1009 < keys[j]*31%1009 })
	first := map[txn.KeyID]uint32{}
	for _, k := range keys {
		e := tab.entry(k)
		if was, ok := first[k]; ok && was != e {
			t.Fatalf("key %d moved from entry %d to %d", k, was, e)
		} else if !ok {
			if e != uint32(len(first)) {
				t.Fatalf("key %d got entry %d, want the next one, %d", k, e, len(first))
			}
			first[k] = e
		}
	}
	for k, e := range first {
		if got := tab.entry(k); got != e {
			t.Fatalf("key %d is entry %d after growth, was %d", k, got, e)
		}
	}
	if tab.entries.Len() != len(first) || 2*len(first) > len(tab.index) {
		t.Fatalf("%d entries for %d keys in %d slots", tab.entries.Len(), len(first), len(tab.index))
	}
}
