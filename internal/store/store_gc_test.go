package store

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/txn"
)

// gcStore builds a retain-mode store with one key carrying committed versions
// at the given timestamps (plus the timestamp-zero seed).
func gcStore(t *testing.T, stamps ...int64) *Store {
	t.Helper()
	s := newChecked(t)
	s.EnableSnapshots()
	s.Seed("k", txn.EncodeInt(0))
	for i, at := range stamps {
		s.PutCommitted("k", ts(at), txn.EncodeInt(int64(i+1)))
	}
	return s
}

// TestPruneToKeepsSnapshotPivot pins PruneTo's contract: GetAt at or above
// the horizon is invariant, and everything older than the horizon's pivot
// version is dropped.
func TestPruneToKeepsSnapshotPivot(t *testing.T) {
	s := gcStore(t, 10, 20, 30)
	// Pre-prune observations at and above the horizon.
	type obs struct {
		val int64
		at  txn.Timestamp
	}
	var before []obs
	for at := time.Duration(25); at <= 40; at += 5 {
		v, vts, ok := getAt(s, "k", at)
		if !ok {
			t.Fatalf("GetAt(25..40) missing at %v", at)
		}
		before = append(before, obs{txn.DecodeInt(v), vts})
	}
	if n := s.PruneTo(25); n != 2 { // seed + ts10 drop; ts20 is the pivot
		t.Fatalf("PruneTo(25) dropped %d versions, want 2", n)
	}
	for i, at := 0, time.Duration(25); at <= 40; i, at = i+1, at+5 {
		v, vts, ok := getAt(s, "k", at)
		if !ok || txn.DecodeInt(v) != before[i].val || vts != before[i].at {
			t.Fatalf("GetAt(k, %v) changed across PruneTo: got %d@%v, want %d@%v",
				at, txn.DecodeInt(v), vts, before[i].val, before[i].at)
		}
	}
	// Reads below the horizon may now fail — that history is gone.
	if _, _, ok := getAt(s, "k", 5); ok {
		t.Fatal("pre-horizon history should have been pruned")
	}
	if got := txn.DecodeInt(s.Get("k")); got != 3 {
		t.Fatalf("newest value = %d, want 3", got)
	}
}

// TestPruneToSnapshotAtHorizonExact pins the boundary: the newest committed
// version with ts ≤ horizon survives even when it is exactly at the horizon.
func TestPruneToSnapshotAtHorizonExact(t *testing.T) {
	s := gcStore(t, 10, 20)
	s.PruneTo(20)
	v, vts, ok := getAt(s, "k", 20)
	if !ok || txn.DecodeInt(v) != 2 || vts.Time != 20 {
		t.Fatalf("GetAt at the exact horizon = %v@%v ok=%v, want 2@20", v, vts, ok)
	}
}

// TestPruneToNeverTouchesUncommitted: optimistic pending versions survive any
// horizon, and committing them afterwards works.
func TestPruneToNeverTouchesUncommitted(t *testing.T) {
	s := gcStore(t, 10)
	s.ExecuteID(id(9), ts(50), txn.IncrementPiece("k"))
	s.PruneTo(100) // horizon far beyond every version
	if got := txn.DecodeInt(s.Get("k")); got != 2 {
		t.Fatalf("pending optimistic version lost: Get = %d, want 2", got)
	}
	s.Commit(id(9))
	v, _, ok := getAt(s, "k", 50)
	if !ok || txn.DecodeInt(v) != 2 {
		t.Fatalf("committed-after-prune version unreadable: %v ok=%v", v, ok)
	}
}

// TestPruneToNoopOutsideRetainMode: the default (non-snapshot) store already
// garbage-collects on Commit; PruneTo must not touch it.
func TestPruneToNoopOutsideRetainMode(t *testing.T) {
	s := newChecked(t)
	s.Seed("k", txn.EncodeInt(0))
	if n := s.PruneTo(100); n != 0 {
		t.Fatalf("PruneTo on a non-retaining store pruned %d versions", n)
	}
}

// TestPruneToDirtySet: a fully-pruned key leaves the dirty set, so repeated
// ticks over a quiescent store do no per-key work.
func TestPruneToDirtySet(t *testing.T) {
	s := gcStore(t, 10, 20)
	if n := s.PruneTo(30); n != 2 {
		t.Fatalf("first prune dropped %d, want 2", n)
	}
	if len(s.multi) != 0 {
		t.Fatalf("dirty set still holds %d keys after full prune", len(s.multi))
	}
	if n := s.PruneTo(40); n != 0 {
		t.Fatalf("second prune over quiescent store dropped %d", n)
	}
}

// TestVersionsPlateauUnderPruning is the memory-plateau invariant in
// miniature: sustained writes with a trailing pruning horizon hold the
// version count at a constant plateau instead of growing with the write
// count.
func TestVersionsPlateauUnderPruning(t *testing.T) {
	s := newChecked(t)
	s.EnableSnapshots()
	const keys = 32
	for k := 0; k < keys; k++ {
		s.Seed(fmt.Sprintf("k%d", k), txn.EncodeInt(0))
	}
	plateau := 0
	for round := 1; round <= 200; round++ {
		at := time.Duration(round) * time.Millisecond
		for k := 0; k < keys; k++ {
			s.PutCommitted(fmt.Sprintf("k%d", k), txn.Timestamp{Time: at}, txn.EncodeInt(int64(round)))
		}
		// The horizon trails the writes by 10 rounds, like a safe-time
		// watermark trails real time.
		s.PruneTo(at - 10*time.Millisecond)
		if round == 50 {
			plateau = s.Versions()
		}
	}
	if got := s.Versions(); plateau == 0 || got > plateau {
		t.Fatalf("version count grew past its plateau: %d at round 50, %d at round 200", plateau, got)
	}
	// Without pruning the same write stream grows ~keys×rounds versions;
	// the plateau must be far below that.
	if limit := keys * 20; s.Versions() > limit {
		t.Fatalf("plateau %d exceeds %d (horizon lag ×2)", s.Versions(), limit)
	}
}
