package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiga/internal/pool"
	"tiga/internal/txn"
)

func ts(n int64) txn.Timestamp { return txn.Timestamp{Time: time.Duration(n)} }
func id(n uint64) txn.ID       { return txn.ID{Coord: 1, Seq: n} }

// getAt is GetAtID by name; a name the store never saw has no version.
func getAt(s *Store, key string, at time.Duration) ([]byte, txn.Timestamp, bool) {
	kid, ok := s.Lookup(key)
	if !ok {
		return nil, txn.Timestamp{}, false
	}
	return s.GetAtID(kid, at)
}

// newestAt is the commit timestamp of key's newest committed version: what a
// snapshot read at the end of time is served.
func newestAt(s *Store, key string) time.Duration {
	_, ts, _ := getAt(s, key, math.MaxInt64)
	return ts.Time
}

func TestSeedAndGet(t *testing.T) {
	s := newChecked(t)
	if s.Get("x") != nil {
		t.Fatal("missing key should be nil")
	}
	s.Seed("x", txn.EncodeInt(7))
	if txn.DecodeInt(s.Get("x")) != 7 {
		t.Fatal("Seed/Get")
	}
}

func TestExecuteAtMostOnce(t *testing.T) {
	s := newChecked(t)
	s.Seed("x", txn.EncodeInt(0))
	p := txn.IncrementPiece("x")
	s.ExecuteID(id(1), ts(1), p)
	s.ExecuteID(id(1), ts(1), p) // duplicate: must be a no-op
	if got := txn.DecodeInt(s.Get("x")); got != 1 {
		t.Fatalf("x = %d after duplicate execute, want 1", got)
	}
	if !s.Executed(id(1)) {
		t.Fatal("Executed should report true")
	}
}

func TestRevokeRestoresState(t *testing.T) {
	s := newChecked(t)
	s.Seed("x", txn.EncodeInt(10))
	s.ExecuteID(id(1), ts(1), txn.IncrementPiece("x"))
	if txn.DecodeInt(s.Get("x")) != 11 {
		t.Fatal("execute failed")
	}
	s.Revoke(id(1))
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("revoke did not restore the previous version")
	}
	if s.Executed(id(1)) {
		t.Fatal("revoked txn must be re-executable")
	}
	// Re-execution after revoke works (Case-3 §3.5).
	s.ExecuteID(id(1), ts(5), txn.IncrementPiece("x"))
	if txn.DecodeInt(s.Get("x")) != 11 {
		t.Fatal("re-execution failed")
	}
}

func TestRevokeBlindWriteRemovesKey(t *testing.T) {
	s := newChecked(t)
	s.ExecuteID(id(2), ts(1), txn.WritePiece("fresh", txn.EncodeInt(5)))
	if s.Get("fresh") == nil {
		t.Fatal("write missing")
	}
	s.Revoke(id(2))
	if s.Get("fresh") != nil {
		t.Fatal("revoking the only version should delete the key")
	}
}

func TestCommitGCsVersions(t *testing.T) {
	s := newChecked(t)
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 10; i++ {
		s.ExecuteID(id(i), ts(int64(i)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	if got := s.Versions(); got != 1 {
		t.Fatalf("committed key holds %d versions, want 1", got)
	}
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("value wrong after GC")
	}
}

// TestCommitMarksAFreshKeysWriteCommitted: a committed blind write on a key the
// store held nothing under — every row TPC-C inserts — must be visible to a
// snapshot read, in both modes. The default-mode Commit used to return early on
// a key holding a single version and left it flagged uncommitted for good.
func TestCommitMarksAFreshKeysWriteCommitted(t *testing.T) {
	for _, retain := range []bool{false, true} {
		s := newChecked(t)
		if retain {
			s.EnableSnapshots()
		}
		s.ExecuteID(id(1), ts(10), txn.WritePiece("row", txn.EncodeInt(7)))
		if _, _, ok := getAt(s, "row", 20); ok {
			t.Fatalf("retain=%v: a snapshot read saw an uncommitted write", retain)
		}
		s.Commit(id(1))
		v, vts, ok := getAt(s, "row", 20)
		if !ok || txn.DecodeInt(v) != 7 || vts != ts(10) {
			t.Errorf("retain=%v: GetAtID(row, 20) = %v@%v ok=%v after Commit, want 7@%v", retain, v, vts, ok, ts(10))
		}
		if _, _, ok := getAt(s, "row", 9); ok {
			t.Errorf("retain=%v: the row is visible below its commit timestamp", retain)
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := newChecked(t), newChecked(t)
	a.Seed("x", txn.EncodeInt(1))
	b.Seed("x", txn.EncodeInt(1))
	if !a.Equal(b) {
		t.Fatal("identical stores not equal")
	}
	b.Seed("y", txn.EncodeInt(2))
	if a.Equal(b) {
		t.Fatal("different stores equal")
	}
}

// Property: any sequence of execute/revoke operations on disjoint-key
// transactions leaves exactly the committed increments applied.
func TestExecuteRevokeProperty(t *testing.T) {
	check := func(ops []bool) bool {
		s := newChecked(t)
		s.Seed("k", txn.EncodeInt(0))
		var want int64
		for i, commit := range ops {
			tid := id(uint64(i + 1))
			s.ExecuteID(tid, ts(int64(i+1)), txn.IncrementPiece("k"))
			if commit {
				s.Commit(tid)
				want++
			} else {
				s.Revoke(tid)
			}
		}
		return txn.DecodeInt(s.Get("k")) == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// A second bulk pass lands on a store that is no longer empty: it goes key by
// key, onto the next ids, beside the image the first pass attached.
func TestSeedBulkInTwoPasses(t *testing.T) {
	s := newChecked(t)
	s.SeedBulk([]string{"a", "b"}, txn.EncodeInt(1))
	s.SeedBulk([]string{"c", "d"}, txn.EncodeInt(2))
	if s.Len() != 4 || s.Interned() != 4 || s.Versions() != 4 {
		t.Fatalf("store holds %d keys, %d ids, %d versions after a two-pass seed, want 4 of each",
			s.Len(), s.Interned(), s.Versions())
	}
	for i, k := range []string{"a", "b", "c", "d"} {
		if id, ok := s.Lookup(k); !ok || int(id) != i {
			t.Fatalf("Lookup(%q) = %d %v, want id %d", k, id, ok, i)
		}
	}
	if txn.DecodeInt(s.Get("a")) != 1 || txn.DecodeInt(s.Get("c")) != 2 {
		t.Fatal("second seed pass corrupted values")
	}
}

func TestGetAtOrdering(t *testing.T) {
	s := newChecked(t)
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 5; i++ {
		s.ExecuteID(id(i), ts(int64(i*10)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	cases := []struct {
		at   int64
		want int64
	}{
		{5, 0},   // before every write: the seeded value
		{10, 1},  // exactly at a commit timestamp: inclusive
		{15, 1},  // between commits: newest at or below
		{49, 4},  //
		{50, 5},  //
		{999, 5}, // after everything: the newest committed version
	}
	for _, c := range cases {
		val, seen, ok := getAt(s, "x", time.Duration(c.at))
		if !ok {
			t.Fatalf("GetAt(%d) found nothing", c.at)
		}
		if got := txn.DecodeInt(val); got != c.want {
			t.Fatalf("GetAt(%d) = %d, want %d", c.at, got, c.want)
		}
		if seen.Time > time.Duration(c.at) {
			t.Fatalf("GetAt(%d) returned a future version ts %v", c.at, seen)
		}
	}
	if _, _, ok := getAt(s, "missing", 100); ok {
		t.Fatal("GetAt found a key that does not exist")
	}
	if at := newestAt(s, "x"); at != 50 {
		t.Fatalf("newest committed version at %v, want 50ns", at)
	}
}

func TestGetAtSkipsUncommittedVersions(t *testing.T) {
	s := newChecked(t)
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	s.ExecuteID(id(1), ts(10), txn.IncrementPiece("x"))
	s.Commit(id(1))
	// An optimistic execution past the snapshot point must stay invisible
	// until committed, even though Get (protocol execution) sees it.
	s.ExecuteID(id(2), ts(20), txn.IncrementPiece("x"))
	if val, _, _ := getAt(s, "x", 30); txn.DecodeInt(val) != 1 {
		t.Fatal("snapshot read observed an uncommitted version")
	}
	if txn.DecodeInt(s.Get("x")) != 2 {
		t.Fatal("Get no longer reads optimistic state")
	}
	s.Commit(id(2))
	if val, _, _ := getAt(s, "x", 30); txn.DecodeInt(val) != 2 {
		t.Fatal("committed version still invisible")
	}
	// A revoked execution never becomes visible.
	s.ExecuteID(id(3), ts(25), txn.IncrementPiece("x"))
	s.Revoke(id(3))
	if val, _, _ := getAt(s, "x", 30); txn.DecodeInt(val) != 2 {
		t.Fatal("revoked version leaked into a snapshot read")
	}
}

func TestPutCommittedAndRetainedHistory(t *testing.T) {
	s := newChecked(t)
	s.EnableSnapshots()
	s.PutCommitted("k", txn.Timestamp{Time: 10}, txn.EncodeInt(1))
	s.PutCommitted("k", txn.Timestamp{Time: 20}, txn.EncodeInt(2))
	if val, seen, ok := getAt(s, "k", 15); !ok || txn.DecodeInt(val) != 1 || seen.Time != 10 {
		t.Fatalf("GetAt(15) = %v @%v ok=%v, want 1 @10", val, seen, ok)
	}
	if txn.DecodeInt(s.Get("k")) != 2 {
		t.Fatal("Get should return the newest version")
	}
	if at := newestAt(s, "k"); at != 20 {
		t.Fatalf("newest committed version at %v, want 20", at)
	}
}

// In retain mode commits keep the whole history instead of collapsing it.
func TestRetainModeKeepsVersions(t *testing.T) {
	s := newChecked(t)
	s.EnableSnapshots()
	s.Seed("x", txn.EncodeInt(0))
	for i := uint64(1); i <= 10; i++ {
		s.ExecuteID(id(i), ts(int64(i)), txn.IncrementPiece("x"))
		s.Commit(id(i))
	}
	if got := s.Versions(); got != 11 {
		t.Fatalf("retained key holds %d versions, want 11", got)
	}
	if txn.DecodeInt(s.Get("x")) != 10 {
		t.Fatal("newest value wrong in retain mode")
	}
	for at := int64(1); at <= 10; at++ {
		if val, _, _ := getAt(s, "x", time.Duration(at)); txn.DecodeInt(val) != at {
			t.Fatalf("GetAt(%d) = %d in retain mode", at, txn.DecodeInt(val))
		}
	}
}

// Property: a store is a pure function of its seed and the Execute/Commit
// sequence — a fresh store seeded alike and replayed from the start equals one
// that ran the same transactions live, whatever uncommitted optimistic state
// the live one carried when a prefix of them was committed. Tiga's lazily
// materialised checkpoints (§4) rebuild their image this way.
func TestReplayReproducesStore(t *testing.T) {
	seeded := func() *Store {
		s := newChecked(t)
		for i := 0; i < 16; i++ {
			s.Seed(fmt.Sprintf("k%d", i), txn.EncodeInt(0))
		}
		return s
	}
	check := func(keys []uint8, ahead uint8) bool {
		live, replay := seeded(), seeded()
		var pieces []*txn.Piece
		for _, k := range keys {
			pieces = append(pieces, txn.IncrementPiece(fmt.Sprintf("k%d", k%16)))
		}
		// The live store executes up to `lag` transactions ahead of its
		// commits, like a leader running ahead of its commit point.
		lag := int(ahead)%4 + 1
		for i := range pieces {
			live.ExecuteID(id(uint64(i+1)), ts(int64(i+1)), pieces[i])
			if i >= lag {
				live.Commit(id(uint64(i + 1 - lag)))
			}
		}
		for i := range pieces {
			live.Commit(id(uint64(i + 1)))
			replay.ExecuteID(id(uint64(i+1)), ts(int64(i+1)), pieces[i])
			replay.Commit(id(uint64(i + 1)))
		}
		return live.Equal(replay) && replay.Equal(live)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestForgetDropsOnlyTheExecutionMark: Forget of a committed transaction turns
// Executed false and changes nothing else — the values, the versions and the
// history a snapshot read sees stay as a twin store without the Forget has
// them — while the transaction whose writes are still pending keeps its mark.
// Forget of that one panics: it is only legal once the writes are committed.
func TestForgetDropsOnlyTheExecutionMark(t *testing.T) {
	defer func(c bool) { pool.Check = c }(pool.Check)
	pool.Check = true
	for _, retain := range []bool{false, true} {
		var st [2]*Store
		for i := range st {
			s := newChecked(t)
			if retain {
				s.EnableSnapshots()
			}
			s.Seed("x", txn.EncodeInt(10))
			s.ExecuteID(id(1), ts(1), txn.IncrementPiece("x"))
			s.ExecuteID(id(2), ts(2), txn.IncrementPiece("y"))
			s.Commit(id(1))
			s.Commit(id(2))
			s.ExecuteID(id(3), ts(3), txn.IncrementPiece("x"))
			st[i] = s
		}
		s, twin := st[0], st[1]
		s.Forget(id(1))
		s.Forget(id(2))
		if s.Executed(id(1)) || s.Executed(id(2)) || !s.Executed(id(3)) {
			t.Errorf("retain=%v: Executed after Forget of 1 and 2: %v %v %v, want false false true", retain, s.Executed(id(1)), s.Executed(id(2)), s.Executed(id(3)))
		}
		if !s.Equal(twin) || s.Len() != twin.Len() || s.Versions() != twin.Versions() {
			t.Errorf("retain=%v: Forget changed the store: %d keys and %d versions, the twin %d and %d", retain, s.Len(), s.Versions(), twin.Len(), twin.Versions())
		}
		for at := int64(0); at <= 3; at++ {
			for _, k := range []string{"x", "y"} {
				got, gotTS, ok := getAt(s, k, time.Duration(at))
				want, wantTS, wantOK := getAt(twin, k, time.Duration(at))
				if string(got) != string(want) || gotTS != wantTS || ok != wantOK {
					t.Errorf("retain=%v: %s at %d reads %v@%v (%v) after Forget, %v@%v (%v) without", retain, k, at, got, gotTS, ok, want, wantTS, wantOK)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("retain=%v: Forget of a transaction with pending writes did not panic", retain)
				}
			}()
			s.Forget(id(3))
		}()
		if !s.Executed(id(3)) {
			t.Errorf("retain=%v: the refused Forget dropped the pending transaction's mark", retain)
		}
	}
}
