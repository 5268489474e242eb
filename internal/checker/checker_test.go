package checker

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiga/internal/txn"
)

func c(id uint64, ts, submit, complete int64) Commit {
	return Commit{
		ID:       txn.ID{Coord: 1, Seq: id},
		TS:       txn.Timestamp{Time: time.Duration(ts), Coord: 1, Seq: id},
		Submit:   time.Duration(submit),
		Complete: time.Duration(complete),
	}
}

func TestStrictSerializabilityAccepts(t *testing.T) {
	// Sequential: 1 completes before 2 submits, ts order matches.
	if err := StrictSerializability([]Commit{
		c(1, 10, 0, 5),
		c(2, 20, 6, 12),
	}); err != nil {
		t.Fatal(err)
	}
	// Concurrent transactions may serialize either way.
	if err := StrictSerializability([]Commit{
		c(1, 20, 0, 10),
		c(2, 10, 5, 9),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStrictSerializabilityRejectsInversion(t *testing.T) {
	// 1 completes at 5; 2 submits at 6 but serializes BEFORE 1 — the
	// timestamp inversion of §3.6 / Fig 5.
	err := StrictSerializability([]Commit{
		c(1, 100, 0, 5),
		c(2, 50, 6, 12),
	})
	if err == nil {
		t.Fatal("inversion not detected")
	}
}

func TestStrictSerializabilityTies(t *testing.T) {
	// Completion at the same instant as submission is not "before".
	if err := StrictSerializability([]Commit{
		c(1, 100, 0, 5),
		c(2, 50, 5, 12),
	}); err != nil {
		t.Fatal("equal-time events must not be treated as ordered:", err)
	}
}

func TestUniqueTimestamps(t *testing.T) {
	if err := UniqueTimestamps([]Commit{c(1, 10, 0, 1), c(2, 20, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	dup := []Commit{c(1, 10, 0, 1), c(2, 10, 0, 1)}
	dup[1].TS = dup[0].TS
	if UniqueTimestamps(dup) == nil {
		t.Fatal("duplicate timestamps not detected")
	}
}

// Property: histories whose timestamp order equals completion order and
// whose transactions never overlap are always accepted.
func TestSequentialHistoriesAccepted(t *testing.T) {
	check := func(gaps []uint8) bool {
		var commits []Commit
		now := int64(0)
		for i, g := range gaps {
			start := now + int64(g)%7 + 1
			end := start + int64(g)%5 + 1
			commits = append(commits, c(uint64(i+1), end, start, end))
			now = end
		}
		return StrictSerializability(commits) == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: swapping the timestamps of two non-overlapping transactions is
// always detected.
func TestInversionAlwaysDetected(t *testing.T) {
	check := func(a, b uint8) bool {
		s1 := int64(a)%50 + 1
		e1 := s1 + 5
		s2 := e1 + int64(b)%50 + 1
		e2 := s2 + 5
		commits := []Commit{
			c(1, e2, s1, e1), // first txn gets the LATER timestamp
			c(2, e1, s2, e2),
		}
		return StrictSerializability(commits) != nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	cnt := NewCounter()
	tx := &txn.Txn{Pieces: txn.ByShard(
		txn.Piece{WriteSet: []string{"a"}}.On(0),
		txn.Piece{WriteSet: []string{"b"}}.On(1),
	)}
	cnt.Committed(tx)
	cnt.Committed(tx)
	vals := map[string]int64{"a": 2, "b": 2}
	if err := cnt.Verify(func(k string) int64 { return vals[k] }); err != nil {
		t.Fatal(err)
	}
	vals["b"] = 1
	if cnt.Verify(func(k string) int64 { return vals[k] }) == nil {
		t.Fatal("lost effect not detected")
	}
	if cnt.Expected() != 2 {
		t.Fatal("Expected")
	}
}

func wts(n int64) txn.Timestamp {
	return txn.Timestamp{Time: time.Duration(n), Coord: 1, Seq: uint64(n)}
}

func TestSnapshotReadsAccepts(t *testing.T) {
	writes := []WriteEvent{{"k", wts(10)}, {"k", wts(30)}, {"q", wts(5)}}
	reads := []SnapshotRead{
		{Key: "k", At: 20, Saw: wts(10)},        // newest write at or below the snapshot
		{Key: "k", At: 30, Saw: wts(30)},        // inclusive boundary
		{Key: "k", At: 5},                       // before any write: the seeded (zero-ts) value
		{Key: "fresh", At: 50},                  // key never written
		{Key: "k", At: 40, Saw: wts(30)},        //
		{Key: "unrecorded", At: 9, Saw: wts(7)}, // writer's commit event outside the window
	}
	if err := SnapshotReads(reads, writes); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotReadsRejectsStaleReplica(t *testing.T) {
	writes := []WriteEvent{{"k", wts(10)}, {"k", wts(30)}}
	// A lying replica answered At=35 before applying the ts-30 write.
	reads := []SnapshotRead{{Key: "k", At: 35, Saw: wts(10)}}
	if SnapshotReads(reads, writes) == nil {
		t.Fatal("missed committed write not detected")
	}
	// Missing even the first write (seed returned) is detected too.
	reads = []SnapshotRead{{Key: "k", At: 15}}
	if SnapshotReads(reads, writes) == nil {
		t.Fatal("missed first write not detected")
	}
}

func TestSnapshotReadsRejectsFutureVersion(t *testing.T) {
	reads := []SnapshotRead{{Key: "k", At: 10, Saw: wts(12)}}
	if SnapshotReads(reads, nil) == nil {
		t.Fatal("future read not detected")
	}
}
