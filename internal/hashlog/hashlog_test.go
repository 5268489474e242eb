package hashlog

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiga/internal/txn"
)

func entry(n uint64) (txn.ID, txn.Timestamp) {
	return txn.ID{Coord: int32(n % 7), Seq: n},
		txn.Timestamp{Time: time.Duration(n * 13), Coord: int32(n % 7), Seq: n}
}

func TestIncrementalMatchesFromScratch(t *testing.T) {
	var inc Incremental
	var ids []txn.ID
	var tss []txn.Timestamp
	for n := uint64(1); n <= 100; n++ {
		id, ts := entry(n)
		inc.Add(id, ts)
		ids = append(ids, id)
		tss = append(tss, ts)
	}
	if inc.Sum() != OfLog(ids, tss) {
		t.Fatal("incremental hash diverges from the from-scratch reference")
	}
}

func TestRemoveIsInverse(t *testing.T) {
	var inc Incremental
	id, ts := entry(42)
	base := inc.Sum()
	inc.Add(id, ts)
	inc.Remove(id, ts)
	if inc.Sum() != base {
		t.Fatal("Add followed by Remove must restore the digest")
	}
}

// Property: XOR set-hash is order-insensitive — any permutation of the same
// entry set hashes equal. This is the exact property Tiga relies on: two
// replicas that released the same set of (txn, timestamp) entries in
// different interleavings produce matching fast-reply hashes (§3.4).
func TestOrderInsensitiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(ns []uint64) bool {
		var a, b Incremental
		for _, n := range ns {
			id, ts := entry(n % 1000)
			a.Add(id, ts)
		}
		perm := rng.Perm(len(ns))
		for _, i := range perm {
			id, ts := entry(ns[i] % 1000)
			b.Add(id, ts)
		}
		return a.Sum() == b.Sum()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: changing an entry's timestamp changes the hash — a leader's
// Case-3 timestamp update is detectable by the coordinator. The delta is a
// 16-bit pattern shifted anywhere into bits 0–62, so every byte of ts.Time is
// exercised: a transaction held at 5 s and at 5 s + 2³² ns must not hash equal.
func TestTimestampSensitivity(t *testing.T) {
	check := func(n uint64, dt uint16, shift uint8) bool {
		if dt == 0 {
			return true
		}
		id, ts := entry(n)
		ts2 := ts
		ts2.Time += time.Duration(dt) << (shift % 48)
		return EntryHash(id, ts) != EntryHash(id, ts2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	id, ts := entry(42)
	ts.Time = 5 * time.Second
	for bit := 0; bit < 63; bit++ {
		ts2 := ts
		ts2.Time += 1 << bit
		if EntryHash(id, ts) == EntryHash(id, ts2) {
			t.Errorf("timestamps %v and %v (bit %d apart) hash equal", ts.Time, ts2.Time, bit)
		}
	}
}

func TestDifferentEntriesDiffer(t *testing.T) {
	seen := make(map[Hash]uint64)
	for n := uint64(0); n < 10000; n++ {
		id, ts := entry(n)
		h := EntryHash(id, ts)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between entries %d and %d", prev, n)
		}
		seen[h] = n
	}
}

func TestZeroHash(t *testing.T) {
	var h Hash
	if !h.IsZero() {
		t.Fatal("zero value should be zero")
	}
	var inc Incremental
	if !inc.Sum().IsZero() {
		t.Fatal("empty log should hash to zero")
	}
	inc.Reset()
	if !inc.Sum().IsZero() {
		t.Fatal("Reset")
	}
}
