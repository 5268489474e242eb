// Package checker validates Tiga's correctness properties on committed
// histories (Appendix C): strict serializability — the agreed-timestamp order
// (the serialization order, Lemma C.4) must not contradict real-time order —
// and effect completeness (every committed increment is reflected exactly
// once in the final state).
package checker

import (
	"fmt"
	"sort"
	"time"

	"tiga/internal/txn"
)

// Commit records one committed transaction as observed by a client.
type Commit struct {
	ID       txn.ID
	TS       txn.Timestamp // agreed serialization timestamp
	Submit   time.Duration // real time the transaction started
	Complete time.Duration // real time the client learned the commit
}

// StrictSerializability checks that the timestamp (serialization) order
// respects real time: if transaction i completed before transaction j was
// submitted, then ts_i < ts_j. It returns the first violation found.
//
// The check sweeps events in time order, maintaining the maximum timestamp
// among completed transactions; every submission must be assigned a larger
// timestamp than that running maximum.
func StrictSerializability(commits []Commit) error {
	type ev struct {
		at       time.Duration
		isSubmit bool
		c        *Commit
	}
	evs := make([]ev, 0, 2*len(commits))
	for i := range commits {
		c := &commits[i]
		evs = append(evs, ev{at: c.Submit, isSubmit: true, c: c})
		evs = append(evs, ev{at: c.Complete, isSubmit: false, c: c})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		// Completions before submissions at the same instant: "completed
		// before submitted" requires strictly earlier completion, so process
		// ties conservatively (completion first would be stricter; we choose
		// submission first so equal times are not treated as ordered).
		return evs[i].isSubmit && !evs[j].isSubmit
	})
	var maxTS txn.Timestamp
	var maxID txn.ID
	seen := false
	for _, e := range evs {
		if e.isSubmit {
			if seen && !maxTS.Less(e.c.TS) {
				return fmt.Errorf("strict serializability violated: txn %v (ts %v) submitted at %v after txn %v (ts %v) completed, but is serialized earlier",
					e.c.ID, e.c.TS, e.c.Submit, maxID, maxTS)
			}
		} else if !seen || maxTS.Less(e.c.TS) {
			maxTS, maxID, seen = e.c.TS, e.c.ID, true
		}
	}
	return nil
}

// UniqueTimestamps verifies the serialization order is total (no duplicate
// agreed timestamps among committed transactions).
func UniqueTimestamps(commits []Commit) error {
	seen := make(map[txn.Timestamp]txn.ID, len(commits))
	for _, c := range commits {
		if prev, dup := seen[c.TS]; dup {
			return fmt.Errorf("duplicate serialization timestamp %v for txns %v and %v", c.TS, prev, c.ID)
		}
		seen[c.TS] = c.ID
	}
	return nil
}

// SnapshotRead records one key read by a local read-only transaction: the
// snapshot timestamp the coordinator picked and the commit timestamp of the
// version the serving replica returned (zero for seeded initial values).
type SnapshotRead struct {
	Key string
	At  time.Duration
	Saw txn.Timestamp
}

// WriteEvent records one committed write to a key at its agreed
// serialization timestamp, forming the history snapshot reads are validated
// against.
type WriteEvent struct {
	Key string
	TS  txn.Timestamp
}

// SnapshotReads validates local read-only transactions against the commit
// history: a replica may delay a read, but it must never lie. Two lies are
// detectable from the observations alone:
//
//   - a future read: the returned version's commit timestamp exceeds the
//     requested snapshot (the replica served past its own promise), and
//   - a missed committed write: some transaction committed a version of the
//     key at ts <= At, yet the replica returned an older version — it
//     answered before its safe-time watermark actually covered At.
//
// The write history only includes commits the clients observed, so the
// check is sound (no false alarms) though not complete for writes still in
// flight when the run ended. It returns the first violation found.
func SnapshotReads(reads []SnapshotRead, writes []WriteEvent) error {
	byKey := make(map[string][]txn.Timestamp)
	for _, w := range writes {
		byKey[w.Key] = append(byKey[w.Key], w.TS)
	}
	for _, tss := range byKey {
		sort.Slice(tss, func(i, j int) bool { return tss[i].Less(tss[j]) })
	}
	for _, r := range reads {
		if r.Saw.Time > r.At {
			return fmt.Errorf("snapshot read of %s at %v observed a future version (committed %v)",
				r.Key, r.At, r.Saw)
		}
		tss := byKey[r.Key]
		// The newest committed write at or below the snapshot is what the
		// read must have seen (or something at least as new, when the
		// writer's client-side commit event was never recorded).
		i := sort.Search(len(tss), func(i int) bool { return tss[i].Time > r.At }) - 1
		if i >= 0 && r.Saw.Less(tss[i]) {
			return fmt.Errorf("snapshot read of %s at %v returned a stale version (saw %v, but a write committed at %v): the replica served below its safe time",
				r.Key, r.At, r.Saw, tss[i])
		}
	}
	return nil
}

// Counter tracks expected increment counts per key so the final store state
// can be validated: exactly-once application of every committed transaction.
type Counter struct {
	expected map[string]int64
}

// NewCounter returns an empty tracker.
func NewCounter() *Counter { return &Counter{expected: make(map[string]int64)} }

// Committed registers one committed increment transaction's write keys.
func (c *Counter) Committed(t *txn.Txn) {
	for i := range t.Pieces {
		for _, k := range t.Pieces[i].WriteSet {
			c.expected[k]++
		}
	}
}

// Verify compares expectations against a read function (e.g. a store getter).
func (c *Counter) Verify(get func(key string) int64) error {
	for k, want := range c.expected {
		if got := get(k); got != want {
			return fmt.Errorf("key %s: value %d, want %d (lost or duplicated effects)", k, got, want)
		}
	}
	return nil
}

// VerifyAtLeast checks no committed effect was lost: each key's value must be
// at least the tracked count (use when effects outside the measurement
// window — warmup or in-flight at shutdown — may also be present).
func (c *Counter) VerifyAtLeast(get func(key string) int64) error {
	for k, want := range c.expected {
		if got := get(k); got < want {
			return fmt.Errorf("key %s: value %d < %d committed (lost effects)", k, got, want)
		}
	}
	return nil
}
