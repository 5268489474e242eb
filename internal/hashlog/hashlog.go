// Package hashlog implements Tiga's incremental log hash (Appendix D).
//
// A server's fast-reply carries a hash of its log list so the coordinator can
// tell whether a super quorum of replicas hold identical logs. The hash is
// the bitwise XOR of the SHA-1 hashes of all entries: XOR is commutative and
// self-inverse, so adding or removing an entry is a single XOR, and two logs
// containing the same set of (txn-id, timestamp) entries hash equal even if
// appended in different interleavings — exactly the equivalence Tiga needs,
// since entry timestamps fix the serialization order.
package hashlog

import (
	"crypto/sha1"
	"encoding/binary"

	"tiga/internal/txn"
)

// Hash is a 160-bit incremental digest.
type Hash [sha1.Size]byte

// XOR combines two hashes.
func (h Hash) XOR(o Hash) Hash {
	var out Hash
	for i := range h {
		out[i] = h[i] ^ o[i]
	}
	return out
}

// IsZero reports whether the hash is the empty-log hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// EntryHash hashes a single log entry from its identifying fields: the
// coordinator id, sequence number, and agreed timestamp (Appendix D).
func EntryHash(id txn.ID, ts txn.Timestamp) Hash {
	var buf [32]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(id.Coord))
	binary.LittleEndian.PutUint64(buf[4:], id.Seq)
	binary.LittleEndian.PutUint64(buf[12:], uint64(ts.Time))
	binary.LittleEndian.PutUint32(buf[20:], uint32(ts.Coord))
	// ts.Seq == id.Seq for Tiga timestamps, but hash it independently so the
	// digest covers the complete timestamp tuple.
	binary.LittleEndian.PutUint64(buf[24:], ts.Seq)
	return Hash(sha1.Sum(buf[:]))
}

// Incremental maintains a running XOR digest of a log list.
type Incremental struct{ h Hash }

// Add folds an entry into the digest.
func (i *Incremental) Add(id txn.ID, ts txn.Timestamp) { i.h = i.h.XOR(EntryHash(id, ts)) }

// Remove removes an entry from the digest (XOR is self-inverse).
func (i *Incremental) Remove(id txn.ID, ts txn.Timestamp) { i.h = i.h.XOR(EntryHash(id, ts)) }

// Sum returns the current digest.
func (i *Incremental) Sum() Hash { return i.h }

// Reset clears the digest.
func (i *Incremental) Reset() { i.h = Hash{} }

// OfLog computes the digest of a full log from scratch (reference
// implementation used by tests to validate the incremental path).
func OfLog(ids []txn.ID, tss []txn.Timestamp) Hash {
	var h Hash
	for i := range ids {
		h = h.XOR(EntryHash(ids[i], tss[i]))
	}
	return h
}
