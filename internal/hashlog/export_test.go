// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package hashlog

import "tiga/internal/txn"

// IsZero reports whether the hash is the empty-log hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// OfLog computes the digest of a full log from scratch (reference
// implementation used by tests to validate the incremental path).
func OfLog(ids []txn.ID, tss []txn.Timestamp) Hash {
	var h Hash
	for i := range ids {
		h = h.XOR(EntryHash(ids[i], tss[i]))
	}
	return h
}
