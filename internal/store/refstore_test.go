package store

// refStore is the store as it stood before versions moved into a slab (PR 19's
// internal/store/store.go): one []refVersion per key, grown by append,
// collapsed in place by Commit. It is kept as the reference the slab store is
// compared against (oracle_test.go, FuzzStoreOps) and is otherwise verbatim —
// types renamed, ExecuteBuffered and its view left out (they read through GetID
// and write nothing), the write-only high-water map left out as it is from the
// store — with one marked change: refCommitGC clears uncommitted
// on a key holding a single version, the bug TestCommitMarksAFreshKeysWriteCommitted
// pins, so that the two stores may be compared on GetAtID in the default mode.

import (
	"slices"
	"time"

	"tiga/internal/txn"
)

type refVersion struct {
	writer txn.ID
	ts     txn.Timestamp
	val    []byte
	// uncommitted marks a version written by Execute that Commit has not
	// yet finalized. Snapshot reads (GetAtID) never observe such versions;
	// Get still does, because optimistic execution reads its own writes.
	uncommitted bool
}

// slot holds one key's version chain. A key with no version is absent: it was
// interned (or its only write revoked) but nothing is stored under it.
type refSlot struct {
	vs []refVersion
}

// Store is a multi-version key-value store for one shard.
type refStore struct {
	// index maps a key name to its id and byID[id] is the key's slot. SeedBulk
	// gives key i of its batch id base+i (the workload's dense key index);
	// names first seen later get the next id from Intern. Slots are held by
	// value, so a *refSlot is only good until the next Intern.
	index map[string]txn.KeyID
	byID  []refSlot
	// live counts the keys holding at least one version (Len).
	live int
	// pending holds the ids each uncommitted transaction wrote. The slices
	// are freelisted: Commit and Revoke hand them back for the next Execute,
	// so steady-state execution allocates no write-set tracking.
	pending map[txn.ID][]txn.KeyID
	// Executed tracks at-most-once execution (paper Appendix B).
	executed map[txn.ID]bool
	// view and pendFree are the Execute scratch: one reusable transaction
	// view and a freelist of retired write-set slices.
	view     refView
	pendFree [][]txn.KeyID
	// retain switches Commit from garbage-collecting old versions to
	// keeping the full committed history, which snapshot reads need.
	retain bool
	// multi is the GC dirty-set (retain mode): keys currently holding more
	// than one version. PruneTo walks only this set, so watermark GC stays
	// O(rewritten keys) per tick instead of O(keyspace) — the difference
	// between tractable and catastrophic at million-key scale.
	multi map[txn.KeyID]struct{}
}

// New returns an empty store.
func newRef() *refStore {
	return &refStore{
		index:    make(map[string]txn.KeyID),
		pending:  make(map[txn.ID][]txn.KeyID),
		executed: make(map[txn.ID]bool),
	}
}

// EnableSnapshots switches the store into version-retaining mode: Commit
// marks versions committed instead of garbage-collecting history, so GetAtID
// can serve reads at any past timestamp. Protocols enable this only when local
// snapshot reads are on; the default GC behavior is byte-identical to before.
func (s *refStore) EnableSnapshots() {
	s.retain = true
	if s.multi == nil {
		s.multi = make(map[txn.KeyID]struct{})
	}
}

// Intern returns key's id, giving a name the store has not seen the next free
// one. Interning stores nothing: the key stays absent until it is written.
func (s *refStore) Intern(key string) txn.KeyID {
	if id, ok := s.index[key]; ok {
		return id
	}
	id := txn.KeyID(len(s.byID))
	s.index[key] = id
	s.byID = append(s.byID, refSlot{})
	return id
}

// Get returns the newest version of key, or nil when absent.
func (s *refStore) Get(key string) []byte {
	id, ok := s.index[key]
	if !ok {
		return nil
	}
	return s.GetID(id)
}

// GetID is Get over an interned key: a slice index instead of a string hash.
func (s *refStore) GetID(id txn.KeyID) []byte {
	vs := s.byID[id].vs
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1].val
}

// Seed installs an initial committed value (workload pre-population),
// replacing whatever the key held. Use SeedBulk to pre-populate a keyspace:
// it lays the batch out in shared arrays and fixes the ids to the batch order.
func (s *refStore) Seed(key string, val []byte) {
	e := &s.byID[s.Intern(key)]
	if len(e.vs) == 0 {
		s.live++
	}
	e.vs = []refVersion{{val: val}}
}

// Reserve sizes the name map for n additional keys ahead of a bulk seed,
// avoiding incremental rehashing while a store is pre-populated. A non-empty
// store is rebuilt at the combined size with its contents preserved, so
// workloads that seed in multiple passes still benefit.
func (s *refStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	index := make(map[string]txn.KeyID, len(s.index)+n)
	for k, id := range s.index {
		index[k] = id
	}
	s.index = index
}

// SeedBulk installs the same initial committed value for every key in one
// pass; see SeedBulkFunc.
func (s *refStore) SeedBulk(keys []string, val []byte) {
	s.SeedBulkFunc(keys, func(int) []byte { return val })
}

// SeedBulkFunc installs val(i) as the initial committed value of keys[i] in
// one pass and fixes the batch's ids: key keys[i] becomes txn.KeyID(base+i),
// where base is the number of keys interned before the call (zero for the
// usual single-pass seed), so a workload's dense key index doubles as its
// KeyID. The keys must be new to the store. The initial versions are laid out
// in one backing array (each capacity-clipped, so a later Put reallocates
// instead of aliasing its neighbor) and the slots extend the slot slice in
// place; the key names are only hashed into the name map, which shares their
// bytes with the caller — seeding a replica's keyspace costs a handful of
// allocations instead of several per key and no per-replica copy of the names.
func (s *refStore) SeedBulkFunc(keys []string, val func(i int) []byte) {
	s.Reserve(len(keys))
	vs := make([]refVersion, len(keys))
	base := len(s.byID)
	s.byID = slices.Grow(s.byID, len(keys))[:base+len(keys)]
	for i, k := range keys {
		vs[i] = refVersion{val: val(i)}
		s.byID[base+i].vs = vs[i : i+1 : i+1]
		s.index[k] = txn.KeyID(base + i)
	}
	s.live += len(keys)
}

// Interned returns the number of keys that have an id (test helper).
func (s *refStore) Interned() int { return len(s.byID) }

// Lookup returns key's id without interning it.
func (s *refStore) Lookup(key string) (txn.KeyID, bool) {
	id, ok := s.index[key]
	return id, ok
}

// Len returns the number of keys present.
func (s *refStore) Len() int { return s.live }

// Executed reports whether the transaction already executed here.
func (s *refStore) Executed(id txn.ID) bool { return s.executed[id] }

// txnView is the view of an optimistic execution: writes become pending
// versions of id's transaction. A write by name is an interned write after one
// name lookup, so Commit/Revoke consume one id list.
type refView struct {
	s      *refStore
	writer txn.ID
	ts     txn.Timestamp
	ids    []txn.KeyID
}

func (v *refView) Get(key string) []byte { return v.s.Get(key) }

func (v *refView) GetID(id txn.KeyID) []byte { return v.s.GetID(id) }

func (v *refView) Bytes(n int) []byte { return make([]byte, 0, n) }

func (v *refView) Put(key string, val []byte) { v.PutID(v.s.Intern(key), val) }

func (v *refView) PutID(id txn.KeyID, val []byte) {
	e := &v.s.byID[id]
	if len(e.vs) == 0 {
		v.s.live++
	}
	e.vs = append(e.vs, refVersion{writer: v.writer, ts: v.ts, val: val, uncommitted: true})
	v.ids = append(v.ids, id)
}

// Apply installs a buffered write set as committed state; see ApplyAt.
func (s *refStore) Apply(ws []Write) { s.ApplyAt(txn.Timestamp{}, ws) }

// ApplyAt installs a buffered write set as state committed at ts, on the
// store that produced it or on another copy of the shard: a write made by
// name goes to the key this store interns the name under, the others to their
// id. In the default mode the key's value is overwritten in place; in
// snapshot-retaining mode a committed version is appended, so the caller must
// apply one key's writes in timestamp order (see GetAtID).
func (s *refStore) ApplyAt(ts txn.Timestamp, ws []Write) {
	for i := range ws {
		w := &ws[i]
		id := w.ID
		if w.Name != "" {
			id = s.Intern(w.Name)
		}
		if e := &s.byID[id]; s.retain || len(e.vs) == 0 {
			s.putCommitted(id, ts, w.Val)
		} else {
			clear(e.vs[1:])
			e.vs = e.vs[:1]
			e.vs[0] = refVersion{ts: ts, val: w.Val}
		}
	}
}

// GetAtID returns the newest committed version of the key with a timestamp at
// or below at, together with that version's commit timestamp (zero for seeded
// initial values). Uncommitted versions are invisible: a snapshot read never
// observes optimistic state. Committed versions of one key are appended in
// timestamp order (conflicting writers are serialized by the protocol), so
// the newest qualifying version is the first committed one at or below at
// when scanning from the top.
func (s *refStore) GetAtID(id txn.KeyID, at time.Duration) ([]byte, txn.Timestamp, bool) {
	vs := s.byID[id].vs
	for i := len(vs) - 1; i >= 0; i-- {
		v := &vs[i]
		if v.uncommitted || v.ts.Time > at {
			continue
		}
		return v.val, v.ts, true
	}
	return nil, txn.Timestamp{}, false
}

// getPend pops a retired write-set slice off the freelist (empty, capacity
// retained) or returns nil, which allocates on first append.
func (s *refStore) getPend() []txn.KeyID {
	if n := len(s.pendFree); n > 0 {
		p := s.pendFree[n-1]
		s.pendFree = s.pendFree[:n-1]
		return p
	}
	return nil
}

func (s *refStore) putPend(p []txn.KeyID) { s.pendFree = append(s.pendFree, p[:0]) }

// ExecuteID runs a piece as transaction id at timestamp ts, creating pending
// versions for its writes. It enforces at-most-once execution: re-executing
// an id that already ran is a no-op returning nil, unless it was revoked.
// A piece that carries ids reaches the store through the view's GetID/PutID
// slice path and never hashes a key.
func (s *refStore) ExecuteID(id txn.ID, ts txn.Timestamp, p *txn.Piece) []byte {
	if s.executed[id] {
		return nil
	}
	v := &s.view
	v.s, v.writer, v.ts, v.ids = s, id, ts, s.getPend()
	out := p.Exec(v)
	if len(v.ids) > 0 {
		s.pending[id] = v.ids
	} else {
		s.putPend(v.ids)
	}
	v.ids = nil
	s.executed[id] = true
	return out
}

// Revoke erases all pending versions written by id so the transaction can be
// re-executed later with a corrected timestamp.
func (s *refStore) Revoke(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		delete(s.executed, id)
		return
	}
	for _, kid := range wp {
		s.revokeSlot(&s.byID[kid], id)
	}
	delete(s.pending, id)
	delete(s.executed, id)
	s.putPend(wp)
}

func (s *refStore) revokeSlot(e *refSlot, id txn.ID) {
	vs := e.vs
	// The revoked version is at (or near) the top: conflicting writers
	// were blocked while this transaction was outstanding.
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].writer == id {
			copy(vs[i:], vs[i+1:])
			vs[len(vs)-1] = refVersion{}
			vs = vs[:len(vs)-1]
			break
		}
	}
	e.vs = vs
	if len(vs) == 0 {
		// Seeded keys always retain their seed version, so only a blind write
		// on a fresh key can empty a slot: the key is absent again (it keeps
		// its id), so Len/Equal reflect the revert.
		s.live--
	}
}

// Commit finalizes id's writes. In the default mode its versions become
// durable and older versions of those keys are garbage-collected in place
// (the key's version slice is truncated and reused, not reallocated); in
// snapshot-retaining mode (EnableSnapshots) the versions are marked
// committed and history is kept for GetAtID.
// Committing an id twice is a no-op either way.
func (s *refStore) Commit(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		return
	}
	for _, kid := range wp {
		if s.retain {
			s.commitRetain(kid, id)
		} else {
			refCommitGC(&s.byID[kid], id)
		}
	}
	delete(s.pending, id)
	s.putPend(wp)
}

func (s *refStore) commitRetain(kid txn.KeyID, id txn.ID) {
	vs := s.byID[kid].vs
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].writer == id {
			vs[i].uncommitted = false
			s.noteCommitted(kid, len(vs))
			break
		}
	}
}

// noteCommitted is the retain-mode bookkeeping for a version committed on a
// key now holding n versions.
func (s *refStore) noteCommitted(kid txn.KeyID, n int) {
	if n > 1 {
		s.multi[kid] = struct{}{}
	}
}

// commitGC collapses the chain to the committed top version in place,
// keeping the slice's capacity so the key's next optimistic write appends
// without reallocating.
func refCommitGC(e *refSlot, id txn.ID) {
	vs := e.vs
	// The marked change: this read len(vs) <= 1, which left a committed blind
	// write on a fresh key flagged uncommitted for good.
	if len(vs) == 0 {
		return
	}
	top := vs[len(vs)-1]
	if top.writer != id {
		return
	}
	top.uncommitted = false
	vs[0] = top
	for i := 1; i < len(vs); i++ {
		vs[i] = refVersion{}
	}
	e.vs = vs[:1]
}

// PutCommitted appends an already-committed version of key directly,
// bypassing the Execute/Commit pending cycle.
func (s *refStore) PutCommitted(key string, ts txn.Timestamp, val []byte) {
	s.putCommitted(s.Intern(key), ts, val)
}

func (s *refStore) putCommitted(kid txn.KeyID, ts txn.Timestamp, val []byte) {
	e := &s.byID[kid]
	if len(e.vs) == 0 {
		s.live++
	}
	e.vs = append(e.vs, refVersion{ts: ts, val: val})
	if s.retain {
		s.noteCommitted(kid, len(e.vs))
	}
}

// Versions returns the total number of versions held across all keys — the
// memory-growth signal the watermark-GC plateau test pins.
func (s *refStore) Versions() int {
	n := 0
	for i := range s.byID {
		n += len(s.byID[i].vs)
	}
	return n
}

// PruneTo garbage-collects committed history no snapshot read at or above
// `horizon` can observe: for each key it keeps the newest committed version
// with timestamp ≤ horizon (the version GetAtID(key, horizon) returns) and
// drops all committed versions strictly older. Uncommitted (optimistic)
// versions are never touched, and a key's newest committed state always
// survives, so Get and any GetAtID(·, at ≥ horizon) are invariant under
// pruning. The caller (a protocol's safe-time tick) derives horizon from the
// minimum replica watermark minus the read-staleness bound. Only the dirty
// set of rewritten keys is visited. Returns the number of versions dropped.
func (s *refStore) PruneTo(horizon time.Duration) int {
	if !s.retain || len(s.multi) == 0 {
		return 0
	}
	pruned := 0
	for k := range s.multi {
		e := &s.byID[k]
		vs := e.vs
		// Find the pivot: the newest committed version at or below the
		// horizon (same scan GetAtID performs).
		pivot := -1
		for i := len(vs) - 1; i >= 0; i-- {
			if !vs[i].uncommitted && vs[i].ts.Time <= horizon {
				pivot = i
				break
			}
		}
		if pivot > 0 {
			kept := vs[:0]
			for i := range vs {
				if i < pivot && !vs[i].uncommitted {
					pruned++
					continue
				}
				kept = append(kept, vs[i])
			}
			// Zero the vacated tail so dropped values release their
			// backing buffers.
			for i := len(kept); i < len(vs); i++ {
				vs[i] = refVersion{}
			}
			vs = kept
			e.vs = vs
		}
		if len(vs) <= 1 {
			delete(s.multi, k)
		}
	}
	return pruned
}

// Equal reports whether two stores hold identical newest values — used by
// replica-consistency checks in tests.
func (s *refStore) Equal(o *refStore) bool {
	if s.live != o.live {
		return false
	}
	for k, id := range s.index {
		if len(s.byID[id].vs) > 0 && string(s.GetID(id)) != string(o.Get(k)) {
			return false
		}
	}
	return true
}
