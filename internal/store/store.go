// Package store implements the per-shard multi-version key-value store.
//
// Tiga's optimistic execution creates new versions of data items; when
// timestamp agreement invalidates an execution (Case-3, §3.5), the versions
// written by that transaction are revoked. Because conflicting transactions
// are blocked while a transaction is at the head of the queue, a revoked
// transaction's versions are always the newest version of each key it wrote,
// so revocation never cascades.
//
// The store is allocation-lean on the serving path: keys seeded through
// SeedBulk are interned as dense txn.KeyID indices into a slot slice, so hot
// loops (GetID/PutID through Execute's view, GetAtID) never hash a string;
// the default-mode Commit garbage-collects in place, reusing each key's
// version slice instead of reallocating it; and Execute reuses one
// transaction view plus freelisted write-set slices across transactions.
//
// There is no deep copy: a store's committed state is a pure function of its
// seed and the Execute/Commit sequence applied to it, which is what Tiga's
// checkpoints (§4) rely on — they record a log position and rebuild the image
// by replay on the rare recovery instead of copying the keyspace on the
// commit path.
package store

import (
	"sort"
	"time"

	"tiga/internal/txn"
)

type version struct {
	writer txn.ID
	ts     txn.Timestamp
	val    []byte
	// uncommitted marks a version written by Execute that Commit has not
	// yet finalized. Snapshot reads (GetAt) never observe such versions;
	// Get still does, because optimistic execution reads its own writes.
	uncommitted bool
}

// slot holds one key's version chain. Both indexes — the string map and the
// dense KeyID slice — point at the same slot, so a mutation through either
// path is visible to both without writing back two slice headers.
type slot struct {
	vs []version
}

// pend tracks the keys one uncommitted transaction wrote, in whichever form
// the writes arrived (interned IDs from PutID, strings from Put). The two
// slices are freelisted: Commit and Revoke hand them back for the next
// Execute, so steady-state execution allocates no write-set tracking.
type pend struct {
	keys []string
	ids  []txn.KeyID
}

// Store is a multi-version key-value store for one shard.
type Store struct {
	data map[string]*slot
	// byID is the interned fast path: byID[i] is the slot of the key seeded
	// at position i of the SeedBulk batch (the workload's dense key index).
	// idNames maps an id back to its name (aliases the seeder's name slice)
	// for the bookkeeping that is string-keyed (retain-mode high/multi).
	byID    []*slot
	idNames []string
	pending map[txn.ID]pend
	// Executed tracks at-most-once execution (paper Appendix B).
	executed map[txn.ID]bool
	// view and pendFree are the Execute scratch: one reusable transaction
	// view and a freelist of retired write-set slice pairs.
	view     txnView
	pendFree []pend
	// retain switches Commit from garbage-collecting old versions to
	// keeping the full committed history, which snapshot reads need.
	retain bool
	// high is the committed-timestamp high-water per key (retain mode).
	high map[string]txn.Timestamp
	// multi is the GC dirty-set (retain mode): keys currently holding more
	// than one version. PruneTo walks only this set, so watermark GC stays
	// O(rewritten keys) per tick instead of O(keyspace) — the difference
	// between tractable and catastrophic at million-key scale.
	multi map[string]struct{}
}

// New returns an empty store.
func New() *Store {
	return &Store{
		data:     make(map[string]*slot),
		pending:  make(map[txn.ID]pend),
		executed: make(map[txn.ID]bool),
	}
}

// EnableSnapshots switches the store into version-retaining mode: Commit
// marks versions committed (recording a per-key high-water timestamp)
// instead of garbage-collecting history, so GetAt can serve reads at any
// past timestamp. Protocols enable this only when local snapshot reads are
// on; the default GC behavior is byte-identical to before.
func (s *Store) EnableSnapshots() {
	s.retain = true
	if s.high == nil {
		s.high = make(map[string]txn.Timestamp)
	}
	if s.multi == nil {
		s.multi = make(map[string]struct{})
	}
}

// Get returns the newest version of key, or nil when absent.
func (s *Store) Get(key string) []byte {
	e := s.data[key]
	if e == nil || len(e.vs) == 0 {
		return nil
	}
	return e.vs[len(e.vs)-1].val
}

// GetID is Get over an interned key: a slice index instead of a string hash.
func (s *Store) GetID(id txn.KeyID) []byte {
	vs := s.byID[id].vs
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1].val
}

// Seed installs an initial committed value (workload pre-population). Keys
// seeded one at a time are not interned; use SeedBulk for the ID fast path.
func (s *Store) Seed(key string, val []byte) {
	e := s.data[key]
	if e == nil {
		e = &slot{}
		s.data[key] = e
	}
	e.vs = []version{{val: val}}
}

// Reserve sizes the key map for n additional keys ahead of a per-key bulk
// seed, avoiding incremental rehashing while a store is pre-populated. A
// non-empty store is rebuilt at the combined size with its contents
// preserved, so workloads that seed in multiple passes still benefit.
func (s *Store) Reserve(n int) {
	if n <= 0 {
		return
	}
	data := make(map[string]*slot, len(s.data)+n)
	for k, e := range s.data {
		data[k] = e
	}
	s.data = data
}

// SeedBulk installs the same initial committed value for every key in one
// pass and interns the batch: key keys[i] becomes txn.KeyID(base+i), where
// base is the number of keys interned by earlier SeedBulk calls (zero for the
// usual single-pass seed), so a workload's dense key index doubles as its
// KeyID. The slots and initial versions are laid out in shared backing arrays
// (each version capacity-clipped, so a later Put reallocates instead of
// aliasing its neighbor) — seeding a replica's keyspace costs a handful of
// allocations instead of several per key.
func (s *Store) SeedBulk(keys []string, val []byte) {
	s.Reserve(len(keys))
	vs := make([]version, len(keys))
	slots := make([]slot, len(keys))
	if s.byID == nil {
		s.byID = make([]*slot, 0, len(keys))
		s.idNames = make([]string, 0, len(keys))
	}
	for i, k := range keys {
		vs[i] = version{val: val}
		slots[i].vs = vs[i : i+1 : i+1]
		s.data[k] = &slots[i]
		s.byID = append(s.byID, &slots[i])
	}
	s.idNames = append(s.idNames, keys...)
}

// Interned returns the number of keys on the ID fast path (test helper).
func (s *Store) Interned() int { return len(s.byID) }

// Len returns the number of keys present.
func (s *Store) Len() int { return len(s.data) }

// Executed reports whether the transaction already executed here.
func (s *Store) Executed(id txn.ID) bool { return s.executed[id] }

// txnView is the KV a piece executes against. It implements both the string
// interface and txn.IDKV; interned writes record ids, string writes record
// keys, and Commit/Revoke consume whichever lists are non-empty.
type txnView struct {
	s      *Store
	writer txn.ID
	ts     txn.Timestamp
	keys   []string
	ids    []txn.KeyID
}

func (v *txnView) Get(key string) []byte { return v.s.Get(key) }

func (v *txnView) GetID(id txn.KeyID) []byte { return v.s.GetID(id) }

func (v *txnView) Put(key string, val []byte) {
	e := v.s.data[key]
	if e == nil {
		e = &slot{}
		v.s.data[key] = e
	}
	e.vs = append(e.vs, version{writer: v.writer, ts: v.ts, val: val, uncommitted: true})
	v.keys = append(v.keys, key)
}

func (v *txnView) PutID(id txn.KeyID, val []byte) {
	e := v.s.byID[id]
	e.vs = append(e.vs, version{writer: v.writer, ts: v.ts, val: val, uncommitted: true})
	v.ids = append(v.ids, id)
}

// ExecuteBuffered runs a piece that reads the store but buffers its writes:
// the store is left untouched and the write set comes back with the piece's
// result, for protocols that apply (or discard) writes at their own commit
// point.
func (s *Store) ExecuteBuffered(p *txn.Piece) ([]byte, map[string][]byte) {
	v := &bufView{st: s, writes: make(map[string][]byte)}
	ret := p.Exec(v)
	return ret, v.writes
}

type bufView struct {
	st     *Store
	writes map[string][]byte
}

func (v *bufView) Get(k string) []byte {
	if w, ok := v.writes[k]; ok {
		return w
	}
	return v.st.Get(k)
}

func (v *bufView) Put(k string, val []byte) { v.writes[k] = val }

// GetAt returns the newest committed version of key with a timestamp at or
// below at, together with that version's commit timestamp (zero for seeded
// initial values). Uncommitted versions are invisible: a snapshot read never
// observes optimistic state. Committed versions of one key are appended in
// timestamp order (conflicting writers are serialized by the protocol), so
// the newest qualifying version is the first committed one at or below at
// when scanning from the top.
func (s *Store) GetAt(key string, at time.Duration) ([]byte, txn.Timestamp, bool) {
	e := s.data[key]
	if e == nil {
		return nil, txn.Timestamp{}, false
	}
	return getAt(e.vs, at)
}

// GetAtID is GetAt over an interned key.
func (s *Store) GetAtID(id txn.KeyID, at time.Duration) ([]byte, txn.Timestamp, bool) {
	return getAt(s.byID[id].vs, at)
}

func getAt(vs []version, at time.Duration) ([]byte, txn.Timestamp, bool) {
	for i := len(vs) - 1; i >= 0; i-- {
		v := &vs[i]
		if v.uncommitted || v.ts.Time > at {
			continue
		}
		return v.val, v.ts, true
	}
	return nil, txn.Timestamp{}, false
}

// HighWater returns the committed-timestamp high-water for key: the largest
// commit timestamp any committed version of the key carries (zero when only
// the seeded value exists). Only meaningful in snapshot-retaining mode.
func (s *Store) HighWater(key string) txn.Timestamp { return s.high[key] }

// getPend pops a retired write-set pair off the freelist (empty, capacity
// retained) or returns a zero pair that will allocate on first append.
func (s *Store) getPend() pend {
	if n := len(s.pendFree); n > 0 {
		p := s.pendFree[n-1]
		s.pendFree = s.pendFree[:n-1]
		return p
	}
	return pend{}
}

func (s *Store) putPend(p pend) {
	p.keys = p.keys[:0]
	p.ids = p.ids[:0]
	s.pendFree = append(s.pendFree, p)
}

// Execute runs a piece as transaction id at timestamp ts, creating pending
// versions for its writes. It enforces at-most-once execution: re-executing
// an id that already ran is a no-op returning nil, unless it was revoked.
// Pieces carrying interned key ids (txn.Piece.ReadIDs/WriteIDs) reach the
// store through the view's GetID/PutID slice path and never hash a key.
func (s *Store) Execute(id txn.ID, ts txn.Timestamp, p *txn.Piece) []byte {
	if s.executed[id] {
		return nil
	}
	v := &s.view
	wp := s.getPend()
	v.s, v.writer, v.ts, v.keys, v.ids = s, id, ts, wp.keys, wp.ids
	out := p.Exec(v)
	if len(v.keys) > 0 || len(v.ids) > 0 {
		s.pending[id] = pend{keys: v.keys, ids: v.ids}
	} else {
		s.putPend(pend{keys: v.keys, ids: v.ids})
	}
	v.keys, v.ids = nil, nil
	s.executed[id] = true
	return out
}

// ExecuteID is Execute for call sites holding interned pieces; the two are
// interchangeable (the view dispatches per write), the name documents that
// the piece's hot path is the ID one.
func (s *Store) ExecuteID(id txn.ID, ts txn.Timestamp, p *txn.Piece) []byte {
	return s.Execute(id, ts, p)
}

// Revoke erases all pending versions written by id so the transaction can be
// re-executed later with a corrected timestamp.
func (s *Store) Revoke(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		delete(s.executed, id)
		return
	}
	for _, kid := range wp.ids {
		s.revokeSlot(s.byID[kid], s.idNames[kid], id)
	}
	for _, k := range wp.keys {
		if e := s.data[k]; e != nil {
			s.revokeSlot(e, k, id)
		}
	}
	delete(s.pending, id)
	delete(s.executed, id)
	s.putPend(wp)
}

func (s *Store) revokeSlot(e *slot, key string, id txn.ID) {
	vs := e.vs
	// The revoked version is at (or near) the top: conflicting writers
	// were blocked while this transaction was outstanding.
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].writer == id {
			copy(vs[i:], vs[i+1:])
			vs[len(vs)-1] = version{}
			vs = vs[:len(vs)-1]
			break
		}
	}
	e.vs = vs
	if len(vs) == 0 {
		// Interned keys always retain their seed version, so only a
		// string-path blind write on a fresh key can empty a slot; drop the
		// key so Len/Keys/Equal reflect the revert.
		delete(s.data, key)
	}
}

// Commit finalizes id's writes. In the default mode its versions become
// durable and older versions of those keys are garbage-collected in place
// (the key's version slice is truncated and reused, not reallocated); in
// snapshot-retaining mode (EnableSnapshots) the versions are marked
// committed, history is kept for GetAt, and the per-key high-water advances.
// Committing an id twice is a no-op either way.
func (s *Store) Commit(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		return
	}
	if s.retain {
		for _, kid := range wp.ids {
			s.commitRetain(s.byID[kid], s.idNames[kid], id)
		}
		for _, k := range wp.keys {
			if e := s.data[k]; e != nil {
				s.commitRetain(e, k, id)
			}
		}
	} else {
		for _, kid := range wp.ids {
			commitGC(s.byID[kid], id)
		}
		for _, k := range wp.keys {
			if e := s.data[k]; e != nil {
				commitGC(e, id)
			}
		}
	}
	delete(s.pending, id)
	s.putPend(wp)
}

func (s *Store) commitRetain(e *slot, key string, id txn.ID) {
	vs := e.vs
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].writer == id {
			vs[i].uncommitted = false
			if s.high[key].Less(vs[i].ts) {
				s.high[key] = vs[i].ts
			}
			break
		}
	}
	if len(vs) > 1 {
		s.multi[key] = struct{}{}
	}
}

// commitGC collapses the chain to the committed top version in place,
// keeping the slice's capacity so the key's next optimistic write appends
// without reallocating.
func commitGC(e *slot, id txn.ID) {
	vs := e.vs
	if len(vs) <= 1 {
		return
	}
	top := vs[len(vs)-1]
	if top.writer != id {
		return
	}
	top.uncommitted = false
	vs[0] = top
	for i := 1; i < len(vs); i++ {
		vs[i] = version{}
	}
	e.vs = vs[:1]
}

// PutCommitted appends an already-committed version of key directly — the
// install path for replicated write sets that arrive with their commit
// timestamp attached (lockocc's commit records), bypassing the
// Execute/Commit pending cycle.
func (s *Store) PutCommitted(key string, ts txn.Timestamp, val []byte) {
	e := s.data[key]
	if e == nil {
		e = &slot{}
		s.data[key] = e
	}
	e.vs = append(e.vs, version{ts: ts, val: val})
	if s.retain {
		if s.high[key].Less(ts) {
			s.high[key] = ts
		}
		if len(e.vs) > 1 {
			s.multi[key] = struct{}{}
		}
	}
}

// Versions returns the total number of versions held across all keys — the
// memory-growth signal the watermark-GC plateau test pins.
func (s *Store) Versions() int {
	n := 0
	for _, e := range s.data {
		n += len(e.vs)
	}
	return n
}

// PruneTo garbage-collects committed history no snapshot read at or above
// `horizon` can observe: for each key it keeps the newest committed version
// with timestamp ≤ horizon (the version GetAt(key, horizon) returns) and
// drops all committed versions strictly older. Uncommitted (optimistic)
// versions are never touched, and a key's newest committed state always
// survives, so Get and any GetAt(·, at ≥ horizon) are invariant under
// pruning. The caller (a protocol's safe-time tick) derives horizon from the
// minimum replica watermark minus the read-staleness bound. Only the dirty
// set of rewritten keys is visited. Returns the number of versions dropped.
func (s *Store) PruneTo(horizon time.Duration) int {
	if !s.retain || len(s.multi) == 0 {
		return 0
	}
	pruned := 0
	for k := range s.multi {
		e := s.data[k]
		vs := e.vs
		// Find the pivot: the newest committed version at or below the
		// horizon (same scan GetAt performs).
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
				vs[i] = version{}
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

// Keys returns all keys in sorted order (test/debug helper).
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two stores hold identical newest values — used by
// replica-consistency checks in tests.
func (s *Store) Equal(o *Store) bool {
	if len(s.data) != len(o.data) {
		return false
	}
	for k := range s.data {
		a, b := s.Get(k), o.Get(k)
		if string(a) != string(b) {
			return false
		}
	}
	return true
}
