// Package store implements the per-shard multi-version key-value store.
//
// Tiga's optimistic execution creates new versions of data items; when
// timestamp agreement invalidates an execution (Case-3, §3.5), the versions
// written by that transaction are revoked. Because conflicting transactions
// are blocked while a transaction is at the head of the queue, a revoked
// transaction's versions are always the newest version of each key it wrote,
// so revocation never cascades.
//
// Every key the store has seen is interned: it has a dense txn.KeyID, and the
// name map only translates a string to the id (names are kept nowhere else).
// Seeded keys get the ids of their position in the image (the workload's own key
// index), so hot loops (GetID/PutID through a view, GetAtID) never hash a
// string; a name that shows up later (an inserted row, a hand-built string
// piece) is given the next id by Intern. This package is the one place where
// the two forms of a key meet: ID turns a key of a piece's declared access set
// into this store's id, both views accept either form for the same key, and a
// buffered write that arrived by name carries the name along (Write), because
// the id a store gave an inserted row means nothing on another store. Execute
// reuses one transaction view plus freelisted write-set slices across
// transactions.
//
// Versions live in one slab the store owns (pool.Slab: fixed-size chunks,
// entries never move). byID holds, per key, a 4-byte reference to the key's
// newest version; each version links to the next older one of its key; and a
// free list threaded through the same link takes back every version the store
// drops — collapsed by the default-mode Commit, revoked, pruned, overwritten by
// Seed or the default-mode ApplyAt — so a rewritten key reuses a freed entry.
// Writing costs an allocation per chunk of new versions, not one per key, and
// Versions is a subtraction. Values are not part of that: they are immutable
// []byte, aliased by read and piece results, and never written into reusable
// memory. One value may be shared across keys, stores and nodes — every
// replica's seed values come from one image, txn.Int hands out small integers
// from one package-level table, and a buffered write set is applied to the
// shard's other copies — so nothing may write into a stored value's bytes; a
// new value is a new slice. A piece builds the values it writes and the result
// it returns in the store's own bytes (txn.KV's Bytes), and a view keeps a value
// it is given as the shared small integer it encodes or as a copy of its own
// (keep). Both come from pool.Arenas of small chunks that are never reused, so
// writing an integer costs an allocation per chunk, not one per value, and what
// a piece handed on stays as it was. They are two arenas because what they hold
// lives apart: a kept value lives until the key is overwritten, often for the
// whole run, a result as long as its transaction's record, and an arena's chunk
// stays reachable while anything carved from it does — in one arena every
// chunk holding a kept value would keep the results beside it reachable too.
//
// A shard's replicas start byte-identical, so what they start from is held
// once: an Image is a shard's name → id map and seed values, built by the
// workload generator once per shard and handed to every replica's store with
// Attach. The name map is never copied — a store adds only the names it interns
// later (inserted rows) to a small map of its own, and Lookup is the one place
// that consults the two. The seed versions are shared too, but only by stores
// that retain history (EnableSnapshots before Attach): there a write always
// adds a version, so the image's slab can sit under the store's as a prefix
// that is read and never written (pool.Over) — a seed version leaves a key's
// chain by being counted out, never by going on the free list, and the first
// write to a shard costs the replica one chunk of its own. A default-mode store
// fills a slab of its own from the image's values instead: its Commit recycles
// a key's previous version into the next write, and the seed version is the
// first such buffer; sharing it there was measured to move the allocation from
// set-up into the run (EXPERIMENTS.md, PR 22).
//
// There is no deep copy: a store's committed state is a pure function of its
// seed and the Execute/Commit sequence applied to it, which is what Tiga's
// checkpoints (§4) rely on — they record a log position and rebuild the state
// by replay on the rare recovery instead of copying the keyspace on the
// commit path.
package store

import (
	"sync"
	"time"

	"tiga/internal/pool"
	"tiga/internal/txn"
)

// ref names a version in the store's slab: its entry number plus one, zero
// for none.
type ref uint32

type version struct {
	writer txn.ID
	ts     txn.Timestamp
	val    []byte
	// prev is the next older version of the key; of a free entry, the next
	// free one. It shares the struct's last word with uncommitted.
	prev ref
	// uncommitted marks a version written by Execute that Commit has not
	// yet finalized. Snapshot reads (GetAtID) never observe such versions;
	// Get still does, because optimistic execution reads its own writes.
	uncommitted bool
}

// Image is the state every replica of a shard starts from: key i of the batch
// it was built from is named keys[i], has id i and holds val(i). It is
// immutable once built, so any number of stores, on any number of goroutines,
// can be attached to one.
type Image struct {
	index map[string]txn.KeyID
	n     int
	val   func(i int) []byte
	// vers holds the seed versions, entry i for key i, for the stores that share
	// them. It is built by the first such store to attach.
	once sync.Once
	vers pool.Slab[version]
}

// NewImage builds the image of a shard seeded with val(i) under keys[i]. The
// names share their bytes with the caller; val must return the same value for
// the same i every time it is asked.
func NewImage(keys []string, val func(i int) []byte) *Image {
	index := make(map[string]txn.KeyID, len(keys))
	for i, k := range keys {
		index[k] = txn.KeyID(i)
	}
	return &Image{index: index, n: len(keys), val: val}
}

// versions returns the image's seed-version slab, building it on first need.
func (m *Image) versions() *pool.Slab[version] {
	m.once.Do(func() {
		for i := 0; i < m.n; i++ {
			*m.vers.At(m.vers.Add()) = version{val: m.val(i)}
		}
	})
	return &m.vers
}

// Store is a multi-version key-value store for one shard.
type Store struct {
	// img names the keys the store was seeded with (Attach; nil without), index
	// the ones it interned itself, and byID[id] is the key's newest version, the
	// head of its chain. A key with no version is absent: it was interned (or
	// its only write revoked) but nothing is stored under it. Key i of the image
	// has id i (the workload's dense key index); names first seen later get the
	// next id from Intern.
	img   *Image
	index map[string]txn.KeyID
	byID  []ref
	// vers holds every version; free heads the list of entries the store has
	// taken back, nfree of them, linked through prev and otherwise zero. Refs
	// at or below shared are the image's seed versions, read in place and never
	// written or freed; linked of them are still on their key's chain.
	vers   pool.Slab[version]
	free   ref
	nfree  int
	shared ref
	linked int
	// live counts the keys holding at least one version (Len).
	live int
	// pending holds the ids each uncommitted transaction wrote. The slices
	// are freelisted: Commit and Revoke hand them back for the next Execute,
	// so steady-state execution allocates no write-set tracking.
	pending map[txn.ID][]txn.KeyID
	// Executed tracks at-most-once execution (paper Appendix B).
	executed map[txn.ID]bool
	// view and pendFree are the Execute scratch: one reusable transaction
	// view and a freelist of retired write-set slices. buf is the same for
	// ExecuteBuffered.
	view     txnView
	buf      bufView
	pendFree [][]txn.KeyID
	// bytes is what the views' Bytes carve, the results and the scratch of
	// the values pieces build; vals holds the copies of values the store keeps
	// (keep). Their chunks are never reused.
	bytes, vals pool.Arena[byte]
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
func New() *Store {
	return &Store{
		index:    make(map[string]txn.KeyID),
		pending:  make(map[txn.ID][]txn.KeyID),
		executed: make(map[txn.ID]bool),
		bytes:    pool.NewArena[byte](bytesChunk),
		vals:     pool.NewArena[byte](bytesChunk),
	}
}

// bytesChunk sizes the chunks of a store's two arenas: 128 eight-byte values.
// A store that writes few large integers pays for little it does not use.
const bytesChunk = 1 << 10

// carve returns an empty buffer of the store's with room for n bytes.
func (s *Store) carve(n int) []byte { return s.bytes.Carve(n)[:0] }

// keep returns the bytes the store keeps for val, a value a view was given:
// val's shared encoding when it is a small integer (txn.Int), otherwise a copy
// in the store's values arena. Empty values are kept as they are.
func (s *Store) keep(val []byte) []byte {
	switch v := txn.DecodeInt(val); {
	case len(val) == 0:
		return val
	case len(val) == 8 && -txn.SmallInts <= v && v < txn.SmallInts:
		return txn.EncodeInt(v)
	}
	return append(s.vals.Carve(len(val))[:0], val...)
}

// EnableSnapshots switches the store into version-retaining mode: Commit
// marks versions committed instead of garbage-collecting history, so GetAtID
// can serve reads at any past timestamp. Protocols enable this only when local
// snapshot reads are on; the default GC behavior is byte-identical to before.
// Called before Attach it also lets the store share the image's seed versions;
// called after, the store keeps the entries it was filled with.
func (s *Store) EnableSnapshots() {
	s.retain = true
	if s.multi == nil {
		s.multi = make(map[txn.KeyID]struct{})
	}
}

// Intern returns key's id, giving a name the store has not seen the next free
// one. Interning stores nothing: the key stays absent until it is written.
func (s *Store) Intern(key string) txn.KeyID {
	if id, ok := s.Lookup(key); ok {
		return id
	}
	id := txn.KeyID(len(s.byID))
	s.index[key] = id
	s.byID = append(s.byID, 0)
	return id
}

// at returns the version r names; r is not zero.
func (s *Store) at(r ref) *version { return s.vers.At(uint32(r) - 1) }

// push makes v the newest version of key id, in a freed entry when there is
// one. The entry is overwritten whole.
func (s *Store) push(id txn.KeyID, v version) {
	r := s.free
	if r != 0 {
		s.free = s.at(r).prev
		s.nfree--
	} else {
		r = ref(s.vers.Add() + 1)
	}
	top := &s.byID[id]
	if *top == 0 {
		s.live++
	}
	v.prev = *top
	*s.at(r) = v
	*top = r
}

// release takes back entry r, which no chain links to any more. Zeroing it
// lets go of the value. An image version is only counted out: the shard's other
// replicas still read it.
func (s *Store) release(r ref) {
	if r <= s.shared {
		s.linked--
		return
	}
	*s.at(r) = version{prev: s.free}
	s.free = r
	s.nfree++
}

// cut releases every version older than v, which becomes the last of its chain.
func (s *Store) cut(v *version) {
	for r := v.prev; r != 0; {
		next := s.at(r).prev
		s.release(r)
		r = next
	}
	v.prev = 0
}

// Get returns the newest version of key, or nil when absent.
func (s *Store) Get(key string) []byte {
	id, ok := s.Lookup(key)
	if !ok {
		return nil
	}
	return s.GetID(id)
}

// GetID is Get over an interned key: a slice index instead of a string hash.
func (s *Store) GetID(id txn.KeyID) []byte {
	top := s.byID[id]
	if top == 0 {
		return nil
	}
	return s.at(top).val
}

// ID returns this store's id of key i of a declared access set, whose names
// and ids are positionally parallel: ids[i] when the key came with one,
// otherwise — beyond the end of ids, or marked txn.NoKeyID — the id names[i]
// is interned under. A name and an id of one key therefore always resolve to
// the same id, and resolving a set key by key copies nothing.
func (s *Store) ID(names []string, ids []txn.KeyID, i int) txn.KeyID {
	if i < len(ids) && ids[i] != txn.NoKeyID {
		return ids[i]
	}
	return s.Intern(names[i])
}

// Seed installs an initial committed value (workload pre-population),
// replacing whatever the key held. Use Attach to pre-populate a keyspace: the
// image holds the name map once for all replicas and fixes the ids to the
// batch order.
func (s *Store) Seed(key string, val []byte) {
	s.set(s.Intern(key), version{val: val})
}

// set makes v all that key id holds: in the entry of the key's newest version
// when the store owns it, the older ones released. An image version is always
// the last of its chain, so one at the head is all the key holds.
func (s *Store) set(id txn.KeyID, v version) {
	top := s.byID[id]
	if top > s.shared {
		e := s.at(top)
		s.cut(e)
		*e = v
		return
	}
	if top != 0 {
		s.release(top)
		s.byID[id] = 0
		s.live--
	}
	s.push(id, v)
}

// Attach seeds an empty store from a shard's image: key i of the image becomes
// txn.KeyID(i) holding the image's value, so a workload's dense key index
// doubles as its KeyID. The name map is the image's, shared by every store
// attached to it. A store that retains history (EnableSnapshots came first)
// shares the image's seed versions as well and allocates nothing per key but
// its 4-byte reference; a default-mode store fills its own slab's chunks in id
// order from the image's values (see the package comment for why).
func (s *Store) Attach(img *Image) {
	if s.img != nil || len(s.byID) != 0 {
		panic("store: Attach to a store that already has keys")
	}
	s.img = img
	s.byID = make([]ref, img.n)
	if !s.retain {
		for i := range s.byID {
			s.push(txn.KeyID(i), version{val: img.val(i)})
		}
		return
	}
	s.vers = pool.Over(img.versions())
	s.shared = ref(s.vers.Shared())
	s.live, s.linked = img.n, img.n
	for i := range s.byID {
		s.byID[i] = ref(i + 1)
	}
}

// SeedBulk installs the same initial committed value for every key in one
// pass; see SeedBulkFunc.
func (s *Store) SeedBulk(keys []string, val []byte) {
	s.SeedBulkFunc(keys, func(int) []byte { return val })
}

// SeedBulkFunc installs val(i) as the initial committed value of keys[i] and
// fixes the batch's ids: key keys[i] becomes txn.KeyID(base+i), where base is
// the number of keys interned before the call. The keys must be new to the
// store. On an empty store that is Attach to an image of the batch, which only
// this store uses; a later batch is seeded key by key.
func (s *Store) SeedBulkFunc(keys []string, val func(i int) []byte) {
	if s.img == nil && len(s.byID) == 0 {
		s.Attach(NewImage(keys, val))
		return
	}
	for i, k := range keys {
		s.Seed(k, val(i))
	}
}

// Interned returns the number of keys that have an id (test helper).
func (s *Store) Interned() int { return len(s.byID) }

// Lookup returns key's id without interning it: the image's for a seeded key,
// the store's own for a name it interned later.
func (s *Store) Lookup(key string) (txn.KeyID, bool) {
	if s.img != nil {
		if id, ok := s.img.index[key]; ok {
			return id, true
		}
	}
	id, ok := s.index[key]
	return id, ok
}

// Len returns the number of keys present.
func (s *Store) Len() int { return s.live }

// Executed reports whether the transaction already executed here.
func (s *Store) Executed(id txn.ID) bool { return s.executed[id] }

// txnView is the view of an optimistic execution: writes become pending
// versions of id's transaction. A write by name is an interned write after one
// name lookup, so Commit/Revoke consume one id list.
type txnView struct {
	s      *Store
	writer txn.ID
	ts     txn.Timestamp
	ids    []txn.KeyID
}

func (v *txnView) Get(key string) []byte { return v.s.Get(key) }

func (v *txnView) GetID(id txn.KeyID) []byte { return v.s.GetID(id) }

func (v *txnView) Put(key string, val []byte) { v.PutID(v.s.Intern(key), val) }

func (v *txnView) PutID(id txn.KeyID, val []byte) {
	v.s.push(id, version{writer: v.writer, ts: v.ts, val: v.s.keep(val), uncommitted: true})
	v.ids = append(v.ids, id)
}

func (v *txnView) Bytes(n int) []byte { return v.s.carve(n) }

// Write is one buffered write. ID is the key's id in the store that executed
// the piece. Name is set when the piece wrote the key by name — an inserted
// row, a hand-built string piece: the id such a key has is the executing
// store's own, so a store applying the write looks the name up again.
type Write struct {
	ID   txn.KeyID
	Name string
	Val  []byte
}

// ExecuteBuffered runs a piece that reads the store but buffers its writes:
// the store's contents are left untouched (a key written by name is interned,
// which stores nothing) and the write set is appended to dst and returned
// with the piece's result, one entry per key in the order the keys were first
// written, for protocols that apply (Apply, ApplyAt) or discard writes at
// their own commit point. A nil dst gets a fresh slice, which the caller may
// keep; a caller that is done with the writes before its next call passes its
// previous result back as dst[:0] and allocates nothing.
func (s *Store) ExecuteBuffered(dst []Write, p *txn.Piece) ([]byte, []Write) {
	if dst == nil {
		dst = make([]Write, 0, len(p.WriteSet))
	}
	v := &s.buf
	v.s, v.writes, v.base = s, dst, len(dst)
	ret := p.Run(v)
	ws := v.writes
	v.writes = nil
	return ret, ws
}

// bufView is the write-buffering view. Its writes are writes[base:], keyed
// by id whichever form they arrived in, so a piece reads its own writes in
// either form.
type bufView struct {
	s      *Store
	writes []Write
	base   int
}

func (v *bufView) Get(key string) []byte {
	// Put interns, so a name the store does not know was not written either.
	id, ok := v.s.Lookup(key)
	if !ok {
		return nil
	}
	return v.GetID(id)
}

func (v *bufView) GetID(id txn.KeyID) []byte {
	for i := v.base; i < len(v.writes); i++ {
		if v.writes[i].ID == id {
			return v.writes[i].Val
		}
	}
	return v.s.GetID(id)
}

func (v *bufView) Put(key string, val []byte) { v.put(Write{v.s.Intern(key), key, val}) }

func (v *bufView) PutID(id txn.KeyID, val []byte) { v.put(Write{ID: id, Val: val}) }

func (v *bufView) Bytes(n int) []byte { return v.s.carve(n) }

func (v *bufView) put(w Write) {
	w.Val = v.s.keep(w.Val)
	for i := v.base; i < len(v.writes); i++ {
		if old := &v.writes[i]; old.ID == w.ID {
			old.Val = w.Val
			if w.Name != "" {
				old.Name = w.Name
			}
			return
		}
	}
	v.writes = append(v.writes, w)
}

// Apply installs a buffered write set as committed state; see ApplyAt.
func (s *Store) Apply(ws []Write) { s.ApplyAt(txn.Timestamp{}, ws) }

// ApplyAt installs a buffered write set as state committed at ts, on the
// store that produced it or on another copy of the shard: a write made by
// name goes to the key this store interns the name under, the others to their
// id. In the default mode the write becomes all the key holds; in
// snapshot-retaining mode a committed version is added, so the caller must
// apply one key's writes in timestamp order (see GetAtID).
func (s *Store) ApplyAt(ts txn.Timestamp, ws []Write) {
	for i := range ws {
		w := &ws[i]
		id := w.ID
		if w.Name != "" {
			id = s.Intern(w.Name)
		}
		if s.retain {
			s.putCommitted(id, ts, w.Val)
		} else {
			s.set(id, version{ts: ts, val: w.Val})
		}
	}
}

// GetAtID returns the newest committed version of the key with a timestamp at
// or below at, together with that version's commit timestamp (zero for seeded
// initial values). Uncommitted versions are invisible: a snapshot read never
// observes optimistic state. Committed versions of one key are added in
// timestamp order (conflicting writers are serialized by the protocol), so
// the newest qualifying version is the first committed one at or below at
// when walking the chain from its head.
func (s *Store) GetAtID(id txn.KeyID, at time.Duration) ([]byte, txn.Timestamp, bool) {
	for r := s.byID[id]; r != 0; {
		v := s.at(r)
		if !v.uncommitted && v.ts.Time <= at {
			return v.val, v.ts, true
		}
		r = v.prev
	}
	return nil, txn.Timestamp{}, false
}

// getPend pops a retired write-set slice off the freelist (empty, capacity
// retained) or returns nil, which allocates on first append.
func (s *Store) getPend() []txn.KeyID {
	if n := len(s.pendFree); n > 0 {
		p := s.pendFree[n-1]
		s.pendFree = s.pendFree[:n-1]
		return p
	}
	return nil
}

func (s *Store) putPend(p []txn.KeyID) { s.pendFree = append(s.pendFree, p[:0]) }

// ExecuteID runs a piece as transaction id at timestamp ts, creating pending
// versions for its writes. It enforces at-most-once execution: re-executing
// an id that already ran is a no-op returning nil, unless it was revoked.
// A piece that carries ids reaches the store through the view's GetID/PutID
// slice path and never hashes a key; one that names its keys runs here too
// (the view dispatches per write).
func (s *Store) ExecuteID(id txn.ID, ts txn.Timestamp, p *txn.Piece) []byte {
	if s.executed[id] {
		return nil
	}
	v := &s.view
	v.s, v.writer, v.ts, v.ids = s, id, ts, s.getPend()
	out := p.Run(v)
	if len(v.ids) > 0 {
		s.pending[id] = v.ids
	} else {
		s.putPend(v.ids)
	}
	v.ids = nil
	s.executed[id] = true
	return out
}

// Forget drops the at-most-once mark of id, a committed transaction, once
// nobody can ask for it again (Tiga retires its record then): Executed turns
// false, and the values and versions id wrote stay as they are. It panics on a
// transaction with writes still pending.
func (s *Store) Forget(id txn.ID) {
	if _, ok := s.pending[id]; ok {
		panic("store: Forget of an uncommitted transaction")
	}
	delete(s.executed, id)
}

// Revoke erases all pending versions written by id so the transaction can be
// re-executed later with a corrected timestamp.
func (s *Store) Revoke(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		delete(s.executed, id)
		return
	}
	for _, kid := range wp {
		s.revokeKey(kid, id)
	}
	delete(s.pending, id)
	delete(s.executed, id)
	s.putPend(wp)
}

func (s *Store) revokeKey(kid txn.KeyID, id txn.ID) {
	// The revoked version is at (or near) the head: conflicting writers
	// were blocked while this transaction was outstanding.
	for link := &s.byID[kid]; *link != 0; {
		r := *link
		v := s.at(r)
		if v.writer == id {
			*link = v.prev
			s.release(r)
			break
		}
		link = &v.prev
	}
	if s.byID[kid] == 0 {
		// Seeded keys always retain their seed version, so only a blind write
		// on a fresh key can empty a chain: the key is absent again (it keeps
		// its id), so Len/Equal reflect the revert.
		s.live--
	}
}

// Commit finalizes id's writes. In the default mode its versions become
// durable and older versions of those keys are garbage-collected (released to
// the free list, where the next write finds them); in
// snapshot-retaining mode (EnableSnapshots) the versions are marked
// committed and history is kept for GetAtID.
// Committing an id twice is a no-op either way.
func (s *Store) Commit(id txn.ID) {
	wp, ok := s.pending[id]
	if !ok {
		return
	}
	for _, kid := range wp {
		if s.retain {
			s.commitRetain(kid, id)
		} else {
			s.commitGC(kid, id)
		}
	}
	delete(s.pending, id)
	s.putPend(wp)
}

func (s *Store) commitRetain(kid txn.KeyID, id txn.ID) {
	for r := s.byID[kid]; r != 0; {
		v := s.at(r)
		if v.writer == id {
			v.uncommitted = false
			s.noteCommitted(kid)
			break
		}
		r = v.prev
	}
}

// noteCommitted is the retain-mode bookkeeping for a committed version of key
// kid: a key holding more than one version joins the GC dirty-set.
func (s *Store) noteCommitted(kid txn.KeyID) {
	if s.at(s.byID[kid]).prev != 0 {
		s.multi[kid] = struct{}{}
	}
}

// commitGC collapses the chain to its newest version, now committed, when
// that is id's: the older versions go back to the free list.
func (s *Store) commitGC(kid txn.KeyID, id txn.ID) {
	if top := s.byID[kid]; top != 0 {
		if v := s.at(top); v.writer == id {
			v.uncommitted = false
			s.cut(v)
		}
	}
}

// PutCommitted appends an already-committed version of key directly,
// bypassing the Execute/Commit pending cycle.
func (s *Store) PutCommitted(key string, ts txn.Timestamp, val []byte) {
	s.putCommitted(s.Intern(key), ts, val)
}

func (s *Store) putCommitted(kid txn.KeyID, ts txn.Timestamp, val []byte) {
	s.push(kid, version{ts: ts, val: val})
	if s.retain {
		s.noteCommitted(kid)
	}
}

// Versions returns the total number of versions held across all keys — the
// memory-growth signal the watermark-GC plateau test pins: every slab entry
// handed out that is not on the free list, plus the image versions still on a
// chain.
func (s *Store) Versions() int { return s.vers.Len() - s.nfree + s.linked }

// Chunks returns the number of slab chunks the store has allocated for versions
// of its own; the image versions it shares are not among them.
func (s *Store) Chunks() int { return s.vers.Chunks() }

// PruneTo garbage-collects committed history no snapshot read at or above
// `horizon` can observe: for each key it keeps the newest committed version
// with timestamp ≤ horizon (the version GetAtID(key, horizon) returns) and
// drops all committed versions strictly older. Uncommitted (optimistic)
// versions are never touched, and a key's newest committed state always
// survives, so Get and any GetAtID(·, at ≥ horizon) are invariant under
// pruning. The caller (a protocol's safe-time tick) derives horizon from the
// minimum replica watermark minus the read-staleness bound. Only the dirty
// set of rewritten keys is visited. Returns the number of versions dropped.
func (s *Store) PruneTo(horizon time.Duration) int {
	if !s.retain || len(s.multi) == 0 {
		return 0
	}
	pruned := 0
	for k := range s.multi {
		// Find the pivot: the newest committed version at or below the
		// horizon (same walk GetAtID performs).
		pivot := s.byID[k]
		for pivot != 0 {
			v := s.at(pivot)
			if !v.uncommitted && v.ts.Time <= horizon {
				break
			}
			pivot = v.prev
		}
		if pivot != 0 {
			// Unlink and release the committed versions behind it.
			for link := &s.at(pivot).prev; *link != 0; {
				r := *link
				if v := s.at(r); v.uncommitted {
					link = &v.prev
				} else {
					*link = v.prev
					s.release(r)
					pruned++
				}
			}
		}
		if top := s.byID[k]; top == 0 || s.at(top).prev == 0 {
			delete(s.multi, k)
		}
	}
	return pruned
}

// Equal reports whether two stores hold identical newest values — used by
// replica-consistency checks in tests.
func (s *Store) Equal(o *Store) bool {
	if s.live != o.live {
		return false
	}
	indexes := [2]map[string]txn.KeyID{s.index}
	if s.img != nil {
		indexes[1] = s.img.index
	}
	for _, index := range indexes {
		for k, id := range index {
			if s.byID[id] != 0 && string(s.GetID(id)) != string(o.Get(k)) {
				return false
			}
		}
	}
	return true
}
