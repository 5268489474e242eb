package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tiga/internal/txn"
)

// The differential oracle: the slab store and the slice-per-key store it
// replaced (refstore_test.go) are driven by one op log and compared after every
// op. A log is a byte string — the seeded random logs of
// TestSlabStoreMatchesReference are FuzzStoreOps' seed corpus — decoded by
// runOps: a header byte gives the mode of each of two worlds (a world is one
// store of each kind; two, so that Equal has something to compare with), then
// every op is an opcode byte, whose top bit picks the world, and the argument
// bytes the op reads. Every byte string is a valid log; a log that ends inside
// an op reads zeros.
//
// Every log is run twice: on stores that start empty, and on stores attached
// to one image (runOps). In the second run both worlds' stores, and one more
// store per world that no op ever touches, hang off the same image, so a store
// that wrote through a version it shares shows in its neighbour's comparison
// with the reference, or in the untouched sibling.

// checkSlab verifies the store's slab bookkeeping: the keys' chains and the
// free list partition the entries the store owns exactly — every entry is on
// one chain or on the free list, none on two — a freed entry holds nothing but
// its link, and the counters (nfree, live, linked) say what the walk finds. Of
// the image's versions a store shares, entry i can only close key i's chain,
// still reads as the image built it, and is never on the free list.
func checkSlab(s *Store) error {
	shared, n := int(s.shared), s.vers.Len()
	owner := make([]int, n+1) // by ref − shared: 0 unseen, k+1 on key k's chain, -1 free
	live, linked := 0, 0
	for k, top := range s.byID {
		if top != 0 {
			live++
		}
		for r := top; r != 0; r = s.at(r).prev {
			if int(r) <= shared {
				if int(r) != k+1 || k >= s.img.n {
					return fmt.Errorf("key %d: chain reaches image version %d", k, r)
				}
				if v := s.at(r); v.prev != 0 || v.uncommitted || v.writer != (txn.ID{}) || v.ts != (txn.Timestamp{}) || !same(v.val, s.img.val(k)) {
					return fmt.Errorf("image version %d was written: it holds %+v", r, *v)
				}
				linked++
				continue
			}
			own := int(r) - shared
			if own > n {
				return fmt.Errorf("key %d: chain reaches entry %d of %d", k, own, n)
			}
			if owner[own] != 0 {
				return fmt.Errorf("entry %d is on the chains of key %d and key %d", own, owner[own]-1, k)
			}
			owner[own] = k + 1
		}
	}
	free := 0
	for r := s.free; r != 0; r = s.at(r).prev {
		if int(r) <= shared {
			return fmt.Errorf("image version %d is on the free list", r)
		}
		own := int(r) - shared
		if own > n {
			return fmt.Errorf("free list reaches entry %d of %d", own, n)
		}
		if owner[own] > 0 {
			return fmt.Errorf("entry %d is free and on the chain of key %d", own, owner[own]-1)
		}
		if owner[own] < 0 {
			return fmt.Errorf("entry %d is on the free list twice", own)
		}
		owner[own] = -1
		free++
		if v := s.at(r); v.val != nil || v.uncommitted || v.writer != (txn.ID{}) || v.ts != (txn.Timestamp{}) {
			return fmt.Errorf("free entry %d still holds %+v", own, *v)
		}
	}
	for own := 1; own <= n; own++ {
		if owner[own] == 0 {
			return fmt.Errorf("entry %d of %d is on no chain and not free", own, n)
		}
	}
	if free != s.nfree {
		return fmt.Errorf("nfree = %d, the free list holds %d", s.nfree, free)
	}
	if live != s.live {
		return fmt.Errorf("live = %d, %d keys hold a version", s.live, live)
	}
	if linked != s.linked {
		return fmt.Errorf("linked = %d, %d image versions are on a chain", s.linked, linked)
	}
	return nil
}

// newChecked returns an empty store whose slab is checked when the test ends.
func newChecked(t testing.TB) *Store {
	s := New()
	t.Cleanup(func() {
		if err := checkSlab(s); err != nil {
			t.Errorf("checkSlab: %v", err)
		}
	})
	return s
}

// world is one store of each kind, given the same ops.
type world struct {
	s   *Store
	ref *refStore
	// names is every key name the stores were given, in order of first use.
	names []string
	// open holds the ids executed and neither committed nor revoked since,
	// closed the ones that were.
	open, closed []txn.ID
}

// opRun is the state of one run of a log.
type opRun struct {
	data  []byte
	pos   int
	w     [2]*world
	clock int64 // the newest timestamp handed out
	seq   uint64
	batch int
	// An attached run's worlds started on img; sib[i] is attached like world i's
	// store and never written.
	img *Image
	sib [2]*Store
}

// The image of an attached run: a few keys, each with its own value.
var imageKeys = []string{"img-0", "img-1", "img-2", "img-3", "img-4", "img-5", "img-6"}

func imageVal(i int) []byte { return txn.EncodeInt(int64(1000 + i)) }

func (r *opRun) byte() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// ts returns a timestamp: usually a little after the newest one, now and then
// well before it.
func (r *opRun) ts() txn.Timestamp {
	b := r.byte()
	at := r.clock + int64(b%4)
	if b >= 224 {
		at = r.clock - int64(b-223)*3
	} else {
		r.clock = at
	}
	r.seq++
	return txn.Timestamp{Time: time.Duration(at), Coord: 1, Seq: r.seq}
}

func (r *opRun) val() []byte { r.seq++; return txn.EncodeInt(int64(r.seq)) }

// name returns a key name: one the world has seen, or one of eight that are
// never bulk-seeded.
func (r *opRun) name(w *world) string {
	b := r.byte()
	if b < 192 && len(w.names) > 0 {
		return w.names[b%len(w.names)]
	}
	return fmt.Sprintf("fresh-%d", b%8)
}

// id returns the id of a key both stores know, interning the name if need be.
func (r *opRun) id(w *world) (string, txn.KeyID, error) {
	name := r.name(w)
	w.note(name)
	a, b := w.s.Intern(name), w.ref.Intern(name)
	if a != b {
		return "", 0, fmt.Errorf("Intern(%q) = %d, reference %d", name, a, b)
	}
	return name, a, nil
}

func (w *world) note(name string) {
	for _, n := range w.names {
		if n == name {
			return
		}
	}
	w.names = append(w.names, name)
}

// pick returns one of ids, or a fresh id when there is none.
func (r *opRun) pick(ids []txn.ID) txn.ID {
	b := r.byte()
	if len(ids) == 0 {
		r.seq++
		return txn.ID{Coord: 2, Seq: r.seq}
	}
	return ids[b%len(ids)]
}

func drop(ids []txn.ID, id txn.ID) []txn.ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// finish moves id, committed or revoked, from open to closed.
func (w *world) finish(id txn.ID) {
	if rest := drop(w.open, id); len(rest) != len(w.open) {
		w.open, w.closed = rest, append(w.closed, id)
	}
}

// piece builds one of the oracle's pieces from the log.
func (r *opRun) piece(w *world) (*txn.Piece, error) {
	kind := r.byte() % 8
	switch kind {
	case 0, 1: // read-modify-write of one to three keys, by id
		n := 1 + r.byte()%3
		names, ids := make([]string, n), make([]txn.KeyID, n)
		for i := range ids {
			var err error
			if names[i], ids[i], err = r.id(w); err != nil {
				return nil, err
			}
		}
		return &txn.Piece{ReadSet: names, WriteSet: names, ReadIDs: ids, WriteIDs: ids, Exec: txn.Func(func(kv txn.KV) []byte {
			var out []byte
			for _, id := range ids {
				out = txn.EncodeInt(txn.DecodeInt(kv.GetID(id)) + 1)
				kv.PutID(id, out)
			}
			return out
		})}, nil
	case 2: // blind write by id
		name, id, err := r.id(w)
		val := r.val()
		return &txn.Piece{WriteSet: []string{name}, WriteIDs: []txn.KeyID{id}, Exec: txn.Func(func(kv txn.KV) []byte {
			kv.PutID(id, val)
			return nil
		})}, err
	case 3: // read-modify-write by name, of names the store may not know
		a, b := r.name(w), r.name(w)
		w.note(a)
		w.note(b)
		return txn.IncrementPiece(a, b), nil
	case 4: // blind write by name
		name := r.name(w)
		w.note(name)
		return txn.WritePiece(name, r.val()), nil
	case 5: // one key written twice, by id and by name
		name, id, err := r.id(w)
		v1, v2 := r.val(), r.val()
		return &txn.Piece{WriteSet: []string{name}, WriteIDs: []txn.KeyID{id}, Exec: txn.Func(func(kv txn.KV) []byte {
			kv.PutID(id, v1)
			kv.Put(name, v2)
			return kv.GetID(id)
		})}, err
	case 6: // read only
		name := r.name(w)
		w.note(name)
		return txn.ReadPiece(name), nil
	default: // a read by id and a write of another key by name
		name, id, err := r.id(w)
		other := r.name(w)
		w.note(other)
		return &txn.Piece{ReadSet: []string{name}, ReadIDs: []txn.KeyID{id}, WriteSet: []string{other}, Exec: txn.Func(func(kv txn.KV) []byte {
			v := kv.GetID(id)
			kv.Put(other, v)
			return v
		})}, err
	}
}

// step decodes and applies one op to both stores of a world.
func (r *opRun) step() error {
	op := r.byte()
	w := r.w[op>>7]
	switch op & 0x7f % 16 {
	case 0: // SeedBulk / SeedBulkFunc of a batch of new keys
		n := 1 + r.byte()%6
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("b%d-%d", r.batch, i)
		}
		r.batch++
		w.names = append(w.names, keys...)
		if r.byte()%2 == 0 {
			v := r.val()
			w.s.SeedBulk(keys, v)
			w.ref.SeedBulk(keys, v)
		} else {
			vals := make([][]byte, n)
			for i := range vals {
				vals[i] = r.val()
			}
			w.s.SeedBulkFunc(keys, func(i int) []byte { return vals[i] })
			w.ref.SeedBulkFunc(keys, func(i int) []byte { return vals[i] })
		}
	case 1: // Seed
		name, v := r.name(w), r.val()
		w.note(name)
		w.s.Seed(name, v)
		w.ref.Seed(name, v)
	case 2: // Intern
		if _, _, err := r.id(w); err != nil {
			return err
		}
	case 3, 4, 5, 6, 7: // Execute
		p, err := r.piece(w)
		if err != nil {
			return err
		}
		// Mostly a new transaction; now and then one that already ran (a no-op
		// while it is open or committed, a re-execution once revoked).
		var id txn.ID
		switch b := r.byte(); {
		case b < 200:
			r.seq++
			id = txn.ID{Coord: 1, Seq: r.seq}
		case b < 228:
			id = r.pick(w.open)
		default:
			id = r.pick(w.closed)
		}
		ts := r.ts()
		was := w.ref.Executed(id)
		got, want := w.s.ExecuteID(id, ts, p), w.ref.ExecuteID(id, ts, p)
		if !same(got, want) {
			return fmt.Errorf("Execute(%v) = %v, reference %v", id, got, want)
		}
		if !was {
			w.open, w.closed = append(w.open, id), drop(w.closed, id)
		}
	case 8, 9, 10: // Commit, usually of an open transaction
		id := r.pick(w.open)
		if r.byte() >= 240 {
			id = r.pick(w.closed)
		}
		w.s.Commit(id)
		w.ref.Commit(id)
		w.finish(id)
	case 11, 12: // Revoke, usually of an open transaction
		id := r.pick(w.open)
		if r.byte() >= 240 {
			id = r.pick(w.closed)
		}
		w.s.Revoke(id)
		w.ref.Revoke(id)
		w.finish(id)
	case 13: // ApplyAt of a buffered write set, by id and by name
		n := 1 + r.byte()%3
		ws := make([]Write, n)
		for i := range ws {
			if r.byte()%2 == 0 {
				_, id, err := r.id(w)
				if err != nil {
					return err
				}
				ws[i] = Write{ID: id, Val: r.val()}
			} else {
				name := r.name(w)
				w.note(name)
				ws[i] = Write{ID: txn.NoKeyID, Name: name, Val: r.val()}
			}
		}
		ts := r.ts()
		w.s.ApplyAt(ts, ws)
		w.ref.ApplyAt(ts, ws)
	case 14: // PutCommitted
		name, ts, v := r.name(w), r.ts(), r.val()
		w.note(name)
		w.s.PutCommitted(name, ts, v)
		w.ref.PutCommitted(name, ts, v)
	default: // PruneTo a horizon around the clock
		h := time.Duration(r.clock + int64(r.byte()) - 192)
		if got, want := w.s.PruneTo(h), w.ref.PruneTo(h); got != want {
			return fmt.Errorf("PruneTo(%d) dropped %d versions, reference %d", h, got, want)
		}
	}
	return nil
}

// same reports whether two values are equal, an absent one only to an absent one.
func same(a, b []byte) bool { return bytes.Equal(a, b) && (a == nil) == (b == nil) }

// compare checks everything a world's two stores can be asked.
func (r *opRun) compare(w *world) error {
	if err := checkSlab(w.s); err != nil {
		return fmt.Errorf("checkSlab: %v", err)
	}
	if a, b := w.s.Interned(), w.ref.Interned(); a != b {
		return fmt.Errorf("Interned = %d, reference %d", a, b)
	}
	if a, b := w.s.Len(), w.ref.Len(); a != b {
		return fmt.Errorf("Len = %d, reference %d", a, b)
	}
	if a, b := w.s.Versions(), w.ref.Versions(); a != b {
		return fmt.Errorf("Versions = %d, reference %d", a, b)
	}
	for _, name := range append([]string{"never-seen"}, w.names...) {
		ia, oka := w.s.Lookup(name)
		ib, okb := w.ref.Lookup(name)
		if ia != ib || oka != okb {
			return fmt.Errorf("Lookup(%q) = %d %v, reference %d %v", name, ia, oka, ib, okb)
		}
		if a, b := w.s.Get(name), w.ref.Get(name); !same(a, b) {
			return fmt.Errorf("Get(%q) = %v, reference %v", name, a, b)
		}
	}
	times := [...]int64{-1, 0, r.clock / 3, r.clock / 2, r.clock - 5, r.clock - 1, r.clock, r.clock + 1000, math.MaxInt64}
	for id := txn.KeyID(0); int(id) < w.s.Interned(); id++ {
		if a, b := w.s.GetID(id), w.ref.GetID(id); !same(a, b) {
			return fmt.Errorf("GetID(%d) = %v, reference %v", id, a, b)
		}
		for _, at := range times {
			va, ta, oka := w.s.GetAtID(id, time.Duration(at))
			vb, tb, okb := w.ref.GetAtID(id, time.Duration(at))
			if !same(va, vb) || ta != tb || oka != okb {
				return fmt.Errorf("GetAtID(%d, %d) = %v %v %v, reference %v %v %v", id, at, va, ta, oka, vb, tb, okb)
			}
		}
	}
	for _, ids := range [][]txn.ID{w.open, w.closed} {
		for _, id := range ids {
			if a, b := w.s.Executed(id), w.ref.Executed(id); a != b {
				return fmt.Errorf("Executed(%v) = %v, reference %v", id, a, b)
			}
		}
	}
	return nil
}

// newRun reads a log's header: bit i is set when world i retains snapshots. An
// attached run starts every store on one image (the references are seeded with
// its keys and values).
func newRun(data []byte, attached bool) (*opRun, int) {
	r := &opRun{data: data}
	mode := r.byte()
	if attached {
		r.img = NewImage(imageKeys, imageVal)
	}
	for i := range r.w {
		w := &world{s: New(), ref: newRef()}
		r.w[i] = w
		if mode>>i&1 == 1 {
			w.s.EnableSnapshots()
			w.ref.EnableSnapshots()
		}
		if attached {
			w.s.Attach(r.img)
			w.ref.SeedBulkFunc(imageKeys, imageVal)
			w.names = append(w.names, imageKeys...)
			r.sib[i] = seededLike(w.s, r.img)
		}
	}
	return r, mode
}

// seededLike returns a store in s's mode: attached to img, or bulk-seeded with
// the image's keys and values when img is nil.
func seededLike(s *Store, img *Image) *Store {
	o := New()
	if s.retain {
		o.EnableSnapshots()
	}
	if img != nil {
		o.Attach(img)
	} else {
		o.SeedBulkFunc(imageKeys, imageVal)
	}
	return o
}

// checkSibling verifies that a store no op touched is still what a freshly
// seeded one is, whatever its neighbours on the image did.
func checkSibling(sib *Store) error {
	if err := checkSlab(sib); err != nil {
		return fmt.Errorf("checkSlab: %v", err)
	}
	fresh := seededLike(sib, nil)
	if !sib.Equal(fresh) || !fresh.Equal(sib) {
		return fmt.Errorf("it no longer equals a freshly seeded store")
	}
	if sib.Versions() != len(imageKeys) || sib.Interned() != len(imageKeys) {
		return fmt.Errorf("it holds %d versions of %d keys, want %d of each", sib.Versions(), sib.Interned(), len(imageKeys))
	}
	for i := range imageKeys {
		v, ts, ok := sib.GetAtID(txn.KeyID(i), 0)
		if !ok || ts != (txn.Timestamp{}) || !same(v, imageVal(i)) {
			return fmt.Errorf("GetAtID(%d, 0) = %v %v %v, want the seed value at timestamp zero", i, v, ts, ok)
		}
	}
	return nil
}

// runOps runs a log on stores that start empty and on stores attached to one
// image, and returns the first difference between a store and its reference,
// naming the op it followed.
func runOps(data []byte) error {
	if err := runOpsOn(data, false); err != nil {
		return err
	}
	if err := runOpsOn(data, true); err != nil {
		return fmt.Errorf("attached: %v", err)
	}
	return nil
}

func runOpsOn(data []byte, attached bool) error {
	r, mode := newRun(data, attached)
	for n := 0; r.pos < len(r.data); n++ {
		at := r.pos
		err := r.step()
		for i := 0; err == nil && i < len(r.w); i++ {
			err = r.compare(r.w[i])
		}
		if err == nil {
			a, b := r.w[0], r.w[1]
			if got, want := a.s.Equal(b.s), a.ref.Equal(b.ref); got != want {
				err = fmt.Errorf("Equal(world 0, world 1) = %v, reference %v", got, want)
			} else if got, want := b.s.Equal(a.s), b.ref.Equal(a.ref); got != want {
				err = fmt.Errorf("Equal(world 1, world 0) = %v, reference %v", got, want)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d (byte %d, opcode %#02x, mode %02b): %v", n, at, data[at], mode&3, err)
		}
	}
	for i, sib := range r.sib {
		if sib == nil {
			continue
		}
		if err := checkSibling(sib); err != nil {
			return fmt.Errorf("the untouched sibling of world %d (mode %02b): %v", i, mode&3, err)
		}
	}
	return nil
}

// oracleLogs returns the differential test's op logs: seeded random bytes, a
// quarter of them for each pair of modes, every log opening with a bulk seed
// of each world so that the ops after it have keys to meet on.
func oracleLogs() [][]byte {
	rng := rand.New(rand.NewSource(20))
	logs := make([][]byte, 48)
	for i := range logs {
		log := make([]byte, 300+rng.Intn(900))
		rng.Read(log)
		log[0] = byte(i)
		copy(log[1:], []byte{0x00, 5, 0, 0x80, 4, 1})
		logs[i] = log
	}
	return logs
}

// TestSlabStoreMatchesReference drives the slab store and the slice-per-key
// reference with the same seeded random op logs, in both modes, and compares
// them and checks the slab after every op.
func TestSlabStoreMatchesReference(t *testing.T) {
	for i, log := range oracleLogs() {
		if err := runOps(log); err != nil {
			t.Fatalf("log %d: %v", i, err)
		}
	}
}

// TestOracleLogsReachEveryPath guards the oracle itself: its logs must drive
// each store path the slab changed — versions released by Seed, Commit, Revoke,
// ApplyAt and PruneTo, and freed entries reused by a write — or a green run
// says nothing.
func TestOracleLogsReachEveryPath(t *testing.T) {
	paths := map[string]int{"Seed": 0, "Execute": 0, "Commit": 0, "Revoke": 0, "ApplyAt": 0, "PutCommitted": 0, "PruneTo": 0}
	opNames := [16]string{1: "Seed", 3: "Execute", 4: "Execute", 5: "Execute", 6: "Execute", 7: "Execute",
		8: "Commit", 9: "Commit", 10: "Commit", 11: "Revoke", 12: "Revoke", 13: "ApplyAt", 14: "PutCommitted", 15: "PruneTo"}
	for _, log := range oracleLogs() {
		r, _ := newRun(log, false)
		for r.pos < len(r.data) {
			op := r.data[r.pos]
			s := r.w[op>>7].s
			free := s.nfree
			if err := r.step(); err != nil {
				t.Fatal(err)
			}
			// Execute and PutCommitted count when they took an entry off the free
			// list; Seed, Commit, Revoke, ApplyAt and PruneTo when they released one.
			name := opNames[op&0x7f%16]
			if takes := name == "Execute" || name == "PutCommitted"; takes && s.nfree < free || !takes && s.nfree > free {
				paths[name]++
			}
		}
	}
	for name, n := range paths {
		if n < 50 {
			t.Errorf("%s released or reused a slab entry in %d ops of the logs: too few to call the path covered (%v)", name, n, paths)
		}
	}

	// The attached runs must reach what an image changes: an image version
	// leaving its chain by Seed, by PruneTo and (default mode) overwritten by
	// ApplyAt, a chain revoked back to its image version, and a name interned
	// after the image — written blind and revoked — absent again.
	atSeed := func(s *Store) (n int) {
		for i := range imageKeys {
			if top := s.byID[i]; top != 0 && s.at(top).writer == (txn.ID{}) && s.at(top).ts == (txn.Timestamp{}) && same(s.at(top).val, imageVal(i)) {
				n++
			}
		}
		return n
	}
	shared := map[string]int{"Seed": 0, "PruneTo": 0, "ApplyAt": 0, "Revoke to the seed": 0, "Revoke of a late name": 0}
	for _, log := range oracleLogs() {
		r, _ := newRun(log, true)
		for r.pos < len(r.data) {
			op := r.data[r.pos]
			s := r.w[op>>7].s
			linked, seeds, live := s.linked, atSeed(s), s.live
			if err := r.step(); err != nil {
				t.Fatal(err)
			}
			switch name := opNames[op&0x7f%16]; {
			case name == "Seed" && s.linked < linked, name == "PruneTo" && s.linked < linked,
				name == "ApplyAt" && !s.retain && atSeed(s) < seeds:
				shared[name]++
			case name == "Revoke" && atSeed(s) > seeds:
				shared["Revoke to the seed"]++
			case name == "Revoke" && s.live < live:
				shared["Revoke of a late name"]++
			}
		}
	}
	for name, n := range shared {
		if n < 10 {
			t.Errorf("%s: met an image version or a late name in %d ops of the attached runs: too few to call the path covered (%v)", name, n, shared)
		}
	}
}

// FuzzStoreOps is the oracle under the fuzzer: any byte string is an op log.
func FuzzStoreOps(f *testing.F) {
	for _, log := range oracleLogs() {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		if len(log) > 1<<12 {
			t.Skip()
		}
		if err := runOps(log); err != nil {
			t.Fatal(err)
		}
	})
}
