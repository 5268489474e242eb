package store

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"tiga/internal/txn"
)

// ID resolves a declared key to this store's id: the id it came with, else
// the id its name is interned under, so a name and an id of one key resolve
// alike. It never writes into the piece's own slices.
func TestIDs(t *testing.T) {
	s, keys := seedN(t, 6)
	names := []string{keys[4], keys[1]}
	for name, ids := range map[string][]txn.KeyID{
		"numbered": {4, 1}, "no ids": nil, "short ids": {4}, "a gap": {4, txn.NoKeyID}, "all gaps": {txn.NoKeyID, txn.NoKeyID},
	} {
		in := slices.Clone(ids)
		for i, want := range []txn.KeyID{4, 1} {
			if got := s.ID(names, ids, i); got != want {
				t.Errorf("%s: ID of key %d = %d, want %d", name, i, got, want)
			}
		}
		if !slices.Equal(ids, in) {
			t.Errorf("%s: ID wrote into the piece's own slice: %v", name, ids)
		}
	}
	// A name the store never saw gets the next id, once, and stores nothing.
	a := s.ID([]string{"row"}, []txn.KeyID{txn.NoKeyID}, 0)
	b := s.ID([]string{keys[0], "row"}, nil, 1)
	if a != 6 || b != 6 || s.Interned() != 7 || s.Len() != 6 || s.Get("row") != nil {
		t.Fatalf("inserted row resolved to %d then %d; %d interned, %d present", a, b, s.Interned(), s.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ID(names, []txn.KeyID{4, txn.NoKeyID}, 1) }); allocs != 0 {
		t.Fatalf("resolving a known name allocates %.0f objects", allocs)
	}
}

// A buffered piece reads its own writes whichever form either side uses, keeps
// one write per key with the last value, and remembers a name once given.
func TestBufferedViewReadsItsOwnWritesInEitherForm(t *testing.T) {
	s, keys := seedN(t, 4)
	var seen []int64
	look := func(b []byte) { seen = append(seen, txn.DecodeInt(b)) }
	p := &txn.Piece{Exec: txn.Func(func(kv txn.KV) []byte {
		kv.Put(keys[2], txn.EncodeInt(7))
		look(kv.GetID(2)) // 7: written by name, read by id
		kv.PutID(1, txn.EncodeInt(8))
		look(kv.Get(keys[1])) // 8: written by id, read by name
		kv.Put("row", txn.EncodeInt(9))
		look(kv.Get("row"))     // 9: an inserted row
		look(kv.Get("missing")) // 0: never written, not in the store
		look(kv.GetID(3))       // 0: the store's own value
		kv.PutID(2, txn.EncodeInt(10))
		look(kv.Get(keys[2])) // 10: the second write of key 2 replaced the first
		return nil
	})}
	_, ws := s.ExecuteBuffered(nil, p)
	if want := []int64{7, 8, 9, 0, 0, 10}; len(seen) != len(want) {
		t.Fatalf("saw %v", seen)
	} else {
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("saw %v, want %v", seen, want)
			}
		}
	}
	row, _ := s.Lookup("row")
	want := []Write{{2, keys[2], txn.EncodeInt(10)}, {1, "", txn.EncodeInt(8)}, {row, "row", txn.EncodeInt(9)}}
	if len(ws) != len(want) {
		t.Fatalf("write set %v", ws)
	}
	for i, w := range ws {
		if w.ID != want[i].ID || w.Name != want[i].Name || string(w.Val) != string(want[i].Val) {
			t.Errorf("write %d = {%d %q %d}, want {%d %q %d}", i, w.ID, w.Name, txn.DecodeInt(w.Val),
				want[i].ID, want[i].Name, txn.DecodeInt(want[i].Val))
		}
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("reading an unknown name interned it")
	}
}

// A buffered execution stores nothing, in either mode: the protocols that use
// it discard most write sets (every Tapir prepare, every aborted vote).
func TestBufferedExecutionLeavesTheStoreUntouched(t *testing.T) {
	for _, retain := range []bool{false, true} {
		s, keys := seedN(t, 3)
		if retain {
			s.EnableSnapshots()
		}
		s.ExecuteID(id(1), ts(10), txn.IncrementPieceID(keys[0], 0)) // one pending version
		n, vs := s.Len(), s.Versions()
		ret, ws := s.ExecuteBuffered(nil, &txn.Piece{WriteSet: []string{keys[0], keys[1], "row"}, Exec: txn.Func(func(kv txn.KV) []byte {
			kv.PutID(0, txn.EncodeInt(50))
			kv.Put(keys[1], txn.EncodeInt(51))
			kv.Put("row", txn.EncodeInt(52))
			return kv.GetID(0)
		})})
		if txn.DecodeInt(ret) != 50 || len(ws) != 3 {
			t.Fatalf("retain=%v: ret %d, %d writes", retain, txn.DecodeInt(ret), len(ws))
		}
		if s.Len() != n || s.Versions() != vs || s.Executed(id(2)) {
			t.Errorf("retain=%v: %d keys, %d versions after, %d and %d before", retain, s.Len(), s.Versions(), n, vs)
		}
		if txn.DecodeInt(s.GetID(0)) != 1 || txn.DecodeInt(s.Get(keys[1])) != 0 || s.Get("row") != nil {
			t.Errorf("retain=%v: a buffered write reached the store", retain)
		}
		if _, _, ok := getAt(s, "row", 100); ok {
			t.Errorf("retain=%v: the inserted row is visible to snapshot reads", retain)
		}
		s.Commit(id(1))
		if txn.DecodeInt(s.GetID(0)) != 1 {
			t.Errorf("retain=%v: the pending transaction lost its write", retain)
		}
	}
}

// Apply installs a write set on the store that produced it and on a second
// copy of the shard that numbered its inserted rows in another order: writes
// made by name find their key by name, the rest by id.
func TestApplyOntoAStoreWithAnotherInternOrder(t *testing.T) {
	a, keys := seedN(t, 3)
	b, _ := seedN(t, 3)
	a.Intern("row1") // 3 on a
	b.Intern("row2") // 3 on b
	b.Intern("other")
	p := &txn.Piece{Exec: txn.Func(func(kv txn.KV) []byte {
		kv.PutID(1, txn.EncodeInt(11))
		kv.Put("row1", txn.EncodeInt(21))
		kv.Put("row2", txn.EncodeInt(22))
		kv.Put(keys[2], txn.EncodeInt(12))
		return nil
	})}
	_, ws := a.ExecuteBuffered(nil, p)
	vs := a.Versions()
	a.Apply(ws)
	b.Apply(ws)
	ra, _ := a.Lookup("row1")
	if rb, _ := b.Lookup("row1"); ws[1].ID != ra || ws[1].Name != "row1" || ra == rb {
		t.Fatalf("row1 is %d on the executing store and %d on the other; its write is %+v", ra, rb, ws[1])
	}
	for _, s := range []*Store{a, b} {
		got := []int64{txn.DecodeInt(s.Get(keys[0])), txn.DecodeInt(s.GetID(1)), txn.DecodeInt(s.Get(keys[2])),
			txn.DecodeInt(s.Get("row1")), txn.DecodeInt(s.Get("row2"))}
		if want := [5]int64{0, 11, 12, 21, 22}; [5]int64(got) != want || s.Len() != 5 {
			t.Fatalf("store holds %v in %d keys, want %v in 5", got, s.Len(), want)
		}
	}
	if !a.Equal(b) || !b.Equal(a) || b.Get("other") != nil {
		t.Fatal("the two copies differ after applying one write set")
	}
	// Default mode overwrites in place: only the two new rows added versions.
	if a.Versions() != vs+2 {
		t.Fatalf("%d versions after Apply, %d before", a.Versions(), vs)
	}
	a.Apply(ws)
	if a.Versions() != vs+2 || a.Len() != 5 {
		t.Fatalf("a second Apply grew the store to %d versions", a.Versions())
	}
}

// ApplyAt in retain mode appends committed versions at the given timestamp:
// snapshot reads see them from there on, the high-water advances, and history
// below stays readable — on a copy that interns the row itself.
func TestApplyAtKeepsHistoryInRetainMode(t *testing.T) {
	a, keys := seedN(t, 2)
	b, _ := seedN(t, 2)
	b.Intern("other")
	a.EnableSnapshots()
	b.EnableSnapshots()
	for i, at := range []int64{10, 20} {
		_, ws := a.ExecuteBuffered(nil, &txn.Piece{Exec: txn.Func(func(kv txn.KV) []byte {
			kv.PutID(1, txn.EncodeInt(txn.DecodeInt(kv.GetID(1))+1))
			kv.Put("row", txn.EncodeInt(int64(100+i)))
			return nil
		})})
		a.ApplyAt(ts(at), ws)
		b.ApplyAt(ts(at), ws)
	}
	for _, s := range []*Store{a, b} {
		for _, c := range []struct{ at, k1, row int64 }{{5, 0, -1}, {10, 1, 100}, {15, 1, 100}, {20, 2, 101}} {
			v, _, _ := s.GetAtID(1, ts(c.at).Time)
			rv, rts, rok := getAt(s, "row", ts(c.at).Time)
			if txn.DecodeInt(v) != c.k1 || rok != (c.row >= 0) || (rok && (txn.DecodeInt(rv) != c.row || rts.Time > ts(c.at).Time)) {
				t.Errorf("at %d: key 1 = %d, row = %d (%v) @%v; want %d and %d", c.at, txn.DecodeInt(v), txn.DecodeInt(rv), rok, rts.Time, c.k1, c.row)
			}
		}
		if newestAt(s, keys[1]) != 20 || newestAt(s, "row") != 20 || s.Versions() != 2+2+2 {
			t.Errorf("newest versions at %v / %v, %d versions", newestAt(s, keys[1]), newestAt(s, "row"), s.Versions())
		}
		if n := s.PruneTo(20); n != 3 {
			t.Errorf("PruneTo(20) dropped %d versions, want 3", n)
		}
	}
}

// TestTaggedOpsMatchTheClosureForms: the read and the increment a generator
// emits as tagged ops (txn.ReadPieceID, txn.IncrementPieceID, and a multi-key
// OpIncrement) return the same bytes and leave the same state as the closure
// forms they replaced (txn.ReadPiece, txn.IncrementPiece), through both views.
func TestTaggedOpsMatchTheClosureForms(t *testing.T) {
	tagged, keys := seedN(t, 6)
	closure, _ := seedN(t, 6)
	multi := []txn.KeyID{5, 2, 5} // a key twice: the second increment reads the first's write
	names := []string{keys[5], keys[2], keys[5]}
	multiKey := txn.Tagged(txn.OpIncrement, names, multi)
	steps := []struct {
		name            string
		tagged, closure *txn.Piece
	}{
		{"increment", txn.IncrementPieceID(keys[3], 3), txn.IncrementPiece(keys[3])},
		{"increment again", txn.IncrementPieceID(keys[3], 3), txn.IncrementPiece(keys[3])},
		{"read it back", txn.ReadPieceID(keys[3], 3), txn.ReadPiece(keys[3])},
		{"read a seed value", txn.ReadPieceID(keys[0], 0), txn.ReadPiece(keys[0])},
		{"multi-key increment", &multiKey, txn.IncrementPiece(names...)},
	}
	for i, st := range steps {
		// Buffered first, on the state the optimistic execution is about to
		// change: results and write sets must agree, and neither store moves.
		bt, wt := tagged.ExecuteBuffered(nil, st.tagged)
		bc, wc := closure.ExecuteBuffered(nil, st.closure)
		if !bytes.Equal(bt, bc) || len(wt) != len(wc) {
			t.Fatalf("%s, buffered: tagged returned %v with %d writes, closure %v with %d", st.name, bt, len(wt), bc, len(wc))
		}
		for j := range wt {
			if wt[j].ID != wc[j].ID || !bytes.Equal(wt[j].Val, wc[j].Val) {
				t.Fatalf("%s, buffered write %d: tagged %+v, closure %+v", st.name, j, wt[j], wc[j])
			}
		}
		id := txn.ID{Coord: 1, Seq: uint64(i + 1)}
		ts := txn.Timestamp{Time: time.Duration(i + 1), Coord: 1, Seq: uint64(i + 1)}
		rt, rc := tagged.ExecuteID(id, ts, st.tagged), closure.ExecuteID(id, ts, st.closure)
		if !bytes.Equal(rt, rc) || !bytes.Equal(rt, bt) {
			t.Fatalf("%s: tagged returned %v, closure %v, buffered %v", st.name, rt, rc, bt)
		}
		tagged.Commit(id)
		closure.Commit(id)
		if !tagged.Equal(closure) {
			t.Fatalf("%s: the stores differ after the commit", st.name)
		}
	}
	if got := txn.DecodeInt(tagged.Get(keys[3])); got != 2 {
		t.Fatalf("key 3 = %d after two increments", got)
	}
	if got := txn.DecodeInt(tagged.Get(keys[5])); got != 2 {
		t.Fatalf("key 5 = %d after one piece incremented it twice", got)
	}
}

// ExecuteBuffered appends to the dst it is given: a warm dst taken back to
// length 0 gives the result and write list a nil one does, and a non-empty
// dst keeps its entries in front, unread by the piece — for tagged and
// closure pieces, a piece reading its own write, and a key written by name
// and by id.
func TestBufferedIntoAWarmDstMatchesAFreshOne(t *testing.T) {
	s, keys := seedN(t, 6)
	multi := txn.Tagged(txn.OpIncrement, []string{keys[5], keys[2], keys[5]}, []txn.KeyID{5, 2, 5})
	pieces := []struct {
		name string
		p    *txn.Piece
	}{
		{"tagged increment", txn.IncrementPieceID(keys[3], 3)},
		{"closure increment", txn.IncrementPiece(keys[3])},
		{"tagged, reads its own write", &multi},
		{"closure, reads its own write", txn.IncrementPiece(keys[4], keys[4])},
		{"a key by name and by id, an inserted row", &txn.Piece{Exec: txn.Func(func(kv txn.KV) []byte {
			kv.Put(keys[1], txn.EncodeInt(7))
			kv.PutID(1, txn.EncodeInt(txn.DecodeInt(kv.Get(keys[1]))+1))
			kv.Put("row", kv.GetID(1))
			return kv.Get("row")
		})}},
	}
	// A warm buffer with stale entries for the same keys, longer than any
	// write set below, and a prefix of entries for keys the pieces read.
	warm := []Write{{1, keys[1], txn.EncodeInt(90)}, {2, "", txn.EncodeInt(91)}, {3, "", txn.EncodeInt(92)},
		{4, "", txn.EncodeInt(93)}, {5, "", txn.EncodeInt(94)}}
	prefix := []Write{{1, keys[1], txn.EncodeInt(80)}, {3, "", txn.EncodeInt(82)}, {5, "", txn.EncodeInt(84)}}
	same := func(a, b []Write) bool {
		return slices.EqualFunc(a, b, func(x, y Write) bool { return x.ID == y.ID && x.Name == y.Name && bytes.Equal(x.Val, y.Val) })
	}
	for _, c := range pieces {
		ret, ws := s.ExecuteBuffered(nil, c.p)
		wret, wws := s.ExecuteBuffered(warm[:0], c.p)
		if !bytes.Equal(wret, ret) || !same(wws, ws) {
			t.Errorf("%s: a warm dst returned %v %+v, a nil one %v %+v", c.name, wret, wws, ret, ws)
		}
		if len(ws) > 0 && &wws[0] != &warm[0] {
			t.Errorf("%s: the write set did not go into the warm dst", c.name)
		}
		pret, pws := s.ExecuteBuffered(prefix, c.p)
		if !bytes.Equal(pret, ret) || !same(pws[:len(prefix)], prefix) || !same(pws[len(prefix):], ws) {
			t.Errorf("%s: after a prefix %+v, returned %v %+v; alone %v %+v", c.name, prefix, pret, pws, ret, ws)
		}
	}
}

// An increment buffered into a warm dst allocates nothing: Tapir runs one on
// every replica at prepare and again at the decision.
func TestBufferedIncrementIntoAWarmDstAllocatesNothing(t *testing.T) {
	s, keys := seedN(t, 2)
	p := txn.IncrementPieceID(keys[1], 1)
	_, ws := s.ExecuteBuffered(nil, p)
	if allocs := testing.AllocsPerRun(1000, func() { _, ws = s.ExecuteBuffered(ws[:0], p) }); allocs != 0 {
		t.Fatalf("%v allocations per buffered increment into a warm dst, want 0", allocs)
	}
	if len(ws) != 1 || txn.DecodeInt(ws[0].Val) != 1 {
		t.Fatalf("write set %+v", ws)
	}
}
