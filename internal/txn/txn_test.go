package txn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTimestampTotalOrder(t *testing.T) {
	a := Timestamp{Time: 1, Coord: 1, Seq: 1}
	b := Timestamp{Time: 1, Coord: 1, Seq: 2}
	c := Timestamp{Time: 1, Coord: 2, Seq: 1}
	d := Timestamp{Time: 2, Coord: 0, Seq: 0}
	for _, pair := range [][2]Timestamp{{a, b}, {a, c}, {b, c}, {c, d}} {
		if !pair[0].Less(pair[1]) || pair[1].Less(pair[0]) {
			t.Fatalf("order violated for %v < %v", pair[0], pair[1])
		}
	}
	if a.Less(a) {
		t.Fatal("irreflexivity")
	}
	if !a.Max(d).Equal(d) || !d.Max(a).Equal(d) {
		t.Fatal("Max")
	}
}

// Property: Less is a strict total order (trichotomy + transitivity on
// random triples).
func TestTimestampOrderProperty(t *testing.T) {
	gen := func(v uint32) Timestamp {
		return Timestamp{Time: time.Duration(v % 7), Coord: int32(v>>3) % 5, Seq: uint64(v>>6) % 5}
	}
	check := func(x, y, z uint32) bool {
		a, b, c := gen(x), gen(y), gen(z)
		// Trichotomy.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		if n != 1 {
			return false
		}
		// Transitivity.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConflicts(t *testing.T) {
	w := &Piece{WriteSet: []string{"a"}}
	r := &Piece{ReadSet: []string{"a"}}
	r2 := &Piece{ReadSet: []string{"b"}}
	w2 := &Piece{WriteSet: []string{"b"}}
	if !Conflicts(w, r) || !Conflicts(r, w) {
		t.Fatal("read-write conflict missed")
	}
	if !Conflicts(w, w) {
		t.Fatal("write-write conflict missed")
	}
	if Conflicts(r, r) {
		t.Fatal("read-read is not a conflict")
	}
	if Conflicts(w, r2) || Conflicts(w, w2) {
		t.Fatal("disjoint keys conflict")
	}
	if Conflicts(nil, w) {
		t.Fatal("nil piece conflicts")
	}
}

// mapConflictsWith is ConflictsWith as it was over map[int]*Piece: the
// reference the merge walk over the two sorted slices must agree with.
func mapConflictsWith(t, o *Txn) bool {
	byShard := make(map[int]*Piece)
	for i := range o.Pieces {
		byShard[o.Pieces[i].Shard()] = &o.Pieces[i]
	}
	for i := range t.Pieces {
		if q, ok := byShard[t.Pieces[i].Shard()]; ok && Conflicts(&t.Pieces[i], q) {
			return true
		}
	}
	return false
}

func TestTxnConflictsWith(t *testing.T) {
	w, r := func(k string) Piece { return Piece{WriteSet: []string{k}} }, func(k string) Piece { return Piece{ReadSet: []string{k}} }
	a := &Txn{Pieces: ByShard(w("x").On(0), w("y").On(1))}
	for _, c := range []struct {
		name string
		o    *Txn
		want bool
	}{
		{"shard-1 read of a written key", &Txn{Pieces: ByShard(r("y").On(1))}, true},
		{"same key, other shard", &Txn{Pieces: ByShard(w("x").On(2))}, false},
		{"common shard, disjoint keys", &Txn{Pieces: ByShard(w("z").On(0), r("z").On(1))}, false},
		{"conflict on the last of several common shards", &Txn{Pieces: ByShard(r("q").On(0), r("y").On(1), w("x").On(5))}, true},
		{"interleaved shards, none common", &Txn{Pieces: ByShard(w("x").On(2), w("y").On(3))}, false},
		{"no pieces", &Txn{}, false},
	} {
		if got := a.ConflictsWith(c.o); got != c.want || got != mapConflictsWith(a, c.o) {
			t.Errorf("%s: ConflictsWith = %v, want %v (map form %v)", c.name, got, c.want, mapConflictsWith(a, c.o))
		}
		if got := c.o.ConflictsWith(a); got != c.want {
			t.Errorf("%s, reversed: ConflictsWith = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestShardsSorted: ByShard is the only thing between the order a caller lists
// pieces in and the order every protocol sends in, so every permutation of the
// same pieces must build the identical transaction.
func TestShardsSorted(t *testing.T) {
	pieces := []Piece{
		IncrementPiece("a").On(5), Piece{ReadSet: []string{"b"}}.On(1),
		Tagged(OpRead, []string{"c"}, []KeyID{7}).On(3), WritePiece("d", nil).On(0),
	}
	shape := func(ps []Piece) (out []string) {
		for i := range ps {
			out = append(out, fmt.Sprint(ps[i].Shard(), ps[i].ReadSet, ps[i].WriteSet, ps[i].ReadIDs, ps[i].Op))
		}
		return out
	}
	want := []string{"0 [] [d] [] 0", "1 [b] [] [] 0", "3 [c] [] [7] 1", "5 [a] [a] [] 0"}
	var permute func(k int)
	permute = func(k int) {
		if k == len(pieces) {
			in := append([]Piece(nil), pieces...)
			got := ByShard(in...)
			if &got[0] != &in[0] {
				t.Fatal("ByShard copied the slice it was given")
			}
			if !reflect.DeepEqual(shape(got), want) {
				t.Fatalf("ByShard(%v) = %v, want %v", shape(pieces), shape(got), want)
			}
			return
		}
		for i := k; i < len(pieces); i++ {
			pieces[k], pieces[i] = pieces[i], pieces[k]
			permute(k + 1)
			pieces[k], pieces[i] = pieces[i], pieces[k]
		}
	}
	permute(0)
}

func TestDuplicateShardPanics(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "shard 4") {
			t.Fatalf("two pieces on shard 4: recovered %q, want a panic naming the shard", msg)
		}
	}()
	ByShard(IncrementPiece("a").On(4), IncrementPiece("b").On(2), ReadPiece("c").On(4))
}

// TestUntouchedShard: Piece, Pos and Ret answer for a shard the transaction
// does not touch, and PutRet keeps a result in shard order whatever order the
// shards report in.
func TestUntouchedShard(t *testing.T) {
	tx := &Txn{Pieces: ByShard(ReadPiece("b").On(6), ReadPiece("a").On(2))}
	if tx.Piece(2) != &tx.Pieces[0] || tx.Piece(6) != &tx.Pieces[1] || tx.Pos(6) != 1 {
		t.Fatalf("Piece/Pos do not find the pieces of %v", tx.Pieces)
	}
	for _, sh := range []int{0, 4, 7} {
		if tx.Piece(sh) != nil || tx.Pos(sh) != -1 {
			t.Errorf("shard %d: Piece = %v, Pos = %d, want nil and -1", sh, tx.Piece(sh), tx.Pos(sh))
		}
	}
	var rets []ShardRet
	rets = PutRet(rets, 6, []byte("six"))
	rets = PutRet(rets, 2, []byte("stale"))
	rets = PutRet(rets, 4, nil)
	rets = PutRet(rets, 2, []byte("two"))
	want := []ShardRet{{2, []byte("two")}, {4, nil}, {6, []byte("six")}}
	if !reflect.DeepEqual(rets, want) {
		t.Fatalf("PutRet built %v, want %v", rets, want)
	}
	r := &Result{PerShard: rets}
	if string(r.Ret(2)) != "two" || string(r.Ret(6)) != "six" || r.Ret(4) != nil || r.Ret(3) != nil || (&Result{}).Ret(0) != nil {
		t.Errorf("Ret over %v: 2=%q 6=%q 4=%v 3=%v", rets, r.Ret(2), r.Ret(6), r.Ret(4), r.Ret(3))
	}
}

func TestEncodeDecodeInt(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if DecodeInt(EncodeInt(v)) != v {
			t.Fatalf("roundtrip %d", v)
		}
	}
	if DecodeInt(nil) != 0 || DecodeInt([]byte{1, 2}) != 0 {
		t.Fatal("short decode should be 0")
	}
}

// The shared table's edges: the values either side of each bound encode as
// the allocating encoding does, a table value is exactly its eight bytes (an
// append copies it out), and only values outside the table allocate.
func TestSmallIntsAreShared(t *testing.T) {
	for _, c := range []struct {
		v      int64
		shared bool
	}{{-SmallInts - 1, false}, {-SmallInts, true}, {-1, true}, {0, true}, {SmallInts - 1, true}, {SmallInts, false}, {1 << 40, false}} {
		got := EncodeInt(c.v)
		if want := binary.LittleEndian.AppendUint64(nil, uint64(c.v)); !bytes.Equal(got, want) || len(got) != 8 || cap(got) != 8 {
			t.Errorf("EncodeInt(%d) = %v (len %d, cap %d), want %v with len = cap = 8", c.v, got, len(got), cap(got), want)
		}
		var sink []byte
		want := 1.0
		if c.shared {
			want = 0
		}
		if allocs := testing.AllocsPerRun(100, func() { sink = EncodeInt(c.v) }); allocs != want {
			t.Errorf("EncodeInt(%d) allocates %.0f objects, want %.0f", c.v, allocs, want)
		}
		_ = sink
	}
	v := EncodeInt(5)
	grown := append(v, 0xff)
	grown[0] = 0xee
	if DecodeInt(EncodeInt(5)) != 5 || DecodeInt(EncodeInt(6)) != 6 || &grown[0] == &v[0] {
		t.Fatalf("an append onto a shared value wrote into the table: 5 -> %d, 6 -> %d",
			DecodeInt(EncodeInt(5)), DecodeInt(EncodeInt(6)))
	}
}

// TestIntMatchesEncodeInt: Int encodes every value as EncodeInt does, byte for
// byte and len = cap = 8, taking the store's bytes only outside the shared
// table: at the table's edges and at the ends of int64.
func TestIntMatchesEncodeInt(t *testing.T) {
	for _, v := range []int64{math.MinInt64, -SmallInts - 1, -SmallInts, -1, 0, SmallInts - 1, SmallInts, math.MaxInt64} {
		kv := &bytesKV{}
		got, want := Int(kv, v), EncodeInt(v)
		if !bytes.Equal(got, want) || len(got) != 8 || cap(got) != 8 {
			t.Errorf("Int(%d) = %v (len %d, cap %d), EncodeInt %v", v, got, len(got), cap(got), want)
		}
		if shared := -SmallInts <= v && v < SmallInts; kv.carved != !shared || (shared && &got[0] != &want[0]) {
			t.Errorf("Int(%d): took the store's bytes %v, shares the table's %v", v, kv.carved, &got[0] == &want[0])
		}
	}
}

// bytesKV records whether a piece took its bytes.
type bytesKV struct {
	fakeKV
	carved bool
}

func (k *bytesKV) Bytes(n int) []byte {
	k.carved = true
	return make([]byte, 0, n)
}

// fakeKV has no interner: an id is just another name.
type fakeKV map[string][]byte

func (m fakeKV) Get(k string) []byte      { return m[k] }
func (m fakeKV) Put(k string, v []byte)   { m[k] = v }
func (m fakeKV) GetID(id KeyID) []byte    { return m[fmt.Sprint("#", id)] }
func (m fakeKV) PutID(id KeyID, v []byte) { m[fmt.Sprint("#", id)] = v }
func (m fakeKV) Bytes(n int) []byte       { return make([]byte, 0, n) }

func TestIncrementPiece(t *testing.T) {
	kv := fakeKV{}
	p := IncrementPiece("a", "b")
	if len(p.ReadSet) != 2 || len(p.WriteSet) != 2 {
		t.Fatal("sets")
	}
	ret := p.Run(kv)
	if DecodeInt(kv["a"]) != 1 || DecodeInt(kv["b"]) != 1 || DecodeInt(ret) != 1 {
		t.Fatal("increment semantics")
	}
	p.Run(kv)
	if DecodeInt(kv["a"]) != 2 {
		t.Fatal("second increment")
	}
}

func TestReadWritePieces(t *testing.T) {
	kv := fakeKV{"x": EncodeInt(9)}
	if DecodeInt(ReadPiece("x").Run(kv)) != 9 {
		t.Fatal("ReadPiece")
	}
	WritePiece("y", EncodeInt(3)).Run(kv)
	if DecodeInt(kv["y"]) != 3 {
		t.Fatal("WritePiece")
	}
	// The numbered forms declare the name and execute by the id alone: a tagged
	// op, no closure.
	kv.PutID(4, EncodeInt(6))
	inc := IncrementPieceID("x", 4)
	if DecodeInt(inc.Run(kv)) != 7 || DecodeInt(kv.GetID(4)) != 7 || DecodeInt(kv["x"]) != 9 {
		t.Fatal("IncrementPieceID")
	}
	rd := ReadPieceID("x", 4)
	if DecodeInt(rd.Run(kv)) != 7 || inc.WriteSet[0] != "x" || inc.WriteIDs[0] != 4 {
		t.Fatal("ReadPieceID")
	}
	if inc.Op != OpIncrement || rd.Op != OpRead || inc.Exec != nil || rd.Exec != nil {
		t.Errorf("numbered pieces carry ops %d/%d and closures %v/%v, want tagged ops and no closure",
			inc.Op, rd.Op, inc.Exec != nil, rd.Exec != nil)
	}
	if len(rd.ReadSet) != 1 || len(rd.ReadIDs) != 1 || rd.WriteSet != nil || rd.WriteIDs != nil ||
		!reflect.DeepEqual([][]string{inc.ReadSet, inc.WriteSet}, [][]string{{"x"}, {"x"}}) ||
		!reflect.DeepEqual([][]KeyID{inc.ReadIDs, inc.WriteIDs}, [][]KeyID{{4}, {4}}) {
		t.Errorf("declared sets: read %+v, increment %+v", rd, inc)
	}
	// A set that grew would write over its neighbour in the shared allocation.
	if cap(rd.ReadSet) != 1 || cap(rd.ReadIDs) != 1 || cap(inc.WriteSet) != 1 || cap(inc.WriteIDs) != 1 {
		t.Error("an inline set has spare capacity")
	}
}

// TestNumberedPiecesAreOneAllocation pins what the tagged ops are for: the
// piece, its one-key sets and its operation are one heap object, where the
// closure forms were four.
func TestNumberedPiecesAreOneAllocation(t *testing.T) {
	var sink *Piece
	if n := testing.AllocsPerRun(100, func() { sink = ReadPieceID("x", 4) }); n != 1 {
		t.Errorf("ReadPieceID allocates %.0f objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = IncrementPieceID("x", 4) }); n != 1 {
		t.Errorf("IncrementPieceID allocates %.0f objects, want 1", n)
	}
	_ = sink
}

// TestPieceStaysInItsSizeClass: a Piece is 109 bytes of fields — its shard
// sits in the padding beside Op — and lives in Go's 112-byte size class, three
// to a generated job; one more word moves every piece of every transaction into
// the 128-byte class. A Txn is 72 bytes and shares the job's allocation: past
// 80 the three-piece arena leaves its 480-byte class.
func TestPieceStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Piece{}); n > 112 {
		t.Errorf("txn.Piece is %d bytes, want <= 112", n)
	}
	if n := unsafe.Sizeof(Txn{}); n > 80 {
		t.Errorf("txn.Txn is %d bytes, want <= 80", n)
	}
}
