package txn

import (
	"fmt"
	"math/rand"
	"reflect"
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

func TestTxnConflictsWith(t *testing.T) {
	a := &Txn{Pieces: map[int]*Piece{0: {WriteSet: []string{"x"}}, 1: {WriteSet: []string{"y"}}}}
	b := &Txn{Pieces: map[int]*Piece{1: {ReadSet: []string{"y"}}}}
	c := &Txn{Pieces: map[int]*Piece{2: {WriteSet: []string{"x"}}}} // same key, other shard
	if !a.ConflictsWith(b) {
		t.Fatal("shard-1 conflict missed")
	}
	if a.ConflictsWith(c) {
		t.Fatal("conflicts must be per shard")
	}
}

func TestShardsSorted(t *testing.T) {
	tx := &Txn{Pieces: map[int]*Piece{5: {}, 1: {}, 3: {}}}
	got := tx.Shards()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Shards() = %v", got)
		}
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

// fakeKV has no interner: an id is just another name.
type fakeKV map[string][]byte

func (m fakeKV) Get(k string) []byte      { return m[k] }
func (m fakeKV) Put(k string, v []byte)   { m[k] = v }
func (m fakeKV) GetID(id KeyID) []byte    { return m[fmt.Sprint("#", id)] }
func (m fakeKV) PutID(id KeyID, v []byte) { m[fmt.Sprint("#", id)] = v }

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

// TestPieceStaysInItsSizeClass: a Piece is 105 bytes of fields and lives in
// Go's 112-byte size class, three to a generated job; one more word moves
// every piece of every transaction into the 128-byte class.
func TestPieceStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Piece{}); n > 112 {
		t.Errorf("txn.Piece is %d bytes, want <= 112", n)
	}
}
