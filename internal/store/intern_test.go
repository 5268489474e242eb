package store

import (
	"fmt"
	"testing"

	"tiga/internal/txn"
)

func seedN(t testing.TB, n int) (*Store, []string) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k0-%d", i)
	}
	s := newChecked(t)
	s.SeedBulk(keys, txn.EncodeInt(0))
	return s, keys
}

// TestInternedPathsMatchStringPaths: every ID accessor must observe exactly
// the state the string accessors do — the two are indexes over one slot.
func TestInternedPathsMatchStringPaths(t *testing.T) {
	s, keys := seedN(t, 10)
	if s.Interned() != 10 {
		t.Fatalf("Interned() = %d, want 10", s.Interned())
	}
	// Write through the ID path, read through both.
	p := &txn.Piece{
		ReadSet: keys[3:4], WriteSet: keys[3:4],
		ReadIDs: []txn.KeyID{3}, WriteIDs: []txn.KeyID{3},
		Exec: func(kv txn.KV) []byte {
			v := txn.EncodeInt(txn.DecodeInt(kv.GetID(3)) + 1)
			kv.PutID(3, v)
			return v
		},
	}
	s.ExecuteID(id(1), ts(5), p)
	if txn.DecodeInt(s.Get(keys[3])) != 1 || txn.DecodeInt(s.GetID(3)) != 1 {
		t.Fatal("ID write invisible through one of the two indexes")
	}
	s.Commit(id(1))
	if txn.DecodeInt(s.Get(keys[3])) != 1 {
		t.Fatal("commit lost the ID write")
	}
	// Write through the string path, read through the ID path.
	s.ExecuteID(id(2), ts(6), txn.IncrementPiece(keys[7]))
	if txn.DecodeInt(s.GetID(7)) != 1 {
		t.Fatal("string write invisible through GetID")
	}
	s.Revoke(id(2))
	if txn.DecodeInt(s.GetID(7)) != 0 {
		t.Fatal("revoke invisible through GetID")
	}
}

// TestInternedRevokeAndRetain drives the ID write path through retain mode:
// high-water and GetAtID must behave exactly like their string twins.
func TestInternedRevokeAndRetain(t *testing.T) {
	s, keys := seedN(t, 4)
	s.EnableSnapshots()
	inc := func(kid txn.KeyID) *txn.Piece {
		return &txn.Piece{
			ReadSet: keys[kid : kid+1], WriteSet: keys[kid : kid+1],
			ReadIDs: []txn.KeyID{kid}, WriteIDs: []txn.KeyID{kid},
			Exec: func(kv txn.KV) []byte {
				v := txn.EncodeInt(txn.DecodeInt(kv.GetID(kid)) + 1)
				kv.PutID(kid, v)
				return v
			},
		}
	}
	for i := uint64(1); i <= 3; i++ {
		s.ExecuteID(id(i), ts(int64(i*10)), inc(2))
		s.Commit(id(i))
	}
	if at := newestAt(s, keys[2]); at != 30 {
		t.Fatalf("newest committed version via ID commits at %v, want 30", at)
	}
	if val, seen, ok := s.GetAtID(2, 15); !ok || txn.DecodeInt(val) != 1 || seen.Time != 10 {
		t.Fatalf("GetAtID(2, 15) = %d @%v ok=%v, want 1 @10", txn.DecodeInt(val), seen.Time, ok)
	}
	// A revoked ID write disappears from both views.
	s.ExecuteID(id(9), ts(40), inc(2))
	s.Revoke(id(9))
	if txn.DecodeInt(s.GetID(2)) != 3 || txn.DecodeInt(s.Get(keys[2])) != 3 {
		t.Fatal("revoked ID write leaked")
	}
	// Pivot is the ts30 version; the seed and the ts10/ts20 versions drop.
	if n := s.PruneTo(30); n != 3 {
		t.Fatalf("PruneTo dropped %d versions, want 3", n)
	}
	if txn.DecodeInt(s.GetID(2)) != 3 {
		t.Fatal("prune damaged newest version")
	}
}
