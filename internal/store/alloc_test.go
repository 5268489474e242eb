package store

import (
	"fmt"
	"testing"

	"tiga/internal/txn"
)

// The allocation pins: once versions come from the slab, writing a key costs
// the store nothing — the version goes into an entry another key's Commit,
// Revoke or PruneTo gave back, or into what is left of the last chunk — where
// the slice-per-key layout reallocated a key's slice the first time the key
// was rewritten. Every run below therefore writes keys never rewritten before.
// (testing.AllocsPerRun takes the floor of the mean, which absorbs the handful
// of times the executed map doubles; a rewrite that allocated would show as 1.)

// blindWrites returns a store seeded with n keys and, per key, an id piece
// that writes it a preallocated value.
func blindWrites(t *testing.T, n int) (*Store, []*txn.Piece) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	s := newChecked(t)
	s.SeedBulk(keys, txn.EncodeInt(0))
	val := txn.EncodeInt(1)
	pieces := make([]*txn.Piece, n)
	for i := range pieces {
		kid := txn.KeyID(i)
		pieces[i] = &txn.Piece{WriteSet: keys[i : i+1], WriteIDs: []txn.KeyID{kid}, Exec: txn.Func(func(kv txn.KV) []byte {
			kv.PutID(kid, val)
			return nil
		})}
	}
	return s, pieces
}

func TestExecuteCommitAndRevokeAllocateNothing(t *testing.T) {
	const runs = 2000
	for _, end := range []struct {
		name string
		do   func(*Store, txn.ID)
	}{{"Commit", (*Store).Commit}, {"Revoke", (*Store).Revoke}} {
		s, pieces := blindWrites(t, runs+2)
		chunks, i := s.vers.Chunks(), 0
		allocs := testing.AllocsPerRun(runs, func() {
			tid := id(uint64(i + 1))
			s.ExecuteID(tid, ts(int64(i+1)), pieces[i])
			end.do(s, tid)
			i++
		})
		if allocs != 0 {
			t.Errorf("Execute+%s of a write to a never-rewritten key: %v allocations per run, want 0", end.name, allocs)
		}
		if s.vers.Chunks() != chunks || s.Versions() != len(pieces) {
			t.Errorf("Execute+%s: the slab grew from %d to %d chunks over %d writes, holding %d versions of %d keys",
				end.name, chunks, s.vers.Chunks(), i, s.Versions(), len(pieces))
		}
	}
}

// TestRetainWritePruneCycleAllocatesNothing: in snapshot-retaining mode the
// versions PruneTo drops are the ones the next writes take.
func TestRetainWritePruneCycleAllocatesNothing(t *testing.T) {
	const runs, warm = 2000, 64
	s, _ := blindWrites(t, warm+runs+2)
	s.EnableSnapshots()
	val := txn.EncodeInt(2)
	i := 0
	cycle := func() {
		at := ts(int64(i + 1))
		s.ApplyAt(at, []Write{{ID: txn.KeyID(i), Val: val}})
		if i%8 == 7 { // a GC tick every eight writes
			s.PruneTo(at.Time)
		}
		i++
	}
	for i < warm {
		cycle()
	}
	chunks := s.vers.Chunks()
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a retain-mode write/PruneTo cycle over never-rewritten keys: %v allocations per run, want 0", allocs)
	}
	if s.vers.Chunks() != chunks {
		t.Errorf("the slab grew from %d to %d chunks after the warm-up", chunks, s.vers.Chunks())
	}
}

// TestKeptBytesNeverChange: the values and results pieces build in a store's
// bytes are never handed out again. A piece that writes an integer above
// txn.SmallInts and returns a 16-byte result runs 10 000 times, each time
// through ExecuteID and through ExecuteBuffered; every result and every value
// read back after an execution still decodes, at the end, to what it was.
func TestKeptBytesNeverChange(t *testing.T) {
	s, keys := seedN(t, 2)
	p := &txn.Piece{ReadSet: keys, WriteSet: keys, ReadIDs: []txn.KeyID{0, 1}, WriteIDs: []txn.KeyID{0, 1},
		Exec: txn.Func(func(kv txn.KV) []byte {
			v := txn.DecodeInt(kv.GetID(0)) + txn.SmallInts
			kv.PutID(0, txn.Int(kv, v))
			kv.PutID(1, txn.AppendInt(txn.AppendInt(kv.Bytes(16), v), -v))
			return txn.AppendInt(txn.AppendInt(kv.Bytes(16), -v), v)
		})}
	type kept struct {
		ret, val0, val1 []byte
		v               int64
	}
	var all []kept
	var ws []Write
	for i := 1; i <= 10000; i++ {
		ret := s.ExecuteID(id(uint64(i)), ts(int64(i)), p)
		s.Commit(id(uint64(i)))
		all = append(all, kept{ret, s.GetID(0), s.GetID(1), txn.DecodeInt(s.GetID(0))})
		var bret []byte
		bret, ws = s.ExecuteBuffered(ws[:0], p)
		s.Apply(ws)
		all = append(all, kept{bret, s.GetID(0), s.GetID(1), txn.DecodeInt(s.GetID(0))})
	}
	for i, k := range all {
		if want := int64(i+1) * txn.SmallInts; k.v != want {
			t.Fatalf("execution %d left %d, want %d", i, k.v, want)
		}
		if txn.DecodeInt(k.ret) != -k.v || txn.DecodeInt(k.ret[8:]) != k.v ||
			txn.DecodeInt(k.val0) != k.v || txn.DecodeInt(k.val1) != k.v || txn.DecodeInt(k.val1[8:]) != -k.v {
			t.Fatalf("execution %d: its result %v and values %v %v were overwritten (it wrote %d)", i, k.ret, k.val0, k.val1, k.v)
		}
	}
}
