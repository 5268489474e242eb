package store

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/txn"
)

// testImage returns an image of n keys "k0-i" holding 1000+i, and the names.
func testImage(n int) (*Image, []string) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k0-%d", i)
	}
	return NewImage(keys, imageVal), keys
}

// attached returns a checked store attached to img, retaining history or not.
func attached(t testing.TB, img *Image, retain bool) *Store {
	s := newChecked(t)
	if retain {
		s.EnableSnapshots()
	}
	s.Attach(img)
	return s
}

// TestAttachOrderDecidesSharing pins both call orders. EnableSnapshots then
// Attach shares the image's versions: no chunk of the store's own until the
// first write, which costs exactly one. Attach then EnableSnapshots leaves the
// store on the entries it was filled with, and it retains history all the same.
func TestAttachOrderDecidesSharing(t *testing.T) {
	const n = pool.SlabChunk + 10
	img, keys := testImage(n)
	sharing := attached(t, img, true)
	owning := attached(t, img, false)
	owning.EnableSnapshots()
	if sharing.shared == 0 || sharing.vers.Chunks() != 0 {
		t.Fatalf("EnableSnapshots then Attach: %d shared refs, %d own chunks, want the image's versions and no chunk", sharing.shared, sharing.vers.Chunks())
	}
	if owning.shared != 0 || owning.vers.Chunks() != 2 {
		t.Fatalf("Attach then EnableSnapshots: %d shared refs, %d own chunks, want 0 and 2", owning.shared, owning.vers.Chunks())
	}
	for _, s := range []*Store{sharing, owning} {
		if s.Len() != n || s.Versions() != n || s.Interned() != n {
			t.Fatalf("attached store holds %d keys, %d versions, %d ids, want %d of each", s.Len(), s.Versions(), s.Interned(), n)
		}
		last := txn.KeyID(n - 1)
		s.ExecuteID(id(1), ts(10), txn.IncrementPieceID(keys[last], last))
		s.Commit(id(1))
		if got := txn.DecodeInt(s.GetID(last)); got != 1000+n {
			t.Fatalf("increment of the last key read %d, want %d", got, 1000+n)
		}
		if v, at, ok := s.GetAtID(last, 5); !ok || at != (txn.Timestamp{}) || txn.DecodeInt(v) != 1000+n-1 {
			t.Fatalf("GetAtID before the write = %v %v %v, want the seed value at timestamp zero", v, at, ok)
		}
		if s.Versions() != n+1 {
			t.Fatalf("%d versions after one retained write, want %d", s.Versions(), n+1)
		}
	}
	if sharing.vers.Chunks() != 1 || owning.vers.Chunks() != 2 {
		t.Fatalf("after one write: %d and %d own chunks, want 1 and 2", sharing.vers.Chunks(), owning.vers.Chunks())
	}
}

// TestAttachedStoreOps walks the ops that meet an image version, in both modes,
// beside a sibling on the same image that must never notice.
func TestAttachedStoreOps(t *testing.T) {
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			img, keys, n := NewImage(imageKeys, imageVal), imageKeys, len(imageKeys)
			s, sib := attached(t, img, retain), attached(t, img, retain)
			get := func(i int) int64 { return txn.DecodeInt(s.GetID(txn.KeyID(i))) }

			// Seed of an attached key replaces the image version.
			s.Seed(keys[0], txn.EncodeInt(7))
			if get(0) != 7 || s.Versions() != n || s.Len() != n {
				t.Fatalf("after Seed: value %d, %d versions, %d keys", get(0), s.Versions(), s.Len())
			}
			// ApplyAt: all the key holds in the default mode, one more version when retaining.
			s.ApplyAt(ts(10), []Write{{ID: 1, Val: txn.EncodeInt(8)}, {ID: txn.NoKeyID, Name: keys[2], Val: txn.EncodeInt(9)}})
			want := n
			if retain {
				want = n + 2
			}
			if get(1) != 8 || get(2) != 9 || s.Versions() != want {
				t.Fatalf("after ApplyAt: values %d %d, %d versions, want %d", get(1), get(2), s.Versions(), want)
			}
			// Revoke back to the image version.
			s.ExecuteID(id(1), ts(20), txn.IncrementPieceID(keys[3], 3))
			s.Revoke(id(1))
			if get(3) != 1003 || s.Versions() != want {
				t.Fatalf("after Revoke: value %d, %d versions, want the seed value and %d", get(3), s.Versions(), want)
			}
			// PruneTo past a rewritten key's image version (and the two ApplyAt left behind).
			s.ExecuteID(id(2), ts(30), txn.IncrementPieceID(keys[4], 4))
			s.Commit(id(2))
			if pruned, wantPruned := s.PruneTo(40), map[bool]int{false: 0, true: 3}[retain]; pruned != wantPruned {
				t.Fatalf("PruneTo dropped %d versions, want %d", pruned, wantPruned)
			}
			if _, _, ok := s.GetAtID(4, 29); ok {
				t.Fatal("the image version of a rewritten key is still readable below the pruning horizon")
			}
			if get(4) != 1005 || s.Versions() != n {
				t.Fatalf("after PruneTo: value %d, %d versions, want 1005 and %d", get(4), s.Versions(), n)
			}
			// A name interned after the image: written blind, revoked, absent again.
			if late := s.Intern("late"); int(late) != n || sib.Interned() != n {
				t.Fatalf("Intern gave id %d and the sibling has %d ids, want %d and %d", late, sib.Interned(), n, n)
			}
			s.ExecuteID(id(3), ts(50), txn.WritePiece("late", txn.EncodeInt(1)))
			if s.Len() != n+1 || s.Get("late") == nil {
				t.Fatal("blind write of a late name is not visible")
			}
			s.Revoke(id(3))
			if s.Len() != n || s.Get("late") != nil || s.Versions() != n {
				t.Fatalf("after revoking the blind write: %d keys, %d versions", s.Len(), s.Versions())
			}
			if _, ok := sib.Lookup("late"); ok {
				t.Fatal("a name one store interned is known to its sibling")
			}
			if err := checkSibling(sib); err != nil {
				t.Fatalf("the sibling: %v", err)
			}
		})
	}
}

// TestAttachedStoresAreIsolated is the sharing's race test: three stores that
// retain history attach to one image from three goroutines (the first to arrive
// builds the image's slab) and each drives its own keys, and keys all three
// write, through Execute, Commit, Revoke, PruneTo and Seed. A store that wrote into
// a chunk it shares, or an image built without synchronisation, is a data race;
// without the detector it still shows as a store that differs from the same ops
// replayed alone, or as a fourth, untouched store that changed.
func TestAttachedStoresAreIsolated(t *testing.T) {
	const (
		n       = 2*pool.SlabChunk + 50 // the image's last chunk is partly filled
		overlap = 16                    // keys every store writes
		rounds  = 400
	)
	img, keys := testImage(n)
	drive := func(s *Store, g int) {
		for i := 0; i < rounds; i++ {
			k := txn.KeyID(i % overlap)
			if i%2 == 1 { // one of the keys only store g writes
				k = txn.KeyID(overlap + 3*(i*31%((n-overlap)/3)) + g)
			}
			tid := id(uint64(i + 1))
			s.ExecuteID(tid, ts(int64(10*(i+1))), txn.IncrementPieceID(keys[k], k))
			if i%5 == 4 {
				s.Revoke(tid)
			} else {
				s.Commit(tid)
			}
			if i%50 == 49 {
				s.PruneTo(time.Duration(10 * (i - 20)))
			}
			if i%40 == 7 { // re-seed a key, now and then one still on its image version
				s.Seed(keys[overlap+i], txn.EncodeInt(int64(i)))
			}
		}
	}

	stores := make([]*Store, 3)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s := New()
			s.EnableSnapshots()
			s.Attach(img)
			stores[g] = s
			drive(s, g)
		}()
	}
	close(start)
	wg.Wait()

	idle := attached(t, img, true)
	for g, s := range stores {
		if err := checkSlab(s); err != nil {
			t.Fatalf("store %d: checkSlab: %v", g, err)
		}
		if s.shared == 0 {
			t.Fatalf("store %d does not share the image's versions", g)
		}
		alone := New()
		alone.EnableSnapshots()
		alone.SeedBulkFunc(keys, imageVal)
		drive(alone, g)
		if !s.Equal(alone) || !alone.Equal(s) || s.Versions() != alone.Versions() {
			t.Fatalf("store %d differs from the same ops on a store of its own (%d versions, %d alone)", g, s.Versions(), alone.Versions())
		}
		for k := 0; k < n; k++ {
			for _, at := range []time.Duration{0, 10 * rounds / 2, math.MaxInt64} {
				va, ta, oka := s.GetAtID(txn.KeyID(k), at)
				vb, tb, okb := alone.GetAtID(txn.KeyID(k), at)
				if !same(va, vb) || ta != tb || oka != okb {
					t.Fatalf("store %d: GetAtID(%d, %d) = %v %v %v, alone %v %v %v", g, k, at, va, ta, oka, vb, tb, okb)
				}
			}
		}
	}
	if idle.vers.Chunks() != 0 || idle.Versions() != n {
		t.Fatalf("the untouched store has %d own chunks and %d versions", idle.vers.Chunks(), idle.Versions())
	}
	for k := 0; k < n; k++ {
		if v, at, ok := idle.GetAtID(txn.KeyID(k), 0); !ok || at != (txn.Timestamp{}) || !same(v, imageVal(k)) {
			t.Fatalf("the untouched store: GetAtID(%d, 0) = %v %v %v, want the seed value", k, v, at, ok)
		}
	}
}
