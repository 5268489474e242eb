package pool

import "testing"

// TestSlabEntriesNeverMove: numbers come in order, an entry's address outlives
// any amount of growth, and n entries cost ceil(n/SlabChunk) chunks.
func TestSlabEntriesNeverMove(t *testing.T) {
	var s Slab[obj]
	const n = 3*SlabChunk + 5
	ptrs := make([]*obj, n)
	for i := range ptrs {
		if got := s.Add(); got != uint32(i) {
			t.Fatalf("Add #%d returned entry %d", i, got)
		}
		ptrs[i] = s.At(uint32(i))
		if ptrs[i].n != 0 {
			t.Fatalf("entry %d is not zero when handed out", i)
		}
		ptrs[i].n = i + 1
	}
	for i, p := range ptrs {
		if s.At(uint32(i)) != p || p.n != i+1 {
			t.Fatalf("entry %d moved or was overwritten as the slab grew", i)
		}
	}
	if s.Len() != n || s.Chunks() != 4 {
		t.Fatalf("Len = %d, Chunks = %d, want %d entries in 4 chunks", s.Len(), s.Chunks(), n)
	}
	s = Slab[obj]{}
	if s.Len() != 0 || s.Chunks() != 0 || s.Add() != 0 {
		t.Fatal("the zero value is not an empty slab")
	}
}

// TestSlabGrowsByOneAllocationPerChunk pins what the slab is for.
func TestSlabGrowsByOneAllocationPerChunk(t *testing.T) {
	var s Slab[[9]uint64] // 72 bytes, a store version's size
	for i := 0; i < 4*SlabChunk; i++ {
		s.Add() // reach a chunk table that holds the chunks to come
	}
	s = Slab[[9]uint64]{chunks: s.chunks[:0]}
	perChunk := testing.AllocsPerRun(3, func() {
		for i := 0; i < SlabChunk; i++ {
			s.Add()
		}
	})
	if perChunk != 1 {
		t.Fatalf("%d entries cost %v allocations, want 1", SlabChunk, perChunk)
	}
}

// TestSlabOverReadsTheBaseAndOwnsTheRest: a slab made by Over finds the base's
// entries under their numbers, hands out numbers from the next whole chunk on
// in chunks of its own, counts only those, and never touches the base — not its
// entries, not its chunk table — however many slabs lie over it.
func TestSlabOverReadsTheBaseAndOwnsTheRest(t *testing.T) {
	var base Slab[obj]
	const n = SlabChunk + 5
	for i := 0; i < n; i++ {
		base.At(base.Add()).n = i + 1
	}
	a, b := Over(&base), Over(&base)
	if a.Shared() != 2*SlabChunk || a.Len() != 0 || a.Chunks() != 0 {
		t.Fatalf("over %d entries: Shared = %d, Len = %d, Chunks = %d, want %d, 0, 0", n, a.Shared(), a.Len(), a.Chunks(), 2*SlabChunk)
	}
	for i := 0; i < SlabChunk+1; i++ {
		got := a.Add()
		if got != a.Shared()+uint32(i) {
			t.Fatalf("Add #%d returned entry %d, want %d", i, got, a.Shared()+uint32(i))
		}
		a.At(got).n = -1
	}
	first := b.Add()
	b.At(first).n = -2
	if a.Len() != SlabChunk+1 || a.Chunks() != 2 || b.Len() != 1 || b.Chunks() != 1 {
		t.Fatalf("a: %d entries in %d chunks, b: %d in %d; want %d in 2 and 1 in 1", a.Len(), a.Chunks(), b.Len(), b.Chunks(), SlabChunk+1)
	}
	if a.At(first).n != -1 || b.At(first).n != -2 {
		t.Fatal("two slabs over one base share an entry of their own")
	}
	for i := 0; i < n; i++ {
		if base.At(uint32(i)).n != i+1 || a.At(uint32(i)) != base.At(uint32(i)) || b.At(uint32(i)) != base.At(uint32(i)) {
			t.Fatalf("entry %d of the base moved, changed, or is not what the slabs over it read", i)
		}
	}
	if base.Len() != n || base.Chunks() != 2 || base.Shared() != 0 {
		t.Fatalf("the base now has %d entries in %d chunks", base.Len(), base.Chunks())
	}
	if empty := Over(&Slab[obj]{}); empty.Shared() != 0 || empty.Add() != 0 {
		t.Fatal("a slab over an empty one is not an empty slab")
	}
}

// TestSlabAppendAndAppendTo: Append numbers entries as Add does and fills
// them; AppendTo copies any run of them out, across chunk boundaries, into a
// slice that shares nothing with the slab.
func TestSlabAppendAndAppendTo(t *testing.T) {
	var s Slab[int]
	const n = 2*SlabChunk + 7
	for i := 0; i < n; i++ {
		if got := s.Append(i * 3); got != uint32(i) {
			t.Fatalf("Append #%d returned entry %d", i, got)
		}
	}
	for _, r := range [][2]uint32{{0, n}, {0, 0}, {5, 6}, {SlabChunk - 1, SlabChunk + 1}, {3, 2*SlabChunk + 2}, {SlabChunk, 2 * SlabChunk}} {
		prefix := []int{-1}
		got := s.AppendTo(prefix, r[0], r[1])
		if len(got) != 1+int(r[1]-r[0]) || got[0] != -1 {
			t.Fatalf("AppendTo(%d, %d) returned %d entries after the prefix", r[0], r[1], len(got)-1)
		}
		for i, v := range got[1:] {
			if want := (int(r[0]) + i) * 3; v != want {
				t.Fatalf("AppendTo(%d, %d)[%d] = %d, want %d", r[0], r[1], i, v, want)
			}
		}
	}
	out := s.AppendTo(nil, 0, n)
	out[0] = 99
	if *s.At(0) != 0 {
		t.Fatal("AppendTo's copy aliases the slab")
	}
}
