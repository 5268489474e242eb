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
