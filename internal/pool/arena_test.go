package pool

import (
	"testing"
	"unsafe"
)

// TestArenaCarvesSideBySideAndNeverReuses: carved slices are zero, cap-limited
// and adjacent in one chunk; an append to one reallocates instead of writing
// into the next; a slice that does not fit the rest of a chunk starts a new
// one, and one longer than a chunk gets a chunk of its own length.
func TestArenaCarvesSideBySideAndNeverReuses(t *testing.T) {
	a := NewArena[int64](8)
	x, y := a.Carve(3), a.Carve(2)
	if len(x) != 3 || cap(x) != 3 || len(y) != 2 || cap(y) != 2 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 3/3 and 2/2", len(x), cap(x), len(y), cap(y))
	}
	if unsafe.Pointer(&y[0]) != unsafe.Add(unsafe.Pointer(&x[0]), 3*unsafe.Sizeof(x[0])) {
		t.Fatal("two carves were not side by side in one chunk")
	}
	for i := range x {
		x[i] = int64(i + 1)
	}
	y[0] = 7
	_ = append(x, 99)
	if y[0] != 7 {
		t.Fatalf("appending to one carved slice overwrote the next: %d", y[0])
	}
	z := a.Carve(4) // 3 of the chunk's 8 entries are left
	if unsafe.Pointer(&z[0]) == unsafe.Add(unsafe.Pointer(&y[0]), 2*unsafe.Sizeof(y[0])) || cap(a.buf) != 8 {
		t.Fatal("a carve that did not fit the chunk's rest was not given a fresh chunk")
	}
	for _, v := range z {
		if v != 0 {
			t.Fatal("a carved slice is not zero")
		}
	}
	if big := a.Carve(20); len(big) != 20 || cap(a.buf) != 20 {
		t.Fatalf("a 20-entry carve got %d entries in a chunk of %d", len(big), cap(a.buf))
	}
	if x[0] != 1 || y[0] != 7 {
		t.Fatal("a later carve handed out entries an earlier one holds")
	}
}

// TestArenaAllocatesPerChunk: the zero arena's chunks are 8 KB, and carving
// costs one allocation a chunk.
func TestArenaAllocatesPerChunk(t *testing.T) {
	var a Arena[uint32]
	a.Carve(1)
	if cap(a.buf) != arenaBytes/4 {
		t.Fatalf("the zero arena's chunk holds %d uint32s, want %d", cap(a.buf), arenaBytes/4)
	}
	a = Arena[uint32]{}
	perChunk := testing.AllocsPerRun(3, func() {
		for i := 0; i < arenaBytes/4/2; i++ {
			a.Carve(2)
		}
	})
	if perChunk != 1 {
		t.Fatalf("a chunk's worth of carves cost %v allocations, want 1", perChunk)
	}
}
