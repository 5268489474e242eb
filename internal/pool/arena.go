package pool

import "unsafe"

// arenaBytes sizes the zero Arena's chunks: 8 KB, a whole page of Go's
// allocator, so a chunk of a type whose size divides it loses nothing to
// rounding.
const arenaBytes = 8 << 10

// Arena carves slices of T out of chunks it never reuses: what Carve hands out
// belongs to the caller for good, so the arena suits what a run hands on and
// keeps — a coordinator's results, the key references of Tiga's records,
// lockocc's logged write sets — at one allocation a chunk instead of one a
// slice. A carved slice is cap-limited, so an append to it reallocates instead
// of running into the next one. A slice longer than a chunk gets a chunk of its
// own length; what is left of the chunk it did not fit in is never handed out.
// The zero value carves from 8 KB chunks; NewArena sets another size. Like a
// Free, an Arena belongs to one simulated cluster's event loop.
type Arena[T any] struct {
	chunk int // entries a chunk holds; 0 means 8 KB worth
	buf   []T
}

// NewArena returns an empty arena whose chunks hold chunk entries each.
func NewArena[T any](chunk int) Arena[T] { return Arena[T]{chunk: chunk} }

// Carve returns n zero entries, len == cap == n, that nothing else shares.
func (a *Arena[T]) Carve(n int) []T {
	if n > cap(a.buf)-len(a.buf) {
		a.buf = make([]T, 0, max(n, a.chunkLen()))
	}
	at := len(a.buf)
	a.buf = a.buf[:at+n]
	return a.buf[at : at+n : at+n]
}

// New carves one entry, sets it to v and returns it. The baselines send a
// message that several destinations read this way instead of boxing it into
// an interface: the entry is never reused, so a copy delivered after its
// transaction ended still reads what was sent.
func (a *Arena[T]) New(v T) *T { p := &a.Carve(1)[0]; *p = v; return p }

func (a *Arena[T]) chunkLen() int {
	if a.chunk > 0 {
		return a.chunk
	}
	var zero T
	return max(1, arenaBytes/max(1, int(unsafe.Sizeof(zero))))
}
