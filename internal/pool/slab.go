package pool

const (
	// slabBits fixes every slab's chunk at 1024 entries: with an entry size that
	// is a multiple of eight bytes a chunk is then a whole number of 8 KB pages,
	// which is how Go sizes an allocation above 32 KB, so a chunk of 72-byte store
	// versions (72 KB), of 64-byte conflict entries or simulator events (64 KB),
	// of 48-byte Tiga log entries (48 KB) or of 192-byte Tiga records (192 KB)
	// loses nothing to rounding; 512 versions (36 KB) would be rounded up to
	// five pages, a tenth more.
	slabBits  = 10
	SlabChunk = 1 << slabBits
)

// Slab is a chunked slab of T: the layout behind what a run grows and keeps —
// the store's version chains, Tiga's conflict entries, transaction records and
// log, the layered baselines' Paxos log, and the simulator's pending events —
// where a slice grown by append would copy everything it holds at each growth.
// Entries are numbered from zero in the order Add hands them out, live in
// fixed-size chunks, and never move — the slab grows a chunk at a time — so an
// entry's number, or a pointer to it, stays good for the slab's life and n
// entries cost n/SlabChunk allocations. The slab has no notion of a free
// entry: an owner that takes entries back threads its own free list through
// them (store.Store does, via version.prev; simnet's event queue via a freed
// event's gseq) or keeps one beside them (Tiga's Server.free). Like a Free, a
// Slab belongs to one simulated cluster's event loop, so the numbers it hands
// out are a pure function of the seed. The zero value is an empty slab;
// dropping a slab whole is assigning the zero value.
//
// A slab made by Over starts with another slab's chunks as a prefix it only
// reads: entry numbers below Shared are that slab's entries, found by the same
// At, and Add hands out numbers from Shared on, in chunks of the slab's own.
// Any number of slabs can lie over one base, from any number of goroutines, as
// long as nobody writes an entry below Shared or adds to the base afterwards;
// Len and Chunks count only what a slab owns.
type Slab[T any] struct {
	chunks []*[SlabChunk]T
	n      uint32
	shared uint32
}

// Over returns an empty slab over base's entries: At(i) for i below base's Len
// is base's entry i, to be read and never written. The prefix is whole chunks
// (what is left of base's last chunk is never handed out) and costs nothing
// until the first Add, which copies the chunk table.
func Over[T any](base *Slab[T]) Slab[T] {
	chunks := base.chunks[:len(base.chunks):len(base.chunks)]
	n := uint32(len(chunks)) << slabBits
	return Slab[T]{chunks: chunks, n: n, shared: n}
}

// At returns entry number i, which Add must have handed out (or, below Shared,
// the base's Add).
func (s *Slab[T]) At(i uint32) *T { return &s.chunks[i>>slabBits][i&(SlabChunk-1)] }

// Add hands out the next entry's number. The entry is zero: a slab never
// reuses one on its own.
func (s *Slab[T]) Add() uint32 {
	if int(s.n>>slabBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new([SlabChunk]T))
	}
	s.n++
	return s.n - 1
}

// Append hands out the next entry's number with v in it: a slab used as a log
// that only grows.
func (s *Slab[T]) Append(v T) uint32 {
	i := s.Add()
	*s.At(i) = v
	return i
}

// AppendTo appends entries from through to-1 to dst, a chunk's run at a time,
// and returns the extended slice: a copy that owes nothing to the slab.
func (s *Slab[T]) AppendTo(dst []T, from, to uint32) []T {
	for from < to {
		lo := from & (SlabChunk - 1)
		n := min(to-from, SlabChunk-lo)
		dst = append(dst, s.chunks[from>>slabBits][lo:lo+n]...)
		from += n
	}
	return dst
}

// Shared returns the first entry number that is the slab's own: zero unless
// the slab was made by Over.
func (s *Slab[T]) Shared() uint32 { return s.shared }

// Len returns the number of entries handed out.
func (s *Slab[T]) Len() int { return int(s.n - s.shared) }

// Chunks returns the number of chunk allocations made so far.
func (s *Slab[T]) Chunks() int { return len(s.chunks) - int(s.shared>>slabBits) }
