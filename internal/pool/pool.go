// Package pool provides the transaction path's deterministic allocators: Free,
// a freelist of objects that come and go, filled a chunk of freeChunk objects at
// a time so that warming a list up to its high-water mark costs one allocation
// per chunk rather than one per object, Slab (slab.go), the chunked slab
// behind everything a run keeps by the million — store versions, Tiga's records,
// conflict entries and log, the Paxos log, the simulator's events — where an
// allocation per object, or a slice's re-copy at each growth, is the cost to avoid,
// and Arena (arena.go), which carves slices that are handed on and kept out of
// chunks it never reuses.
// A slab can also start over another slab's chunks (Over) and read them as the
// entries below its own: that is how the replicas of a shard that retain
// history share one set of seed versions (store.Image) and each own only what
// they wrote. The prefix is shared memory between simulated nodes, so it is
// strictly read-only; a store whose writes recycle entries in place (the
// default, garbage-collecting mode) takes a slab of its own instead.
//
// The simulator's goldens are byte-identical across -workers settings because
// every simulation is single-threaded and driven by one seeded rng; a
// sync.Pool would break that (its hit rate depends on GC timing and the
// P the goroutine happens to run on, so recycled-object identity — and any
// latent state bug — would vary run to run). A Free[T] is instead owned by
// exactly one simulated cluster (coordinator, server, or protocol instance)
// and used only from that simulation's event loop, so Get/Put order is a pure
// function of the seed. Objects handed back via Put are fully overwritten by
// the next Get site before reuse; the pool itself does not zero them.
//
// Lifecycle discipline (see README "Simulator performance"): a pooled object
// may be recycled only by code that can prove no other reference outlives the
// Put. In practice that means
//   - unicast wire messages: the receiving handler recycles after decoding —
//     Janus', Tapir's and NCC's replies, and the layered baselines' (lockocc)
//     votes and commit acknowledgements, come from the sending replica's,
//     server's or leader's list, carry the sender, and the coordinator's
//     handle puts each back there once it has copied the fields out; so do
//     Detock's sequence exchanges, replication acks and results, which come
//     from the sending engine's list, and Calvin+'s submissions (the
//     coordinator's list, put back by the sequencer), results and batch
//     fetches (the executor's),
//   - a snapshot-read request (internal/snapread): the replica recycles it once
//     the read is served — a read queued behind the watermark holds it until
//     then — and the coordinator a reply once it has copied the answer out,
//   - multicast payloads: each destination gets its own pooled copy when
//     receivers keep it (Tiga) or when the copy carries a buffer that is
//     refilled on reuse (Detock's write sets, one copy per region and shard,
//     refilled with append(r.Writes[:0], ...), applied, acked and put back
//     by the receiver); an immutable payload that every receiver copies out
//     or only reads (Janus', Tapir's, lockocc's and NCC's coordinator
//     requests, commit notes and decisions, Detock's home requests, Calvin+'s
//     epoch batches, which the sequencer also keeps to re-send) is carved
//     once from the sender's Arena (Arena.New) and shared by pointer: an
//     arena never reuses an entry, so a copy delivered after its transaction
//     ended reads what was sent, and nothing puts it back,
//   - coordinator-local records: every baseline files its attempts in a
//     coord.Table (internal/protocol/coord), which recycles a record in
//     Finish, before it calls the completion callback, or in Retry once the
//     budget is spent; a record waiting out a retry's backoff stays out of
//     the list until its transaction's final outcome. Tiga's pendingTxn is
//     recycled after its callback, a local read's record (internal/snapread)
//     and the harness's interactive chain before theirs. A record's timer
//     body is bound once, at its first use, and a record that can end with a
//     timer still armed (Tiga's retry timeout, a read's re-drive) arms it with
//     simnet.Node.AfterGate on a generation of its own that its end bumps, so
//     the timer never runs on the record's next transaction. A record that
//     goes back drops its transaction, callback and results; the results
//     themselves (PerShard, Reads) are carved from the coordinator's Arena
//     (arena.go) and stay the caller's,
//   - a server record that nothing mentions after a known message: Detock's
//     engine records are recycled at the first replication ack, once the
//     result has gone out; the later acks find no record,
//   - Tiga's server records: a Slab plus a free LIFO of the server's own, fed
//     at retirement — once the record's log entry lies a checkpoint interval
//     behind and its coordinator has finished the transaction — and drained
//     by the next new record before the slab grows (a Free would allocate
//     sixteen records at a time, where a slab chunk holds 1 024),
//   - anything retained by a server log (e.g. *txn.Txn): never pooled. A
//     log-retained record comes from a slab, never from a freelist: lockocc's
//     commit records come from the proposing leader's Slab, their write sets
//     from its arena, and NCC's server records (kept for dedup and RTC) from
//     the server's Slab.
//
// Double frees corrupt simulations silently (two live txns sharing one
// struct), so Check mode — enabled by tests — makes Put panic on an object
// already in the pool.
package pool

// Check enables the debug double-free detector on pools created while it is
// set. Tests flip it on; the serving path leaves it off (the id map costs an
// allocation per tracked Put).
var Check bool

// freeChunk is how many objects a Free allocates at once when its list runs
// dry. Sixteen keeps a chunk's unused tail small beside the objects in use,
// even for a list that never grows past a handful (8 KB chunks raised the bytes
// per transaction of the smallest deployment measured by 29 %), while a list
// that fills to thousands pays a sixteenth of the allocations.
const freeChunk = 16

// Free is a LIFO freelist of *T. The zero value is NOT ready to use; create
// pools with New so the Check snapshot is taken consistently.
type Free[T any] struct {
	free  []*T
	fresh []T         // the current chunk's objects not yet handed out
	inUse map[*T]bool // nil unless Check was set at New time

	// Gets / News count pool hits and misses (objects, not chunks) for the
	// alloc-profile harness; they are not part of any golden output.
	Gets, News int
}

// New returns an empty freelist, arming the double-free detector if
// pool.Check is set.
func New[T any]() *Free[T] {
	f := &Free[T]{}
	if Check {
		f.inUse = make(map[*T]bool)
	}
	return f
}

// Get pops the most recently freed object or, when the freelist is empty,
// hands out the next zero object of the current chunk, allocating a chunk of
// freeChunk objects when that one is used up. The caller must overwrite every
// field it reads.
func (f *Free[T]) Get() *T {
	f.Gets++
	n := len(f.free)
	if n == 0 {
		f.News++
		if len(f.fresh) == 0 {
			f.fresh = make([]T, freeChunk)
		}
		p := &f.fresh[0]
		f.fresh = f.fresh[1:]
		if f.inUse != nil {
			f.inUse[p] = true
		}
		return p
	}
	p := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	if f.inUse != nil {
		f.inUse[p] = true
	}
	return p
}

// Put returns an object to the freelist. With pool.Check armed, putting an
// object that is already free (or that this pool never handed out) panics —
// that is the double-recycle bug class this exists to catch.
func (f *Free[T]) Put(p *T) {
	if p == nil {
		return
	}
	if f.inUse != nil {
		if !f.inUse[p] {
			panic("pool: double free (object not checked out)")
		}
		delete(f.inUse, p)
	}
	f.free = append(f.free, p)
}

// Idle reports how many objects are on the freelist. News - Idle are checked
// out or were dropped in flight, which is how a lifecycle test asks whether
// everything that was delivered came back.
func (f *Free[T]) Idle() int { return len(f.free) }
