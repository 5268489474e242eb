// Package coord is the client side of the coordinators of all nine
// protocols, Tiga and the eight baselines, and of their local snapshot reads
// (internal/snapread): its id sequence, under each id the protocol's pooled
// record of the attempt, and the steps every protocol takes the same way.
// Begin starts an attempt (Mint, then File; snapread files a read under the
// id its protocol minted), Multicast sends one message to each piece's shard,
// Arm sets the attempt's timeout, Fold collects the pieces' returns, Finish
// reports the outcome and Retry aborts and backs off under a fresh id. Tiga's
// Appendix-B retry keeps the id instead: its timeout resends and Arms again.
// Oldest is the done watermark Tiga's multicasts carry, and InOrder the live
// ids in sequence order, for walks that send. Tallies, quorum checks and
// decisions stay in the protocol. A Table is used only from its simulation's
// event loop, so ids, record reuse and timers are a pure function of the seed.
package coord

import (
	"cmp"
	"slices"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// Attempt is the part of a record the table owns: a protocol's record embeds
// it. Begin sets it, Fold fills results, Finish and Retry report from it.
type Attempt struct {
	T       *txn.Txn
	Retries int            // the attempts before this one
	results []txn.ShardRet // the folded returns, handed on as PerShard
	done    func(txn.Result)
	again   func() // Retry's timer callback, bound once per record
	// gen gates Arm's timer: every end of an attempt bumps it, so an arm left
	// by an ended attempt never fires on the record's next one. File keeps
	// it. fire is the timer's callback, bound once per record.
	gen  uint64
	fire func()
}

func (a *Attempt) attempt() *Attempt { return a }

// Record is a pointer to a protocol's record type P, which embeds Attempt.
type Record[P any] interface {
	*P
	attempt() *Attempt
}

// Table is one coordinator's attempts in flight; P is the protocol's record.
type Table[P any, R Record[P]] struct {
	idx  int32
	seq  uint64
	node *simnet.Node
	live map[txn.ID]R
	// order holds the filed ids in filing order from order[head] on, the
	// oldest live one first (Oldest); every end pops what is no longer live.
	order []txn.ID
	head  int
	ids   []txn.ID // InOrder's scratch
	free  *pool.Free[P]
	// rets holds the folded returns, which Finish hands on as PerShard: a
	// record's own buffer could not be, since Finish recycles the record
	// before the callback runs.
	rets pool.Arena[txn.ShardRet]
	// Retry's policy, set by Retrying.
	max     int
	backoff time.Duration
	resend  func(R)
	timeout func(R) // Arm's callback, set by OnTimeout
}

// New returns coordinator idx's empty table, sending from node: its ids are
// {idx, 1}, {idx, 2}, ….
func New[P any, R Record[P]](idx int32, node *simnet.Node) *Table[P, R] {
	return &Table[P, R]{idx: idx, node: node, live: make(map[txn.ID]R), free: pool.New[P]()}
}

// Retrying arms Retry: an attempt that has made max retries reports an abort,
// any other is resent after backoff × its new retry count, under a fresh id,
// by resend. It returns tb.
func (tb *Table[P, R]) Retrying(max int, backoff time.Duration, resend func(R)) *Table[P, R] {
	tb.max, tb.backoff, tb.resend = max, backoff, resend
	return tb
}

// OnTimeout sets the callback of every Arm on the table's records. It returns
// tb.
func (tb *Table[P, R]) OnTimeout(timeout func(R)) *Table[P, R] {
	tb.timeout = timeout
	return tb
}

// Mint gives t the coordinator's next id and files nothing under it.
func (tb *Table[P, R]) Mint(t *txn.Txn) {
	tb.seq++
	t.ID = txn.ID{Coord: tb.idx, Seq: tb.seq}
}

// Begin starts t's first attempt under a fresh id: Mint, then File.
func (tb *Table[P, R]) Begin(t *txn.Txn, done func(txn.Result)) R {
	tb.Mint(t)
	return tb.File(t, done)
}

// File starts t's first attempt under t.ID, which its owner has minted and
// files nothing else under, and mints nothing. The pooled record's Attempt is
// new and its other fields are as the record's last use left them: overwrite
// every one you read. done gets the outcome from Finish or Retry.
func (tb *Table[P, R]) File(t *txn.Txn, done func(txn.Result)) R {
	p := R(tb.free.Get())
	a := p.attempt()
	*a = Attempt{T: t, done: done, again: a.again, gen: a.gen, fire: a.fire}
	tb.file(p)
	return p
}

// file files p under its transaction's id.
func (tb *Table[P, R]) file(p R) {
	id := p.attempt().T.ID
	tb.live[id] = p
	tb.order = append(tb.order, id)
}

// Get returns the record filed under id, nil once its attempt has ended.
func (tb *Table[P, R]) Get(id txn.ID) R { return tb.live[id] }

// Oldest returns the id of the oldest attempt in flight, the zero id when
// there is none. Ids are filed in the order they were minted, so every live
// id is at least Oldest's: a server may retire what an older id names.
func (tb *Table[P, R]) Oldest() txn.ID {
	if tb.head == len(tb.order) {
		return txn.ID{}
	}
	return tb.order[tb.head]
}

// InOrder returns the ids of the attempts in flight in sequence order. The
// slice is the table's scratch, valid until the next call: an attempt that
// ends or begins during a walk over it does not change it, so walk the ids and
// Get each.
func (tb *Table[P, R]) InOrder() []txn.ID {
	ids := tb.ids[:0]
	for id := range tb.live {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b txn.ID) int {
		return cmp.Or(cmp.Compare(a.Coord, b.Coord), cmp.Compare(a.Seq, b.Seq))
	})
	tb.ids = ids
	return ids
}

// Arm runs the table's timeout callback on p after d, unless p's attempt has
// ended by then. An attempt may re-arm from the callback.
func (tb *Table[P, R]) Arm(p R, d time.Duration) {
	a := p.attempt()
	if a.fire == nil {
		a.fire = func() { tb.timeout(p) }
	}
	tb.node.AfterGate(d, &a.gen, a.gen, a.fire)
}

// PayloadChunk is the chunk, in entries, of the pool.Arena a coordinator
// carves each kind of multicast payload from: one allocation per 64 sends, and
// little left unused of the last chunk at the end of a short run.
const PayloadChunk = 64

// Multicast sends m to every node of to[shard] for each of t's pieces, in
// piece order and then to's order. m is a pointer the caller carved from one
// of its payload arenas (pool.Arena.New), shared by every destination, which
// only reads it.
func (tb *Table[P, R]) Multicast(t *txn.Txn, m simnet.Message, to [][]simnet.NodeID) {
	for i := range t.Pieces {
		for _, n := range to[t.Pieces[i].Shard()] {
			tb.node.Send(n, m)
		}
	}
}

// Fold records that shard's piece returned ret, a repeat replacing the
// shard's entry, and reports whether every piece has returned.
func (tb *Table[P, R]) Fold(p R, shard int, ret []byte) bool {
	a := p.attempt()
	if a.results == nil {
		a.results = tb.rets.Carve(len(a.T.Pieces))[:0]
	}
	a.results = txn.PutRet(a.results, shard, ret)
	return len(a.results) == len(a.T.Pieces)
}

// Finish ends p's attempt and then reports res with the attempt's retry count
// and folded returns. The attempt ends first because done may Begin the next
// transaction, which reuses p.
func (tb *Table[P, R]) Finish(p R, res txn.Result) {
	a := p.attempt()
	done := a.done
	res.Retries, res.PerShard = a.Retries, a.results
	tb.end(p)
	done(res)
}

// Retry ends p's attempt. One that has made the policy's last retry reports
// an abort; any other is resent after backoff × (retries+1) + stagger under a
// fresh id, p kept meanwhile for it.
func (tb *Table[P, R]) Retry(p R, stagger time.Duration) {
	a := p.attempt()
	a.results = nil
	if a.Retries >= tb.max {
		tb.Finish(p, txn.Result{Aborted: true})
		return
	}
	tb.forget(a)
	a.Retries++
	if a.again == nil {
		a.again = func() {
			tb.Mint(p.attempt().T)
			tb.file(p)
			tb.resend(p)
		}
	}
	tb.node.After(tb.backoff*time.Duration(a.Retries)+stagger, a.again)
}

// end forgets p's attempt and recycles p, which lets go of the transaction,
// the callback and the returns.
func (tb *Table[P, R]) end(p R) {
	a := p.attempt()
	tb.forget(a)
	*a = Attempt{again: a.again, gen: a.gen, fire: a.fire}
	tb.free.Put((*P)(p))
}

// forget unfiles a's attempt, disarms its timer and advances Oldest past the
// ids no longer live, each popped once. Once the popped prefix is half the
// slice it is copied down, which keeps filing free of allocations after
// warm-up.
func (tb *Table[P, R]) forget(a *Attempt) {
	delete(tb.live, a.T.ID)
	a.gen++
	for tb.head < len(tb.order) {
		if _, ok := tb.live[tb.order[tb.head]]; ok {
			break
		}
		tb.head++
	}
	if tb.head > 0 && 2*tb.head >= len(tb.order) {
		n := copy(tb.order, tb.order[tb.head:])
		tb.order, tb.head = tb.order[:n], 0
	}
}

// InFlight reports how many attempts have begun and not ended.
func (tb *Table[P, R]) InFlight() int { return len(tb.live) }

// News reports how many records the table has allocated.
func (tb *Table[P, R]) News() int { return tb.free.News }

// Idle reports how many records are back in the table's freelist.
func (tb *Table[P, R]) Idle() int { return tb.free.Idle() }

// Zeroed returns k zero values in s's storage: a record's per-position tally,
// readied for its next attempt.
func Zeroed[T any](s []T, k int) []T {
	s = slices.Grow(s[:0], k)[:k]
	clear(s)
	return s
}
