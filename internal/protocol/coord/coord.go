// Package coord is a baseline coordinator's client side: its id sequence,
// under each id it minted the protocol's pooled record of the attempt, and the
// steps every baseline takes the same way. Begin starts an attempt, Multicast
// sends one message to each piece's shard, Fold collects the pieces' returns,
// Finish reports the outcome and Retry aborts and backs off. Tallies,
// decisions and the protocol's own timers stay in the protocol. A Table is
// used only from its simulation's event loop, so ids and record reuse are a
// pure function of the seed.
package coord

import (
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
	free *pool.Free[P]
	// rets holds the folded returns, which Finish hands on as PerShard: a
	// record's own buffer could not be, since Finish recycles the record
	// before the callback runs.
	rets pool.Arena[txn.ShardRet]
	// Retry's policy, set by Retrying.
	max     int
	backoff time.Duration
	resend  func(R)
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

// Mint gives t the coordinator's next id and files nothing under it.
func (tb *Table[P, R]) Mint(t *txn.Txn) {
	tb.seq++
	t.ID = txn.ID{Coord: tb.idx, Seq: tb.seq}
}

// Begin starts t's first attempt: it mints t a fresh id and files a pooled
// record under it, whose Attempt is new and whose other fields are as the
// record's last use left them: overwrite every one you read. done gets the
// outcome from Finish or Retry.
func (tb *Table[P, R]) Begin(t *txn.Txn, done func(txn.Result)) R {
	p := R(tb.free.Get())
	a := p.attempt()
	*a = Attempt{T: t, done: done, again: a.again}
	tb.file(p)
	return p
}

// file mints p's transaction a fresh id and files p under it.
func (tb *Table[P, R]) file(p R) {
	t := p.attempt().T
	tb.Mint(t)
	tb.live[t.ID] = p
}

// Get returns the record filed under id, nil once its attempt has ended.
func (tb *Table[P, R]) Get(id txn.ID) R { return tb.live[id] }

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
	delete(tb.live, a.T.ID)
	a.Retries++
	if a.again == nil {
		a.again = func() {
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
	delete(tb.live, a.T.ID)
	*a = Attempt{again: a.again}
	tb.free.Put((*P)(p))
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
