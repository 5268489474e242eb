// Package coord keeps a baseline coordinator's transactions in flight: its id
// sequence and, under each id it minted, the protocol's pooled record of the
// attempt. Tallies, decisions and timers stay in the protocol. A Table is used
// only from its simulation's event loop, so ids and record reuse are a pure
// function of the seed.
package coord

import (
	"tiga/internal/pool"
	"tiga/internal/txn"
)

// Table is one coordinator's attempts in flight; P is the protocol's record.
type Table[P any] struct {
	idx  int32
	seq  uint64
	live map[txn.ID]*P
	free *pool.Free[P]
}

// New returns coordinator idx's empty table: its ids are {idx, 1}, {idx, 2}, ….
func New[P any](idx int32) *Table[P] {
	return &Table[P]{idx: idx, live: make(map[txn.ID]*P), free: pool.New[P]()}
}

// Mint gives t the coordinator's next id and files nothing under it.
func (tb *Table[P]) Mint(t *txn.Txn) {
	tb.seq++
	t.ID = txn.ID{Coord: tb.idx, Seq: tb.seq}
}

// Begin mints t a fresh id, also for a retry, and files a pooled record under
// it. The record is as its last End left it: overwrite every field you read.
func (tb *Table[P]) Begin(t *txn.Txn) *P {
	tb.Mint(t)
	p := tb.free.Get()
	tb.live[t.ID] = p
	return p
}

// Get returns the record filed under id, nil once its attempt has ended.
func (tb *Table[P]) Get(id txn.ID) *P { return tb.live[id] }

// End forgets id and recycles its record p. Copy out what the completion
// callback or a retry needs first: the callback may Begin, which reuses p.
func (tb *Table[P]) End(id txn.ID, p *P) {
	delete(tb.live, id)
	tb.free.Put(p)
}

// InFlight reports how many attempts have begun and not ended.
func (tb *Table[P]) InFlight() int { return len(tb.live) }

// News reports how many records the table has allocated.
func (tb *Table[P]) News() int { return tb.free.News }

// Idle reports how many records are back in the table's freelist.
func (tb *Table[P]) Idle() int { return tb.free.Idle() }
