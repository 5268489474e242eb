// Package locks implements a shared/exclusive lock table. It is the one
// per-key concurrency-control state of both layered baselines (§5.1):
// 2PL+Paxos waits on it under the wound-wait policy (Acquire), OCC+Paxos
// validates on it without waiting (TryAcquire).
//
// Wound-wait: lock requests carry a priority (lower value = older = higher
// priority). An older requester "wounds" (aborts) younger holders; a younger
// requester waits behind older holders.
package locks

import (
	"slices"

	"tiga/internal/txn"
)

// Mode is the lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

type holder struct {
	id   txn.ID
	prio uint64
	mode Mode
}

type waiter struct {
	holder
	grant func()
}

type lock struct {
	holders []holder
	queue   []waiter
	// first backs holders until a second holder joins.
	first [1]holder
}

// Table is a per-shard lock table.
type Table struct {
	// locks holds an entry per key with holders or waiters. An entry that
	// empties goes to spare, arrays and all, for the next key that needs one —
	// unless a callback is running (callbacks > 0): a grant or wound callback
	// can empty the entry its caller is still using, so such an entry stays
	// under its key, empty, until it empties again with no callback running.
	locks     map[string]*lock
	spare     []*lock
	callbacks int
	// Wound is invoked when an older transaction wounds a younger holder;
	// the protocol must abort that holder and eventually ReleaseAll it.
	Wound func(victim txn.ID)
	held  map[txn.ID][]string
	// queued tracks the keys on which a transaction has waiting (never
	// granted) requests, in request order, so ReleaseAll can purge them
	// deterministically — grant callbacks run synchronously and feed the
	// simulation's event order, so map-iteration order here would make whole
	// runs diverge.
	queued map[txn.ID][]string
	// free holds the emptied held and queued lists of released transactions.
	free [][]string
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{locks: make(map[string]*lock), held: make(map[txn.ID][]string),
		queued: make(map[txn.ID][]string)}
}

func compatible(hs []holder, m Mode) bool {
	if len(hs) == 0 {
		return true
	}
	if m == Exclusive {
		return false
	}
	for _, h := range hs {
		if h.mode == Exclusive {
			return false
		}
	}
	return true
}

func (t *Table) entry(key string) *lock {
	l := t.locks[key]
	if l == nil {
		if n := len(t.spare); n > 0 {
			l, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			l = &lock{}
			l.holders = l.first[:0]
		}
		t.locks[key] = l
	}
	return l
}

// note appends key to id's list in m, starting the list from a freed one.
func (t *Table) note(m map[txn.ID][]string, id txn.ID, key string) {
	ks, ok := m[id]
	if !ok && len(t.free) > 0 {
		ks = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	}
	m[id] = append(ks, key)
}

// grantNow grants l to id at once if it can: id already holds it (an
// exclusive request upgrades a sole shared holder), or m is compatible with
// every holder and nothing is queued.
func (t *Table) grantNow(l *lock, key string, m Mode, id txn.ID, prio uint64) bool {
	for i, h := range l.holders {
		if h.id == id {
			if m == Exclusive && h.mode == Shared {
				if len(l.holders) == 1 {
					l.holders[i].mode = Exclusive
					return true
				}
				return false
			}
			return true
		}
	}
	if compatible(l.holders, m) && len(l.queue) == 0 {
		l.holders = append(l.holders, holder{id: id, prio: prio, mode: m})
		t.note(t.held, id, key)
		return true
	}
	return false
}

// Acquire requests key in mode m for transaction id with priority prio.
// It returns true when granted immediately. Otherwise wound-wait applies:
// if id is older than every incompatible holder, those holders are wounded
// (via the Wound callback) and id waits for the grant callback; if id is
// younger than any incompatible holder it also waits. Acquire never returns
// false for a queued request — cancellation happens via ReleaseAll.
func (t *Table) Acquire(key string, m Mode, id txn.ID, prio uint64, grant func()) bool {
	l := t.entry(key)
	if t.grantNow(l, key, m, id, prio) {
		return true
	}
	// Wound younger incompatible holders.
	if t.Wound != nil {
		t.callbacks++
		for _, h := range l.holders {
			if h.prio > prio && !(m == Shared && h.mode == Shared) {
				t.Wound(h.id)
			}
		}
		t.callbacks--
	}
	l.queue = append(l.queue, waiter{holder: holder{id: id, prio: prio, mode: m}, grant: grant})
	t.note(t.queued, id, key)
	return false
}

// TryAcquire grants key in mode m to id under the same test as Acquire's
// immediate grant and reports whether it did. A refused request leaves no
// trace: it is not queued and wounds no one.
func (t *Table) TryAcquire(key string, m Mode, id txn.ID, prio uint64) bool {
	return t.grantNow(t.entry(key), key, m, id, prio)
}

// ReleaseAll drops every lock and queued request owned by id, granting any
// now-compatible waiters (their grant callbacks run synchronously, in the
// deterministic order the requests were made).
func (t *Table) ReleaseAll(id txn.ID) {
	keys, queued := t.held[id], t.queued[id]
	delete(t.held, id)
	delete(t.queued, id)
	for i, k := range keys {
		if !slices.Contains(keys[:i], k) {
			t.release(k, id)
		}
	}
	// Also purge queued (never-granted) requests on other keys.
	for i, key := range queued {
		if slices.Contains(keys, key) || slices.Contains(queued[:i], key) {
			continue
		}
		l := t.locks[key]
		l.queue = slices.DeleteFunc(l.queue, func(w waiter) bool { return w.id == id })
		t.grantWaiters(key, l)
	}
	// Only now: the grants above may have drawn lists from t.free.
	for _, ks := range [2][]string{keys, queued} {
		if cap(ks) > 0 {
			t.free = append(t.free, ks[:0])
		}
	}
}

func (t *Table) release(key string, id txn.ID) {
	l := t.locks[key]
	l.holders = slices.DeleteFunc(l.holders, func(h holder) bool { return h.id == id })
	l.queue = slices.DeleteFunc(l.queue, func(w waiter) bool { return w.id == id })
	t.grantWaiters(key, l)
}

func (t *Table) grantWaiters(key string, l *lock) {
	for len(l.queue) > 0 && compatible(l.holders, l.queue[0].mode) {
		w := l.queue[0]
		l.queue = slices.Delete(l.queue, 0, 1)
		l.holders = append(l.holders, w.holder)
		t.note(t.held, w.id, key)
		if w.grant != nil {
			t.callbacks++
			w.grant()
			t.callbacks--
		}
	}
	if len(l.holders) == 0 && len(l.queue) == 0 && t.callbacks == 0 {
		delete(t.locks, key)
		t.spare = append(t.spare, l)
	}
}

// Holds reports whether id currently holds key.
func (t *Table) Holds(key string, id txn.ID) bool {
	l := t.locks[key]
	return l != nil && slices.ContainsFunc(l.holders, func(h holder) bool { return h.id == id })
}

// Outstanding returns the number of keys with holders or waiters.
func (t *Table) Outstanding() int {
	n := 0
	for _, l := range t.locks {
		if len(l.holders) > 0 || len(l.queue) > 0 {
			n++
		}
	}
	return n
}
