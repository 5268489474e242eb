package simnet

import (
	"time"

	"tiga/internal/pool"
)

// eventKind tags what a scheduled event does when it fires. The common cases
// of the simulation hot path — message delivery, node timers, work waiting
// for a busy CPU — are encoded as tagged fields on the event struct and
// dispatched by a switch, so scheduling them allocates no closure; evFunc
// remains as the escape hatch for the rare harness, chaos, and load-generator
// events.
type eventKind uint8

const (
	// evFunc runs fn() — the generic Sim.At/After escape hatch.
	evFunc eventKind = iota
	// evDeliver delivers msg from `from` to `node`: if the node is up and
	// has a handler, the handler runs on the node's CPU (Node.book).
	evDeliver
	// evTimer is a node timer (Node.After, Node.AfterGate): epoch-checked,
	// then fn runs on the node's CPU (Node.book) if the gate is live.
	evTimer
	// evStart is work that waited for the node's CPU to free up: fn, or the
	// handler on msg when fn is nil. It is stale if the node crashed since
	// (epoch mismatch) or, when gated, if the gate moved on.
	evStart
)

// event is what one scheduled occurrence does; when it happens is its key's
// (eventKey). Events live in the queue's slab, where they stay put from push
// to pop: the heap sifts keys, and an event is copied once on the way in and
// once on the way out. It is 64 bytes, one cache line, five of its eight words
// pointers (node, fn, msg's two, gate), so a chunk of 1024 is 64 KB with
// nothing lost to rounding. Every pending event costs its slot and its key,
// so the size is pinned (TestEventSizeIsADecision): a field more is a choice
// to make on purpose.
type event struct {
	node *Node
	fn   func()
	msg  Message
	// from is the sending NodeID of a delivery (narrowed: node ids are
	// slice indices, they cannot overflow int32 in any feasible topology).
	from int32
	// epoch snapshots node.epoch at scheduling time; a mismatch at fire
	// time means the node crashed in between and the event is stale.
	epoch int32
	kind  eventKind
	// gate/gseq gate a timer: the event is live only while *gate still
	// holds gseq (always, when gate is nil). Callers bump the gate to
	// supersede pending timers without scheduling a fresh closure per arm.
	gate *uint64
	gseq uint64
}

// eventKey is what the heap orders, (at, seq), and the number of the event's
// slot in the slab: at is the fire time and seq the global scheduling
// counter, so same-instant events fire in scheduling order.
type eventKey struct {
	at  time.Duration
	seq uint64
	idx uint32
}

// before is the queue's strict total order: time, then scheduling order.
func (k *eventKey) before(o *eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventQueue is a hand-inlined 4-ary min-heap of event keys over a slab of
// events. A 4-ary layout halves the tree depth of a binary heap and keeps each
// node's children on one cache line. The slab never moves an event, so a
// queue that grows copies only its keys; pop zeroes the popped slot — no
// references outlive it — and threads it onto a free list through its gseq
// field (1 + the next free slot's number, 0 at the end), which the next push
// takes first. Steady-state scheduling allocates nothing once the queue has
// reached its high-water mark.
type eventQueue struct {
	keys []eventKey
	ev   pool.Slab[event]
	free uint32 // 1 + the number of the last slot popped; 0 when none is free
}

func (q *eventQueue) len() int { return len(q.keys) }

// min returns the earliest pending time; the queue must be non-empty.
func (q *eventQueue) min() time.Duration { return q.keys[0].at }

// push schedules e at (at, seq).
func (q *eventQueue) push(at time.Duration, seq uint64, e event) {
	var idx uint32
	if q.free != 0 {
		idx = q.free - 1
		q.free = uint32(q.ev.At(idx).gseq)
	} else {
		idx = q.ev.Add()
	}
	*q.ev.At(idx) = e
	k := eventKey{at: at, seq: seq, idx: idx}
	q.keys = append(q.keys, k)
	// Sift the new tail up to its slot.
	keys := q.keys
	i := len(keys) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(&keys[p]) {
			break
		}
		keys[i] = keys[p]
		i = p
	}
	keys[i] = k
}

// pop removes the earliest event and returns it with its key, whose slot is
// free again by then; the queue must be non-empty.
func (q *eventQueue) pop() (eventKey, event) {
	keys := q.keys
	top := keys[0]
	n := len(keys) - 1
	k := keys[n]
	q.keys = keys[:n]
	if n > 0 {
		// Sift the displaced tail key down from the root.
		keys = q.keys
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			last := min(first+4, n)
			m := first
			for c := first + 1; c < last; c++ {
				if keys[c].before(&keys[m]) {
					m = c
				}
			}
			if !keys[m].before(&k) {
				break
			}
			keys[i] = keys[m]
			i = m
		}
		keys[i] = k
	}
	slot := q.ev.At(top.idx)
	e := *slot
	*slot = event{gseq: uint64(q.free)}
	q.free = top.idx + 1
	return top, e
}
