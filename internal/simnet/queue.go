package simnet

import "time"

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

// event is one scheduled occurrence, ordered by (at, seq): seq is the global
// scheduling counter, so same-instant events fire in scheduling order. The
// struct is stored flat in the queue's slice — pushing and popping moves
// values, never boxes them into an interface. It is 80 bytes, five of its ten
// words pointers (node, fn, msg's two, gate): it fit one 64-byte cache line
// until gate and gseq were added, and every sift of the heap copies it whole,
// so its size is pinned (TestEventSizeIsADecision) — a field more is a choice
// to make on purpose.
type event struct {
	at   time.Duration
	seq  uint64
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

// before is the queue's strict total order: time, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a hand-inlined 4-ary min-heap over a flat event slice. A
// 4-ary layout halves the tree depth of a binary heap and keeps each node's
// children on one cache line, and the flat slice doubles as the free list:
// pop vacates a zeroed slot at the tail that the next push reuses, so
// steady-state scheduling allocates nothing once the queue has reached its
// high-water capacity.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// min returns the earliest pending time; the queue must be non-empty.
func (q *eventQueue) min() time.Duration { return q.ev[0].at }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	// Sift the new tail up to its slot.
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	e := ev[n]
	ev[n] = event{} // zero the vacated slot: drop msg/fn/node references
	q.ev = ev[:n]
	if n == 0 {
		return top
	}
	// Sift the displaced tail element down from the root.
	ev = q.ev
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		m := first
		for c := first + 1; c < last; c++ {
			if ev[c].before(&ev[m]) {
				m = c
			}
		}
		if !ev[m].before(&e) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
	return top
}
