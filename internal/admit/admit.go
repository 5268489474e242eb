// Package admit implements coordinator admission control for open-loop
// serving: a bounded in-flight cap with a bounded FIFO wait queue that sheds
// the newcomer on overflow, so overload degrades to bounded-latency shedding instead of
// congestion collapse (unbounded in-flight work amplifying abort/retry storms
// — the failure mode the OCC+Paxos no-fault control rows exhibit).
//
// The gate runs inside the single-threaded simulation event loop, so it needs
// no locking; determinism follows from processing submissions and completions
// in event order.
package admit

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/trace"
	"tiga/internal/txn"
)

// Knobs is the knob schema fragment of admission control. A protocol whose
// coordinators wire a Gate appends it to its own schema and copies the two
// values into Cap and Queue.
var Knobs = protocol.Schema{
	{Name: "admit-cap", Type: protocol.KnobInt, Default: 0,
		Doc: "max admitted in-flight transactions per coordinator (0 = no admission control)"},
	{Name: "admit-queue", Type: protocol.KnobInt, Default: 0,
		Doc: "admission wait-queue depth once admit-cap is reached; overflow is shed"},
}

// Gate bounds one coordinator's in-flight transactions. The zero value (and
// any Cap <= 0) is a disabled gate that passes submissions through untouched,
// so protocols wire it unconditionally without perturbing default behavior.
type Gate struct {
	// Cap is the maximum number of admitted, unfinished transactions;
	// <= 0 disables the gate entirely.
	Cap int
	// Queue is the maximum number of submissions waiting for a slot once
	// Cap is reached; 0 sheds immediately at the cap.
	Queue int
	// Now supplies virtual time for measuring queue waits.
	Now func() time.Duration

	// Sheds counts refused transactions (stats/tests).
	Sheds int64

	inflight int
	queue    []waiter
	// free holds the slots no admitted transaction occupies.
	free []*slot
}

// slot is an admitted transaction's place in the gate, reused by the next one
// once it completes. gen counts the slot's uses, and use n hands the protocol
// the callback fire[n%2]: a completion counts only while its callback is the
// current use's, so a callback that fires again late — its use completed, and
// the slot is idle or taken by the next use — is ignored. (One that fires two
// uses late is not told apart: a protocol completes a transaction once.) Both
// callbacks are bound when the slot is made, so admitting allocates nothing.
type slot struct {
	g      *Gate
	gen    uint64
	done   func(txn.Result) // nil while the slot is idle
	start  func(*txn.Txn, func(txn.Result))
	queued time.Duration
	fire   [2]func(txn.Result)
}

type waiter struct {
	t    *txn.Txn
	done func(txn.Result)
	at   time.Duration
}

// Submit admits, queues, or sheds t. start launches an admitted transaction
// into the protocol; the done callback it receives is its slot's, so that when
// the protocol reports the final outcome the slot is released, the result
// carries the measured queue wait, and the next queued transaction (if any)
// launches. Shed transactions get done(Result{Aborted: true, Shed: true})
// synchronously and never reach the protocol.
func (g *Gate) Submit(t *txn.Txn, done func(txn.Result), start func(*txn.Txn, func(txn.Result))) {
	if g.Cap <= 0 {
		start(t, done)
		return
	}
	if g.inflight < g.Cap {
		g.launch(t, done, 0, start)
		return
	}
	if len(g.queue) < g.Queue {
		g.queue = append(g.queue, waiter{t: t, done: done, at: g.Now()})
		return
	}
	g.Sheds++
	done(txn.Result{Aborted: true, Shed: true})
}

func (g *Gate) launch(t *txn.Txn, done func(txn.Result), queued time.Duration, start func(*txn.Txn, func(txn.Result))) {
	// The admission wait ends here; attribute submit→launch to the queue
	// phase (a no-op when the trace is nil or the gate passed straight
	// through at the same instant).
	t.Trace.Mark(g.Now(), trace.PhaseQueue)
	g.inflight++
	var s *slot
	if n := len(g.free); n > 0 {
		s, g.free = g.free[n-1], g.free[:n-1]
	} else {
		s = &slot{g: g}
		s.fire = [2]func(txn.Result){func(r txn.Result) { s.complete(0, r) }, func(r txn.Result) { s.complete(1, r) }}
	}
	s.done, s.start, s.queued = done, start, queued
	start(t, s.fire[s.gen%2])
}

// complete is the protocol's report through fire[use]: it releases the slot
// exactly once per use, hands the caller the result with its queue wait, and
// launches what the freed capacity admits.
func (s *slot) complete(use uint64, r txn.Result) {
	if s.done == nil || s.gen%2 != use {
		return // a late callback of a use that already completed
	}
	g, done, start := s.g, s.done, s.start
	r.Queued = s.queued
	s.gen++
	s.done, s.start = nil, nil
	g.free = append(g.free, s)
	g.inflight--
	done(r)
	g.drain(start)
}

func (g *Gate) drain(start func(*txn.Txn, func(txn.Result))) {
	for g.inflight < g.Cap && len(g.queue) > 0 {
		w := g.queue[0]
		copy(g.queue, g.queue[1:])
		g.queue = g.queue[:len(g.queue)-1]
		g.launch(w.t, w.done, g.Now()-w.at, start)
	}
}
