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
}

type waiter struct {
	t    *txn.Txn
	done func(txn.Result)
	at   time.Duration
}

// Depth returns the current queue length (tests).
func (g *Gate) Depth() int { return len(g.queue) }

// Inflight returns the number of admitted, unfinished transactions (tests).
func (g *Gate) Inflight() int { return g.inflight }

// Submit admits, queues, or sheds t. start launches an admitted transaction
// into the protocol; the done callback it receives is wrapped so that when
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
	released := false
	start(t, func(r txn.Result) {
		// Protocol retries reuse the wrapped callback, so release the
		// slot exactly once even if done were ever invoked again.
		if !released {
			released = true
			g.inflight--
		}
		r.Queued = queued
		done(r)
		g.drain(start)
	})
}

func (g *Gate) drain(start func(*txn.Txn, func(txn.Result))) {
	for g.inflight < g.Cap && len(g.queue) > 0 {
		w := g.queue[0]
		copy(g.queue, g.queue[1:])
		g.queue = g.queue[:len(g.queue)-1]
		g.launch(w.t, w.done, g.Now()-w.at, start)
	}
}
