package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent / refHeap is a container/heap reference implementation with the
// exact comparison the pre-rewrite simulator used: order by (at, seq). The
// specialized 4-ary queue must pop in the identical total order — that
// equivalence is what keeps every golden output byte-identical across the
// rewrite.
type refEvent struct {
	at  time.Duration
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventSizeIsADecision: the queue stores events by value and every sift
// copies one, so the struct's size is part of the queue's cost. It is 80 bytes
// (ten words, five of them pointers); a change that moves it should say so here.
func TestEventSizeIsADecision(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 80 {
		t.Errorf("event is %d bytes, not the 80 the queue's cost was measured with", got)
	}
}

// TestEventQueueMatchesHeapReference drives the 4-ary queue and the
// container/heap reference through randomized interleaved push/pop workloads
// with heavy timestamp ties and checks every popped (at, seq) pair matches.
func TestEventQueueMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var q eventQueue
		var ref refHeap
		seq := uint64(0)
		check := func() {
			got := q.pop()
			want := heap.Pop(&ref).(refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop = (%v, %d), reference heap = (%v, %d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		for i := 0; i < 400; i++ {
			// A tiny time domain forces same-instant ties, the case the
			// seq tie-break exists for.
			at := time.Duration(rng.Intn(16)) * time.Millisecond
			seq++
			q.push(event{at: at, seq: seq})
			heap.Push(&ref, refEvent{at: at, seq: seq})
			if rng.Intn(3) == 0 {
				check()
			}
		}
		for q.len() > 0 {
			check()
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference heap has %d leftover events", trial, ref.Len())
		}
	}
}

// TestEventQueueSameInstantFIFO pins the determinism contract at the queue
// level: events pushed for the same instant pop in push order, regardless of
// what else is in flight.
func TestEventQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	const at = 5 * time.Millisecond
	for seq := uint64(1); seq <= 64; seq++ {
		q.push(event{at: at, seq: seq})
		// Interleave events at other instants to shuffle the heap shape.
		q.push(event{at: time.Duration(seq%7) * time.Millisecond, seq: 1000 + seq})
	}
	last := uint64(0)
	for q.len() > 0 {
		e := q.pop()
		if e.seq >= 1000 { // filler event
			continue
		}
		if e.at != at {
			t.Fatalf("tracked event %d popped with at=%v, want %v", e.seq, e.at, at)
		}
		if e.seq <= last {
			t.Fatalf("same-instant events out of scheduling order: seq %d after %d", e.seq, last)
		}
		last = e.seq
	}
	if last != 64 {
		t.Fatalf("drained up to seq %d, want 64", last)
	}
}

// TestEventQueueSteadyStateAllocFree is the free-list contract: once the
// queue has hit its high-water capacity, schedule/fire cycles reuse vacated
// slots and allocate nothing.
func TestEventQueueSteadyStateAllocFree(t *testing.T) {
	s := NewSim(1)
	fn := func() {}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1024; i++ {
		s.At(time.Duration(rng.Int63n(int64(time.Second))), fn)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		s.After(time.Duration(rng.Int63n(int64(time.Millisecond))), fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// TestSendSteadyStateAllocFree covers the full message-delivery hot path:
// Send -> tagged deliver event -> handler dispatch must not allocate once
// the queue capacity has warmed up.
func TestSendSteadyStateAllocFree(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)})
	src := n.AddNode(0, nil)
	n.AddNode(1, func(from NodeID, msg Message) {})
	msg := Message(&struct{ x int }{x: 1})
	allocs := testing.AllocsPerRun(2000, func() {
		src.Send(1, msg)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Send+deliver allocates %.1f objects per message, want 0", allocs)
	}
}

// TestRunOnCPUSteadyStateAllocFree covers the node timer path: After
// schedules a timer that runs fn through the node's single-server CPU queue,
// and neither the timer event nor the CPU hand-off may allocate once the
// queue capacity has warmed up.
func TestRunOnCPUSteadyStateAllocFree(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)})
	nd := n.AddNode(0, nil)
	fn := func() {}
	allocs := testing.AllocsPerRun(2000, func() {
		nd.After(time.Microsecond, fn)
		for s.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state After+run allocates %.1f objects per timer, want 0", allocs)
	}
}

// TestCrashDropsDeferredHandler: a message whose handler is queued behind a
// busy CPU dies with the node — the epoch check on the deferred handler-start
// event, which replaced the closure's captured epoch.
func TestCrashDropsDeferredHandler(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, Config{DefaultCost: 5 * time.Millisecond,
		OWD: SymmetricOWD([][]time.Duration{
			{time.Millisecond, time.Millisecond},
			{time.Millisecond, time.Millisecond},
		}, 0)})
	src := n.AddNode(0, nil)
	handled := 0
	dst := n.AddNode(1, func(from NodeID, msg Message) { handled++ })
	// Both messages arrive at 1ms; the first runs immediately and occupies
	// the CPU until 6ms, so the second's handler is deferred to 6ms.
	src.Send(1, "a")
	src.Send(1, "b")
	s.At(3*time.Millisecond, func() { dst.Crash() })
	s.Run(20 * time.Millisecond)
	if handled != 1 {
		t.Fatalf("handled %d messages, want 1 (deferred handler must die with the crash)", handled)
	}

	// A crash+restart cycle before the deferred start must also drop it:
	// the epoch advanced, the reservation belongs to the dead incarnation.
	handled = 0
	dst.Restart()
	s.Run(30 * time.Millisecond)
	src.Send(1, "c")
	src.Send(1, "d")
	s.At(s.Now()+3*time.Millisecond, func() { dst.Crash(); dst.Restart() })
	s.Run(s.Now() + 20*time.Millisecond)
	if handled != 1 {
		t.Fatalf("handled %d messages after crash+restart, want 1", handled)
	}
}
