package simnet

import (
	"bytes"
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent / refHeap is a container/heap reference implementation with the
// exact comparison the pre-rewrite simulator used: order by (at, seq). The
// specialized 4-ary queue must pop in the identical total order, each event
// with the payload it was pushed with — that equivalence is what keeps every
// golden output byte-identical across the rewrite.
type refEvent struct {
	at  time.Duration
	seq uint64
	ev  event // the payload pushed with (at, seq)
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

// TestEventSizeIsADecision: a sift no longer copies events — it moves their
// 24-byte keys — but every pending event holds a slab slot beside its key, and
// push and pop copy it once each, so both sizes are part of the queue's cost
// and of the live heap a saturated run keeps. The event is 64 bytes (eight
// words, five of them pointers; 80 while it also carried its own at and seq,
// which the key holds now); a change that moves either size should say so here.
func TestEventSizeIsADecision(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("event is %d bytes, not the 64 the queue's cost was measured with", got)
	}
	if got := unsafe.Sizeof(eventKey{}); got != 24 {
		t.Errorf("eventKey is %d bytes, not the 24 a sift was measured moving", got)
	}
}

// queueScript drives the 4-ary queue and the container/heap reference through
// one push/pop script and fails on the first difference. Each byte is an
// operation: a low two bits of 0 pop (when anything is pending), anything else
// pushes an event at one of eight instants — a time domain small enough that
// ties are the rule, the case the seq tie-break exists for — with a payload
// drawn from the byte: a node, a message, a kind, a gate and a body that
// reports which push it came from. Each pop must return the reference's
// (at, seq) and the payload pushed with it, including through slots the queue
// has freed and handed out again, and must leave its slot holding no
// references. The queue is drained at the end.
func queueScript(t *testing.T, script []byte) {
	var q eventQueue
	var ref refHeap
	nodes := []*Node{{}, {}, {}}
	gates := []*uint64{nil, new(uint64)}
	fired := uint64(0)
	seq := uint64(0)
	check := func() {
		k, got := q.pop()
		want := heap.Pop(&ref).(refEvent)
		if k.at != want.at || k.seq != want.seq {
			t.Fatalf("pop = (%v, %d), reference heap = (%v, %d)", k.at, k.seq, want.at, want.seq)
		}
		w := want.ev
		if got.node != w.node || got.msg != w.msg || got.kind != w.kind || got.from != w.from ||
			got.epoch != w.epoch || got.gate != w.gate || got.gseq != w.gseq {
			t.Fatalf("event (%v, %d) popped with payload %+v, pushed with %+v", k.at, k.seq, got, w)
		}
		fired = 0
		got.fn()
		if fired != want.seq {
			t.Fatalf("event (%v, %d) popped with the body of push %d", k.at, k.seq, fired)
		}
		if q.free != k.idx+1 {
			t.Fatalf("popped slot %d is not the head of the free list (%d)", k.idx, q.free)
		}
		if slot := q.ev.At(k.idx); slot.node != nil || slot.fn != nil || slot.msg != nil || slot.gate != nil {
			t.Fatalf("popped slot %d still holds references: %+v", k.idx, *slot)
		}
	}
	for _, b := range script {
		if b&3 == 0 {
			if q.len() > 0 {
				check()
			}
			continue
		}
		seq++
		id := seq
		at := time.Duration(b>>5) * time.Millisecond
		e := event{
			node:  nodes[int(b>>2)%len(nodes)],
			fn:    func() { fired = id },
			msg:   Message(int(b)),
			from:  int32(b & 3),
			epoch: int32(b >> 4),
			kind:  eventKind(b & 3),
			gate:  gates[int(b>>3)&1],
			gseq:  uint64(b),
		}
		q.push(at, seq, e)
		heap.Push(&ref, refEvent{at: at, seq: seq, ev: e})
	}
	for q.len() > 0 {
		check()
	}
	if ref.Len() != 0 {
		t.Fatalf("reference heap has %d leftover events", ref.Len())
	}
}

// TestEventQueueMatchesHeapReference runs queueScript on randomized
// interleaved push/pop workloads: two pushes to each pop, so the longer
// scripts grow the queue past a slab chunk while freed slots are reused all
// along.
func TestEventQueueMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 400
		if trial%10 == 0 {
			n = 4000
		}
		script := make([]byte, n)
		rng.Read(script)
		for i := range script {
			if rng.Intn(3) == 0 {
				script[i] &^= 3 // a pop, a third of the time
			} else if script[i]&3 == 0 {
				script[i] |= 1
			}
		}
		queueScript(t, script)
	}
}

// FuzzEventQueue runs queueScript on arbitrary push/pop scripts.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 5, 0, 0, 0})
	f.Add([]byte{0xff, 0xfd, 0x01, 0x21, 0x41, 0x00, 0x61, 0x00, 0x00, 0xe1})
	f.Add(bytes.Repeat([]byte{0x25, 0x25, 0x24}, 700))
	f.Fuzz(func(t *testing.T, script []byte) { queueScript(t, script) })
}

// TestEventQueueSameInstantFIFO pins the determinism contract at the queue
// level: events pushed for the same instant pop in push order, regardless of
// what else is in flight.
func TestEventQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	const at = 5 * time.Millisecond
	for seq := uint64(1); seq <= 64; seq++ {
		q.push(at, seq, event{})
		// Interleave events at other instants to shuffle the heap shape.
		q.push(time.Duration(seq%7)*time.Millisecond, 1000+seq, event{})
	}
	last := uint64(0)
	for q.len() > 0 {
		e, _ := q.pop()
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
