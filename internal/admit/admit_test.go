package admit

import (
	"testing"
	"time"

	"tiga/internal/txn"
)

// fakeProto collects launched transactions so the test controls when each
// completes, standing in for an asynchronous protocol.
type fakeProto struct {
	launched []func(txn.Result)
}

func (f *fakeProto) start(t *txn.Txn, done func(txn.Result)) {
	f.launched = append(f.launched, done)
}

func (f *fakeProto) finish(i int) { f.launched[i](txn.Result{OK: true}) }

func gate(cap, queue int) (*Gate, *time.Duration) {
	now := new(time.Duration)
	return &Gate{Cap: cap, Queue: queue, Now: func() time.Duration { return *now }}, now
}

func submit(g *Gate, p *fakeProto, out *[]txn.Result) {
	g.Submit(&txn.Txn{}, func(r txn.Result) { *out = append(*out, r) }, p.start)
}

// TestDisabledGatePassesThrough: Cap <= 0 must be invisible — straight to the
// protocol, result untouched.
func TestDisabledGatePassesThrough(t *testing.T) {
	g := &Gate{} // zero value: disabled
	p := &fakeProto{}
	var got []txn.Result
	submit(g, p, &got)
	if len(p.launched) != 1 || g.Inflight() != 0 {
		t.Fatalf("disabled gate interfered: launched=%d inflight=%d", len(p.launched), g.Inflight())
	}
	p.finish(0)
	if len(got) != 1 || !got[0].OK || got[0].Queued != 0 || got[0].Shed {
		t.Fatalf("disabled gate altered the result: %+v", got)
	}
}

// TestCapThenQueueThenShed walks the three regimes in order: admit to Cap,
// queue to Queue, shed beyond.
func TestCapThenQueueThenShed(t *testing.T) {
	g, _ := gate(2, 1)
	p := &fakeProto{}
	var got []txn.Result
	for i := 0; i < 4; i++ {
		submit(g, p, &got)
	}
	if g.Inflight() != 2 || g.Depth() != 1 || len(p.launched) != 2 {
		t.Fatalf("inflight=%d depth=%d launched=%d, want 2/1/2", g.Inflight(), g.Depth(), len(p.launched))
	}
	// The 4th submission was shed synchronously.
	if g.Sheds != 1 || len(got) != 1 || !got[0].Shed || !got[0].Aborted || got[0].OK {
		t.Fatalf("shed accounting wrong: sheds=%d results=%+v", g.Sheds, got)
	}
	// Completing one admitted txn drains the queue.
	p.finish(0)
	if g.Inflight() != 2 || g.Depth() != 0 || len(p.launched) != 3 {
		t.Fatalf("drain failed: inflight=%d depth=%d launched=%d", g.Inflight(), g.Depth(), len(p.launched))
	}
}

// TestQueueWaitMeasured: a queued transaction's result carries the virtual
// time it waited; admitted-immediately transactions carry zero.
func TestQueueWaitMeasured(t *testing.T) {
	g, now := gate(1, 1)
	p := &fakeProto{}
	var got []txn.Result
	submit(g, p, &got) // admitted at t=0
	*now = 5 * time.Millisecond
	submit(g, p, &got) // queued at t=5ms
	*now = 30 * time.Millisecond
	p.finish(0) // queued txn launches at t=30ms having waited 25ms
	p.finish(1)
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	if got[0].Queued != 0 {
		t.Fatalf("immediate admission measured queue wait %v", got[0].Queued)
	}
	if got[1].Queued != 25*time.Millisecond {
		t.Fatalf("queued wait = %v, want 25ms", got[1].Queued)
	}
}

// TestSlotReleasedOnce: protocols may invoke the wrapped done more than once
// across internal retries; the slot must release exactly once or the gate
// leaks capacity.
func TestSlotReleasedOnce(t *testing.T) {
	g, _ := gate(1, 0)
	p := &fakeProto{}
	var got []txn.Result
	submit(g, p, &got)
	p.finish(0)
	p.finish(0) // pathological double completion
	if g.Inflight() != 0 {
		t.Fatalf("inflight=%d after double completion, want 0", g.Inflight())
	}
	submit(g, p, &got)
	if g.Inflight() != 1 || len(p.launched) != 2 {
		t.Fatalf("gate wedged after double completion: inflight=%d launched=%d", g.Inflight(), len(p.launched))
	}
}

// TestStaleCallbackFiresLate: a transaction's callback that fires again after
// its slot went to the next transaction neither releases that transaction's
// slot nor reaches the caller twice; the slot is released once per use.
func TestStaleCallbackFiresLate(t *testing.T) {
	g, _ := gate(1, 1)
	p := &fakeProto{}
	var got []txn.Result
	submit(g, p, &got)
	submit(g, p, &got) // queued behind the first
	p.finish(0)        // releases the slot; the second launches into it
	if g.Inflight() != 1 || len(p.launched) != 2 || len(got) != 1 {
		t.Fatalf("after the first completion: inflight=%d launched=%d results=%d, want 1/2/1", g.Inflight(), len(p.launched), len(got))
	}
	p.finish(0) // the first transaction's callback, late
	if g.Inflight() != 1 || len(got) != 1 {
		t.Fatalf("a late callback released the slot's next use: inflight=%d results=%d, want 1/1", g.Inflight(), len(got))
	}
	p.finish(1)
	p.finish(0)
	if g.Inflight() != 0 || len(got) != 2 {
		t.Fatalf("after both completions: inflight=%d results=%d, want 0/2", g.Inflight(), len(got))
	}
}

// TestAdmittingAllocatesNothing: once its slot exists, admitting and
// completing a transaction allocates nothing.
func TestAdmittingAllocatesNothing(t *testing.T) {
	g, _ := gate(4, 0)
	var last func(txn.Result)
	start := func(_ *txn.Txn, done func(txn.Result)) { last = done }
	tx, done := &txn.Txn{}, func(txn.Result) {}
	cycle := func() {
		g.Submit(tx, done, start)
		last(txn.Result{OK: true})
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("admitting a transaction allocates %.0f objects", allocs)
	}
}

// TestZeroQueueShedsAtCap: Queue 0 sheds immediately once the cap is reached.
func TestZeroQueueShedsAtCap(t *testing.T) {
	g, _ := gate(1, 0)
	p := &fakeProto{}
	var got []txn.Result
	submit(g, p, &got)
	submit(g, p, &got)
	if g.Sheds != 1 || g.Depth() != 0 {
		t.Fatalf("sheds=%d depth=%d, want 1/0", g.Sheds, g.Depth())
	}
}
