package locks

import (
	"testing"

	"tiga/internal/txn"
)

func id(n uint64) txn.ID { return txn.ID{Coord: 1, Seq: n} }

func TestSharedCompatible(t *testing.T) {
	lt := NewTable()
	if !lt.Acquire("k", Shared, id(1), 1, nil) {
		t.Fatal("first shared lock should grant")
	}
	if !lt.Acquire("k", Shared, id(2), 2, nil) {
		t.Fatal("second shared lock should grant")
	}
	if !lt.Holds("k", id(1)) || !lt.Holds("k", id(2)) {
		t.Fatal("Holds")
	}
}

func TestExclusiveBlocks(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Exclusive, id(1), 1, nil)
	granted := false
	// Younger (higher prio value) waits.
	if lt.Acquire("k", Exclusive, id(2), 2, func() { granted = true }) {
		t.Fatal("conflicting exclusive lock must not grant immediately")
	}
	if granted {
		t.Fatal("grant callback fired too early")
	}
	lt.ReleaseAll(id(1))
	if !granted {
		t.Fatal("waiter not granted after release")
	}
	if !lt.Holds("k", id(2)) {
		t.Fatal("waiter should hold the lock now")
	}
}

func TestWoundWait(t *testing.T) {
	lt := NewTable()
	var wounded []txn.ID
	lt.Wound = func(v txn.ID) { wounded = append(wounded, v) }
	// Younger txn (prio 10) holds; older (prio 1) requests: wound.
	lt.Acquire("k", Exclusive, id(2), 10, nil)
	lt.Acquire("k", Exclusive, id(1), 1, func() {})
	if len(wounded) != 1 || wounded[0] != id(2) {
		t.Fatalf("wounded = %v, want [id(2)]", wounded)
	}
	// Older holds; younger requests: no wound, just wait.
	wounded = nil
	lt2 := NewTable()
	lt2.Wound = func(v txn.ID) { wounded = append(wounded, v) }
	lt2.Acquire("k", Exclusive, id(1), 1, nil)
	lt2.Acquire("k", Exclusive, id(2), 10, func() {})
	if len(wounded) != 0 {
		t.Fatalf("young requester wounded the old holder: %v", wounded)
	}
}

func TestSharedHoldersNotWoundedByOlderShared(t *testing.T) {
	lt := NewTable()
	var wounded []txn.ID
	lt.Wound = func(v txn.ID) { wounded = append(wounded, v) }
	lt.Acquire("k", Shared, id(2), 10, nil)
	lt.Acquire("k", Shared, id(1), 1, nil) // shared-shared compatible
	if len(wounded) != 0 {
		t.Fatalf("shared-shared should not wound: %v", wounded)
	}
}

func TestUpgrade(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Shared, id(1), 1, nil)
	if !lt.Acquire("k", Exclusive, id(1), 1, nil) {
		t.Fatal("sole shared holder should upgrade")
	}
	if lt.Acquire("k", Shared, id(2), 2, func() {}) {
		t.Fatal("upgraded lock should exclude others")
	}
}

func TestReleaseAllPurgesQueuedRequests(t *testing.T) {
	lt := NewTable()
	lt.Acquire("a", Exclusive, id(1), 1, nil)
	fired := false
	lt.Acquire("a", Exclusive, id(2), 2, func() { fired = true })
	// id(2) also holds b.
	lt.Acquire("b", Exclusive, id(2), 2, nil)
	lt.ReleaseAll(id(2))
	// Releasing id(1) must NOT grant the purged waiter.
	lt.ReleaseAll(id(1))
	if fired {
		t.Fatal("purged waiter was granted")
	}
	if lt.Outstanding() != 0 {
		t.Fatalf("%d locks left, want 0", lt.Outstanding())
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Exclusive, id(1), 1, nil)
	var order []uint64
	lt.Acquire("k", Exclusive, id(2), 2, func() { order = append(order, 2) })
	lt.Acquire("k", Exclusive, id(3), 3, func() { order = append(order, 3) })
	lt.ReleaseAll(id(1))
	lt.ReleaseAll(id(2))
	lt.ReleaseAll(id(3))
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("grant order %v, want [2 3]", order)
	}
}

func TestQueuedRequestBlocksNewShared(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Shared, id(1), 1, nil)
	lt.Acquire("k", Exclusive, id(2), 2, func() {})
	// A new shared request must queue behind the waiting exclusive one
	// (no starvation of writers).
	if lt.Acquire("k", Shared, id(3), 3, func() {}) {
		t.Fatal("shared request jumped the exclusive waiter")
	}
}

func TestTryAcquireRefusesAnIncompatibleHolder(t *testing.T) {
	lt := NewTable()
	lt.Acquire("x", Exclusive, id(1), 1, nil)
	if lt.TryAcquire("x", Exclusive, id(2), 2) || lt.TryAcquire("x", Shared, id(2), 2) {
		t.Fatal("granted beside an exclusive holder")
	}
	lt.Acquire("s", Shared, id(1), 1, nil)
	if !lt.TryAcquire("s", Shared, id(2), 2) {
		t.Fatal("shared refused beside a shared holder")
	}
	if lt.TryAcquire("s", Exclusive, id(3), 3) {
		t.Fatal("exclusive granted beside shared holders")
	}
}

// A queued request keeps later ones out, as it does for Acquire: a relock
// waiting behind a holder is not starved by new prepares.
func TestTryAcquireRefusesBehindAQueue(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Shared, id(1), 1, nil)
	lt.Acquire("k", Exclusive, id(2), 2, func() {})
	if lt.TryAcquire("k", Shared, id(3), 3) {
		t.Fatal("shared request jumped the exclusive waiter")
	}
}

func TestTryAcquireNeverWounds(t *testing.T) {
	lt := NewTable()
	var wounded []txn.ID
	lt.Wound = func(v txn.ID) { wounded = append(wounded, v) }
	lt.Acquire("k", Exclusive, id(2), 10, nil)
	if lt.TryAcquire("k", Exclusive, id(1), 1) {
		t.Fatal("older request granted over a younger exclusive holder")
	}
	if len(wounded) != 0 {
		t.Fatalf("TryAcquire wounded %v", wounded)
	}
}

func TestTryAcquireIsReentrant(t *testing.T) {
	lt := NewTable()
	if !lt.TryAcquire("k", Shared, id(1), 1) || !lt.TryAcquire("k", Shared, id(1), 1) {
		t.Fatal("a holder was refused its own shared lock")
	}
	if !lt.TryAcquire("k", Exclusive, id(1), 1) {
		t.Fatal("sole shared holder should upgrade")
	}
	if !lt.TryAcquire("k", Shared, id(1), 1) || !lt.TryAcquire("k", Exclusive, id(1), 1) {
		t.Fatal("an exclusive holder was refused its own lock")
	}
	lt.Acquire("k", Shared, id(2), 2, func() {})
	lt.ReleaseAll(id(1))
	if !lt.Holds("k", id(2)) || lt.Outstanding() != 1 {
		t.Fatal("re-entrant grants were held more than once")
	}
}

func TestTryAcquireRefusalLeavesNoEntry(t *testing.T) {
	lt := NewTable()
	lt.Acquire("k", Exclusive, id(1), 1, nil)
	if lt.TryAcquire("k", Exclusive, id(2), 2) {
		t.Fatal("conflicting try granted")
	}
	if lt.Holds("k", id(2)) || len(lt.held[id(2)]) != 0 || len(lt.queued[id(2)]) != 0 {
		t.Fatal("a refused request left an entry for its transaction")
	}
	lt.ReleaseAll(id(1))
	if lt.Outstanding() != 0 {
		t.Fatalf("%d locks left after the only holder released, want 0", lt.Outstanding())
	}
	if !lt.Acquire("k", Exclusive, id(3), 3, nil) {
		t.Fatal("the refused request blocks a later one")
	}
}

// Once a key has an entry and a released transaction has left its lists,
// locking and releasing allocate nothing: entries, holder arrays and the held
// lists are reused.
func TestSteadyLockingAllocatesNothing(t *testing.T) {
	lt := NewTable()
	keys := []string{"a", "b", "c"}
	n := uint64(0)
	round := func() {
		n++
		for _, k := range keys {
			if !lt.TryAcquire(k, Exclusive, id(n), n) {
				t.Fatal("uncontended try refused")
			}
		}
		lt.Acquire("a", Shared, id(n+1000), n, func() {})
		lt.ReleaseAll(id(n))
		lt.ReleaseAll(id(n + 1000))
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("%.1f allocations per round, want 0", a)
	}
}

// A grant callback that empties the entry its caller is still granting from,
// and then locks and releases another key, must not get that entry handed to
// the other key: an entry recycled twice would be shared by two keys.
func TestGrantCallbackEmptyingItsOwnEntry(t *testing.T) {
	lt := NewTable()
	lt.Acquire("a", Exclusive, id(1), 1, nil)
	lt.Acquire("a", Exclusive, id(2), 2, func() {
		lt.ReleaseAll(id(2))
		lt.Acquire("b", Exclusive, id(3), 3, nil)
		lt.ReleaseAll(id(3))
	})
	lt.ReleaseAll(id(1))
	if !lt.Acquire("c", Exclusive, id(4), 4, nil) || !lt.Acquire("d", Exclusive, id(5), 5, nil) {
		t.Fatal("two free keys are not both granted: they share an entry")
	}
	if lt.Holds("c", id(5)) || lt.Holds("d", id(4)) || lt.Outstanding() != 2 {
		t.Fatal("two keys share an entry")
	}
}
