package pool

import "testing"

type obj struct{ n int }

func TestReuseLIFO(t *testing.T) {
	f := New[obj]()
	a := f.Get()
	b := f.Get()
	if a == b {
		t.Fatal("distinct Gets returned the same object")
	}
	f.Put(a)
	f.Put(b)
	// LIFO: most recently freed comes back first.
	if got := f.Get(); got != b {
		t.Fatal("expected LIFO reuse of b")
	}
	if got := f.Get(); got != a {
		t.Fatal("expected LIFO reuse of a")
	}
	if f.News != 2 || f.Gets != 4 || f.Idle() != 0 {
		t.Fatalf("News=%d Gets=%d Idle=%d, want 2/4/0", f.News, f.Gets, f.Idle())
	}
	f.Put(a)
	if f.Idle() != 1 {
		t.Fatalf("Idle=%d after one Put, want 1", f.Idle())
	}
}

// TestDoubleRecyclePanics is the satellite pin: with the Check detector
// armed, recycling the same object twice must panic instead of silently
// handing one struct to two owners.
func TestDoubleRecyclePanics(t *testing.T) {
	defer func(prev bool) { Check = prev }(Check)
	Check = true
	f := New[obj]()
	a := f.Get()
	f.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic under pool.Check")
		}
	}()
	f.Put(a)
}

func TestPutForeignObjectPanics(t *testing.T) {
	defer func(prev bool) { Check = prev }(Check)
	Check = true
	f := New[obj]()
	defer func() {
		if recover() == nil {
			t.Fatal("Put of never-checked-out object did not panic")
		}
	}()
	f.Put(&obj{})
}

func TestNilPutIgnored(t *testing.T) {
	f := New[obj]()
	f.Put(nil)
	if f.Get() == nil {
		t.Fatal("Get returned nil after Put(nil)")
	}
}

// TestFreeRefillsInChunks: Gets on an empty list allocate a chunk of freeChunk
// objects at a time, each handed out zero and distinct, and counted one by one
// in News; Check still catches a double Put of a chunk-carved object.
func TestFreeRefillsInChunks(t *testing.T) {
	for _, n := range []int{1, freeChunk - 1, freeChunk, freeChunk + 1, 5*freeChunk + 3} {
		// AllocsPerRun calls the function runs+1 times, each on a new pool.
		const runs = 10
		pools := make([]*Free[obj], 0, runs+1)
		for range runs + 1 {
			pools = append(pools, New[obj]())
		}
		allocs := testing.AllocsPerRun(runs, func() {
			f := pools[0]
			pools = pools[1:]
			for range n {
				f.Get()
			}
		})
		if want := float64((n + freeChunk - 1) / freeChunk); allocs != want {
			t.Errorf("%d Gets on an empty pool: %v allocations, want %v", n, allocs, want)
		}
	}

	f := New[obj]()
	seen := map[*obj]bool{}
	const n = 3*freeChunk + 5
	for range n {
		p := f.Get()
		if *p != (obj{}) {
			t.Fatalf("fresh object %+v, want zero", *p)
		}
		if seen[p] {
			t.Fatal("two Gets returned the same fresh object")
		}
		seen[p] = true
		p.n = 1 // a later fresh object must not see this
	}
	if f.News != n || f.Gets != n || f.Idle() != 0 {
		t.Fatalf("News=%d Gets=%d Idle=%d, want %d/%d/0", f.News, f.Gets, f.Idle(), n, n)
	}
	defer func(prev bool) { Check = prev }(Check)
	Check = true
	c := New[obj]()
	a := c.Get()
	c.Get() // a's chunk neighbour, still checked out
	c.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put of a chunk-carved object did not panic under pool.Check")
		}
	}()
	c.Put(a)
}
