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
