package simnet

import (
	"slices"
	"testing"
	"time"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.At(1*time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.At(1*time.Millisecond, func() { got = append(got, 10) }) // same time: FIFO
	s.Run(time.Second)
	want := []int{1, 10, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimAfterAndNow(t *testing.T) {
	s := NewSim(1)
	var at time.Duration
	s.After(5*time.Millisecond, func() {
		at = s.Now()
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run(time.Second)
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
	if s.Now() != time.Second {
		t.Fatalf("Run should advance to the limit; now=%v", s.Now())
	}
}

func TestSimPastEventRunsNow(t *testing.T) {
	s := NewSim(1)
	s.After(time.Millisecond, func() {
		fired := false
		s.At(0, func() { fired = true })
		s.Step()
		if !fired {
			t.Error("past-scheduled event did not run immediately")
		}
	})
	s.Run(time.Second)
}

func twoNodeNet(t *testing.T, cfg Config) (*Sim, *Network, *Node, *Node, *[]time.Duration) {
	t.Helper()
	s := NewSim(42)
	n := NewNetwork(s, cfg)
	var arrivals []time.Duration
	a := n.AddNode(0, nil)
	b := n.AddNode(1, func(from NodeID, msg Message) { arrivals = append(arrivals, s.Now()) })
	return s, n, a, b, &arrivals
}

func TestNetworkDelay(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, 10 * time.Millisecond},
		{10 * time.Millisecond, time.Millisecond},
	}, 0)}
	s, _, a, b, arrivals := twoNodeNet(t, cfg)
	a.Send(b.ID(), "hello")
	s.Run(time.Second)
	if len(*arrivals) != 1 || (*arrivals)[0] != 10*time.Millisecond {
		t.Fatalf("arrivals = %v, want [10ms]", *arrivals)
	}
}

func TestNetworkJitterBounds(t *testing.T) {
	jit := 2 * time.Millisecond
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{0, 10 * time.Millisecond},
		{10 * time.Millisecond, 0},
	}, jit)}
	s, _, a, b, arrivals := twoNodeNet(t, cfg)
	for i := 0; i < 100; i++ {
		a.Send(b.ID(), i)
	}
	s.Run(time.Second)
	if len(*arrivals) != 100 {
		t.Fatalf("got %d arrivals", len(*arrivals))
	}
	for _, at := range *arrivals {
		if at < 10*time.Millisecond || at >= 10*time.Millisecond+jit {
			t.Fatalf("arrival %v outside [10ms, 12ms)", at)
		}
	}
}

func TestNetworkLoss(t *testing.T) {
	cfg := Config{LossRate: 0.5, OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
	s, n, a, b, arrivals := twoNodeNet(t, cfg)
	for i := 0; i < 1000; i++ {
		a.Send(b.ID(), i)
	}
	s.Run(time.Second)
	got := len(*arrivals)
	if got < 350 || got > 650 {
		t.Fatalf("with 50%% loss, got %d of 1000", got)
	}
	if n.Dropped != int64(1000-got) {
		t.Fatalf("dropped counter %d, want %d", n.Dropped, 1000-got)
	}
}

func TestNodeCrashDropsTraffic(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
	s, _, a, b, arrivals := twoNodeNet(t, cfg)
	a.Send(b.ID(), 1)
	s.Run(10 * time.Millisecond)
	b.Crash()
	a.Send(b.ID(), 2)
	s.Run(20 * time.Millisecond)
	b.Restart()
	a.Send(b.ID(), 3)
	s.Run(40 * time.Millisecond)
	if len(*arrivals) != 2 {
		t.Fatalf("crashed node received %d messages, want 2", len(*arrivals))
	}
}

func TestCrashCancelsTimers(t *testing.T) {
	s := NewSim(1)
	n := NewNetwork(s, Config{OWD: SymmetricOWD([][]time.Duration{{0}}, 0)})
	nd := n.AddNode(0, nil)
	fired := 0
	nd.After(5*time.Millisecond, func() { fired++ })
	nd.Every(3*time.Millisecond, func() bool { fired++; return true })
	s.Run(4 * time.Millisecond) // one Every tick fires
	nd.Crash()
	s.Run(100 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("timers fired %d times after crash, want 1", fired)
	}
}

func TestPartition(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
	s, n, a, b, arrivals := twoNodeNet(t, cfg)
	n.BlockPair(a.ID(), b.ID())
	a.Send(b.ID(), 1)
	s.Run(10 * time.Millisecond)
	n.UnblockPair(a.ID(), b.ID())
	a.Send(b.ID(), 2)
	s.Run(20 * time.Millisecond)
	if len(*arrivals) != 1 {
		t.Fatalf("partition leaked: %d arrivals, want 1", len(*arrivals))
	}
}

// TestCPUSerialization: a node is a single-server queue; two messages
// arriving together are serviced back to back, and Work extends occupancy.
func TestCPUSerialization(t *testing.T) {
	s := NewSim(1)
	cfg := Config{DefaultCost: time.Millisecond, OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
	n := NewNetwork(s, cfg)
	var served []time.Duration
	a := n.AddNode(0, nil)
	b := n.AddNode(0, func(from NodeID, msg Message) {
		served = append(served, s.Now())
		if msg == 0 {
			b := n.Node(1)
			b.Work(5 * time.Millisecond)
		}
	})
	_ = b
	a.Send(1, 0)
	a.Send(1, 1)
	a.Send(1, 2)
	s.Run(time.Second)
	if len(served) != 3 {
		t.Fatalf("served %d", len(served))
	}
	// msg0 at 1ms; msg1 must wait base cost (1ms) + Work (5ms) => 7ms;
	// msg2 at 8ms.
	if served[1] != 7*time.Millisecond || served[2] != 8*time.Millisecond {
		t.Fatalf("service times %v; want [1ms 7ms 8ms]", served)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := NewSim(77)
		n := NewNetwork(s, GeoConfig(time.Millisecond, 0.1))
		var arrivals []time.Duration
		a := n.AddNode(RegionSouthCarolina, nil)
		n.AddNode(RegionHongKong, func(from NodeID, msg Message) { arrivals = append(arrivals, s.Now()) })
		for i := 0; i < 50; i++ {
			a.Send(1, i)
		}
		s.Run(time.Second)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic arrival count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGeoConfigSymmetry(t *testing.T) {
	n := NewNetwork(NewSim(1), GeoConfig(0, 0))
	for a := Region(0); a < NumGeoRegions; a++ {
		for b := Region(0); b < NumGeoRegions; b++ {
			if n.BaseOWD(a, b) != n.BaseOWD(b, a) {
				t.Errorf("asymmetric OWD %v<->%v", RegionName(a), RegionName(b))
			}
		}
		if n.BaseOWD(a, a) != LANDelay {
			t.Errorf("intra-region OWD for %v = %v, want %v", RegionName(a), n.BaseOWD(a, a), LANDelay)
		}
	}
	// The paper: cross-region delays range from tens to ~150 ms.
	for a := Region(0); a < NumGeoRegions; a++ {
		for b := Region(0); b < NumGeoRegions; b++ {
			if a == b {
				continue
			}
			d := n.BaseOWD(a, b)
			if d < 50*time.Millisecond || d > 160*time.Millisecond {
				t.Errorf("OWD %v->%v = %v outside the paper's range", RegionName(a), RegionName(b), d)
			}
		}
	}
}

// TestRegionPartition: messages crossing a region partition are dropped (and
// counted), intra-set and third-party traffic is unaffected, and traffic
// flows again after HealRegions — the contract the chaos layer's
// wan-partition plan is built on.
func TestRegionPartition(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond, time.Millisecond},
	}, 0)}
	s := NewSim(42)
	n := NewNetwork(s, cfg)
	got := make(map[NodeID]int)
	mk := func(r Region) *Node {
		nd := n.AddNode(r, nil)
		nd.SetHandler(func(from NodeID, msg Message) { got[nd.ID()]++ })
		return nd
	}
	a, b, c := mk(0), mk(1), mk(2)

	n.PartitionRegions([]Region{0}, []Region{1})
	if !n.Partitioned(0, 1) || !n.Partitioned(1, 0) || n.Partitioned(0, 2) {
		t.Fatalf("partition state wrong: 0-1 should be cut both ways, 0-2 open")
	}
	a.Send(b.ID(), "cut")     // dropped: crosses the partition
	b.Send(a.ID(), "cut too") // dropped: partitions are bidirectional
	a.Send(c.ID(), "open")    // delivered: region 2 is on neither side
	c.Send(b.ID(), "open")    // delivered
	s.Run(10 * time.Millisecond)
	if got[b.ID()] != 1 || got[c.ID()] != 1 || got[a.ID()] != 0 {
		t.Fatalf("during partition: got %v, want only c->b and a->c delivered", got)
	}
	if n.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", n.Dropped)
	}

	n.HealRegions([]Region{0}, []Region{1})
	if n.Partitioned(0, 1) {
		t.Fatal("heal did not remove the partition")
	}
	a.Send(b.ID(), "after heal")
	b.Send(a.ID(), "after heal")
	s.Run(20 * time.Millisecond)
	if got[b.ID()] != 2 || got[a.ID()] != 1 {
		t.Fatalf("after heal: got %v, want both directions delivered", got)
	}
}

// TestDegradeLink: a runtime link fault adds one-way delay and loss to one
// region pair only, and RestoreLink returns the link to its built-in
// distribution.
func TestDegradeLink(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, 10 * time.Millisecond},
		{10 * time.Millisecond, time.Millisecond},
	}, 0)}
	s, n, a, b, arrivals := twoNodeNet(t, cfg)
	n.DegradeLink(0, 1, LinkFault{Extra: Latency{Base: 25 * time.Millisecond}})
	a.Send(b.ID(), 1)
	s.Run(50 * time.Millisecond)
	if len(*arrivals) != 1 || (*arrivals)[0] != 35*time.Millisecond {
		t.Fatalf("degraded arrivals = %v, want [35ms]", *arrivals)
	}
	n.RestoreLink(0, 1)
	a.Send(b.ID(), 2)
	s.Run(100 * time.Millisecond)
	if len(*arrivals) != 2 || (*arrivals)[1] != 60*time.Millisecond {
		t.Fatalf("restored arrivals = %v, want second at 60ms (10ms link)", *arrivals)
	}
}

// TestDegradeLinkLoss: the fault's loss probability drops messages on the
// degraded link and counts them, while other links stay lossless.
func TestDegradeLinkLoss(t *testing.T) {
	cfg := Config{OWD: SymmetricOWD([][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
	}, 0)}
	s, n, a, b, arrivals := twoNodeNet(t, cfg)
	n.DegradeLink(0, 1, LinkFault{Loss: 0.5})
	for i := 0; i < 1000; i++ {
		a.Send(b.ID(), i)
	}
	s.Run(time.Second)
	got := len(*arrivals)
	if got < 350 || got > 650 {
		t.Fatalf("with a 50%% faulty link, got %d of 1000", got)
	}
	if n.Dropped != int64(1000-got) {
		t.Fatalf("dropped counter %d, want %d", n.Dropped, 1000-got)
	}
}

// cpuNode is one node with per-message cost `cost` whose CPU is busy until
// `busy`, on a network of one region.
func cpuNode(cost, busy time.Duration) (*Sim, *Node) {
	s := NewSim(1)
	n := NewNetwork(s, Config{DefaultCost: cost, OWD: SymmetricOWD([][]time.Duration{{time.Millisecond}}, 0)})
	nd := n.AddNode(0, nil)
	nd.Work(busy)
	return s, nd
}

// TestSupersededGatedTimerStillBooksTheCPU: a gated timer whose gate moved on
// before it fired still books one unit of the CPU when it fires, exactly like
// a timer whose callback no-ops, and fn never runs — whether the CPU was
// free at the firing or it had to wait for it.
func TestSupersededGatedTimerStillBooksTheCPU(t *testing.T) {
	for _, busy := range []time.Duration{0, 10 * time.Millisecond} {
		s, nd := cpuNode(5*time.Millisecond, busy)
		var gate uint64
		ran := 0
		nd.AfterGate(time.Millisecond, &gate, 0, func() { ran++ })
		gate++
		var next time.Duration
		nd.After(2*time.Millisecond, func() { next = s.Now() })
		s.Run(time.Second)
		// The gated timer fires at 1ms and starts at max(1ms, busy); the
		// ungated one, firing at 2ms, waits for the 5ms the first booked.
		start := max(time.Millisecond, busy)
		if ran != 0 {
			t.Errorf("busy until %v: superseded timer ran %d times, want 0", busy, ran)
		}
		if next != start+5*time.Millisecond {
			t.Errorf("busy until %v: next timer started at %v, want %v", busy, next, start+5*time.Millisecond)
		}
		if nd.Busy() != start+10*time.Millisecond {
			t.Errorf("busy until %v: CPU booked until %v, want %v", busy, nd.Busy(), start+10*time.Millisecond)
		}
	}
}

// TestGateBumpedBeforeTheDeferredStartSuppressesTheRun: a gated timer fires
// at 1ms behind a CPU busy until 10ms. A bump of the gate at 5ms, after the
// firing and before the deferred start, suppresses the run; a bump at 12ms,
// after the start, does not.
func TestGateBumpedBeforeTheDeferredStartSuppressesTheRun(t *testing.T) {
	for _, tc := range []struct {
		bump time.Duration
		runs int
	}{{5 * time.Millisecond, 0}, {12 * time.Millisecond, 1}} {
		s, nd := cpuNode(5*time.Millisecond, 10*time.Millisecond)
		var gate uint64
		ran := 0
		nd.AfterGate(time.Millisecond, &gate, 0, func() { ran++ })
		s.At(tc.bump, func() { gate++ })
		s.Run(time.Second)
		if ran != tc.runs {
			t.Errorf("gate bumped at %v: fn ran %d times, want %d", tc.bump, ran, tc.runs)
		}
		if nd.Busy() != 15*time.Millisecond {
			t.Errorf("gate bumped at %v: CPU booked until %v, want 15ms", tc.bump, nd.Busy())
		}
	}
}

// TestCrashDropsDeferredGatedStart is TestCrashDropsDeferredHandler for a
// gated timer: a start deferred behind a busy CPU dies with the node, and with
// a crash+restart cycle before it, whose epoch no longer matches.
func TestCrashDropsDeferredGatedStart(t *testing.T) {
	for _, restart := range []bool{false, true} {
		s, nd := cpuNode(5*time.Millisecond, 10*time.Millisecond)
		var gate uint64
		ran := 0
		nd.AfterGate(time.Millisecond, &gate, 0, func() { ran++ })
		s.At(3*time.Millisecond, func() {
			nd.Crash()
			if restart {
				nd.Restart()
			}
		})
		s.Run(time.Second)
		if ran != 0 {
			t.Errorf("restart=%v: deferred gated start ran %d times, want 0", restart, ran)
		}
	}
}

// TestAfterIsAnUngatedAfterGate: After(d, fn) and AfterGate(d, nil, 0, fn) —
// and AfterGate on a gate that never moves — give the same start times,
// same-instant order and CPU bookings, on a node that also serves messages.
func TestAfterIsAnUngatedAfterGate(t *testing.T) {
	trace := func(after func(nd *Node, d time.Duration, fn func())) []time.Duration {
		s := NewSim(1)
		n := NewNetwork(s, Config{DefaultCost: 2 * time.Millisecond, OWD: SymmetricOWD([][]time.Duration{
			{time.Millisecond, time.Millisecond},
			{time.Millisecond, time.Millisecond},
		}, 0)})
		var got []time.Duration
		src := n.AddNode(0, nil)
		dst := n.AddNode(1, func(from NodeID, msg Message) { got = append(got, -s.Now()) })
		for i := 0; i < 4; i++ {
			src.Send(dst.ID(), i)
			after(dst, time.Duration(i)*time.Millisecond/2, func() { got = append(got, s.Now()) })
			after(dst, time.Millisecond, func() { got = append(got, s.Now()) })
		}
		s.Run(time.Second)
		return append(got, dst.Busy())
	}
	var gate uint64
	want := trace(func(nd *Node, d time.Duration, fn func()) { nd.After(d, fn) })
	for name, after := range map[string]func(*Node, time.Duration, func()){
		"nil gate":  func(nd *Node, d time.Duration, fn func()) { nd.AfterGate(d, nil, 0, fn) },
		"live gate": func(nd *Node, d time.Duration, fn func()) { nd.AfterGate(d, &gate, 0, fn) },
	} {
		if got := trace(after); !slices.Equal(got, want) {
			t.Errorf("%s: trace %v, want After's %v", name, got, want)
		}
	}
}

// TestEveryStopsWhenADeferredRunSaysStop pins a known fault of Every: a run
// that had to wait for the CPU reports through `cont`, which the next tick
// resets to true, so a false it returns is lost. With a 5ms node cost and
// the CPU busy until 13ms, the first tick (10ms) defers fn to 13ms, which
// returns false — yet the tick at 20ms runs fn again and books the CPU until
// 25ms. One run, booked until 18ms, is correct. Only paxos.Replica.Rejoin
// returns false (reboots of 2PL+Paxos, OCC+Paxos and NCC+); the fix moves the
// fig11c golden, so it is its own change.
func TestEveryStopsWhenADeferredRunSaysStop(t *testing.T) {
	t.Skip("known fault: Every runs fn again after a deferred run returned false")
	s, nd := cpuNode(5*time.Millisecond, 13*time.Millisecond)
	runs := 0
	nd.Every(10*time.Millisecond, func() bool { runs++; return false })
	s.Run(100 * time.Millisecond)
	if runs != 1 || nd.Busy() != 18*time.Millisecond {
		t.Fatalf("fn ran %d times and the CPU is booked until %v, want 1 run and 18ms", runs, nd.Busy())
	}
}
