package metrics

import (
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if p := l.Percentile(50); p < 49*time.Millisecond || p > 51*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := l.Percentile(90); p < 89*time.Millisecond || p > 91*time.Millisecond {
		t.Fatalf("p90 = %v", p)
	}
	if l.Percentile(0) != time.Millisecond || l.Percentile(100) != 100*time.Millisecond {
		t.Fatal("extremes")
	}
	if l.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean = %v", l.Mean())
	}
}

func TestPercentileEmpty(t *testing.T) {
	var l Latency
	if l.Percentile(50) != 0 || l.Mean() != 0 {
		t.Fatal("empty recorder should return 0")
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var l Latency
	l.Add(3 * time.Millisecond)
	l.Add(time.Millisecond)
	_ = l.Percentile(50)
	l.Add(2 * time.Millisecond) // invalidates sort
	if l.Percentile(100) != 3*time.Millisecond {
		t.Fatal("re-sort after Add failed")
	}
}

// TestPercentilePin pins exact percentile outputs over a fixed LCG-shuffled
// sample set, so sort-implementation changes (sort.Slice → slices.Sort) that
// alter results — not just speed — fail loudly.
func TestPercentilePin(t *testing.T) {
	var l Latency
	l.Grow(1000)
	x := uint64(42)
	for i := 0; i < 1000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l.Add(time.Duration(x%1_000_000) * time.Microsecond)
	}
	pins := []struct {
		p    float64
		want time.Duration
	}{
		{0, 607 * time.Microsecond},
		{50, 522102 * time.Microsecond},
		{90, 915936 * time.Microsecond},
		{99, 987411 * time.Microsecond},
		{100, 999594 * time.Microsecond},
	}
	for _, pin := range pins {
		if got := l.Percentile(pin.p); got != pin.want {
			t.Errorf("p%v = %v, want %v", pin.p, got, pin.want)
		}
	}
}

func TestGrowPreservesSamplesAndCapacity(t *testing.T) {
	var l Latency
	l.Add(7 * time.Millisecond)
	l.Grow(100)
	if cap(l.samples)-len(l.samples) < 100 {
		t.Fatalf("Grow(100) left headroom %d", cap(l.samples)-len(l.samples))
	}
	before := cap(l.samples)
	for i := 0; i < 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if cap(l.samples) != before {
		t.Fatal("Adds within grown capacity reallocated")
	}
	if l.Percentile(100) != 99*time.Millisecond || l.Percentile(0) != 0 {
		t.Fatal("samples corrupted by Grow")
	}
}

func TestPhaseLat(t *testing.T) {
	var p PhaseLat
	p.Add([6]time.Duration{100 * time.Millisecond, 0, 20 * time.Millisecond, 0, 40 * time.Millisecond, 10 * time.Millisecond})
	p.Add([6]time.Duration{200 * time.Millisecond, 0, 40 * time.Millisecond, 0, 0, 0})
	if p.Count != 2 {
		t.Fatalf("count %d", p.Count)
	}
	if p.Mean(0) != 150*time.Millisecond || p.Mean(2) != 30*time.Millisecond {
		t.Fatalf("means %v %v", p.Mean(0), p.Mean(2))
	}
	if p.Total() != 410*time.Millisecond {
		t.Fatalf("total %v", p.Total())
	}
	var zero PhaseLat
	if zero.Mean(0) != 0 {
		t.Fatal("zero-count mean")
	}
}

func TestCounters(t *testing.T) {
	c := Counters{Submitted: 200, Committed: 150, Rollbacks: 30}
	if c.CommitRate() != 75 {
		t.Fatalf("commit rate %v", c.CommitRate())
	}
	if c.RollbackRate() != 20 {
		t.Fatalf("rollback rate %v", c.RollbackRate())
	}
	var zero Counters
	if zero.CommitRate() != 0 || zero.RollbackRate() != 0 {
		t.Fatal("zero division")
	}
}

func TestRunAggregation(t *testing.T) {
	r := NewRun()
	r.Start, r.End = 0, 2*time.Second
	r.RecordCommit(500*time.Millisecond, 100*time.Millisecond, "SC", true)
	r.RecordCommit(1500*time.Millisecond, 200*time.Millisecond, "HK", false)
	if r.Throughput() != 1 {
		t.Fatalf("throughput %v", r.Throughput())
	}
	if r.Counters.FastPath != 1 || r.Counters.SlowPath != 1 {
		t.Fatal("path counters")
	}
	if r.ByRegion["SC"].Count() != 1 || r.ByRegion["HK"].Count() != 1 {
		t.Fatal("region split")
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}
