package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestBuildArrivalValidation pins the failure modes: unknown names name
// poisson, parameters and non-positive rates error.
func TestBuildArrivalValidation(t *testing.T) {
	if _, err := BuildArrival("nosuch", 100, 0, 1, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "poisson") {
		t.Fatalf("unknown-process error %v does not name poisson", err)
	}
	if _, err := BuildArrival("poisson", 100, 0, 1, 0, map[string]any{"nosuch": 1}); err == nil {
		t.Fatal("bad parameter accepted")
	}
	if _, err := BuildArrival("poisson", 0, 0, 1, 0, nil); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// drawGaps collects n poisson inter-arrival gaps walking virtual time
// forward, the way the open-loop driver uses a process.
func drawGaps(t *testing.T, rate float64, seed int64, n int) []time.Duration {
	t.Helper()
	arr, err := BuildArrival("poisson", rate, 0, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]time.Duration, n)
	now := time.Duration(0)
	for i := range gaps {
		gaps[i] = arr.Next(now, rng)
		now += gaps[i]
	}
	return gaps
}

// TestArrivalsDeterministic: the process is a pure function of (seed, now),
// so two walks with the same seed are identical — the property open-loop
// byte-identity across -workers rests on.
func TestArrivalsDeterministic(t *testing.T) {
	a := drawGaps(t, 500, 42, 2000)
	b := drawGaps(t, 500, 42, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPoissonMeanGap: the fixed-rate process averages 1/rate.
func TestPoissonMeanGap(t *testing.T) {
	var sum time.Duration
	gaps := drawGaps(t, 1000, 7, 20000)
	for _, g := range gaps {
		sum += g
	}
	mean := sum / time.Duration(len(gaps))
	want := time.Millisecond
	if mean < want*8/10 || mean > want*12/10 {
		t.Fatalf("poisson mean gap %v, want ≈%v", mean, want)
	}
}
