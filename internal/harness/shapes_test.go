package harness

import (
	"strings"
	"testing"
	"time"
)

// TestShapes checks the registry without running a load: every shape
// resolves and builds at the benchmark test's scale, a lookup hands out maps
// of its own, and malformed references are refused.
func TestShapes(t *testing.T) {
	sweep := 0
	for _, s := range Shapes() {
		if strings.HasPrefix(s.Name, "sweep-nine/") {
			sweep++
		}
		spec, load, err := LookupShape(s.Name + "@0.02")
		if err != nil {
			t.Fatal(err)
		}
		if load.Duration <= 0 || load.Seed != 43 {
			t.Errorf("%s@0.02: window %v, load seed %d", s.Name, load.Duration, load.Seed)
		}
		Build(spec) // panics on an unknown knob or workload parameter
	}
	if n := len(Shapes()); n != 25 || sweep != 9 {
		t.Errorf("%d shapes, %d of them sweep-nine points; want 25 and 9", n, sweep)
	}

	// Scale 1 is the shape as measured; the scale rule floors keys at 1 000.
	spec, load, err := LookupShape("tiga-micro-sat")
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkloadKeys != 100_000 || load.Warmup != 500*time.Millisecond || load.Duration != 2*time.Second {
		t.Errorf("tiga-micro-sat: %d keys, %v warm-up, %v window", spec.WorkloadKeys, load.Warmup, load.Duration)
	}
	spec, load, _ = LookupShape("tiga-micro-sat@0.02")
	if spec.WorkloadKeys != 2000 || load.Warmup != 10*time.Millisecond || load.Duration != 40*time.Millisecond {
		t.Errorf("tiga-micro-sat@0.02: %d keys, %v warm-up, %v window", spec.WorkloadKeys, load.Warmup, load.Duration)
	}
	if spec, _, _ := LookupShape("budget/closed@0.02"); spec.WorkloadKeys != 1000 {
		t.Errorf("budget/closed@0.02: %d keys, want the floor of 1000", spec.WorkloadKeys)
	}

	// Two lookups share no map: what one caller changes the next never sees.
	a, _, _ := LookupShape("tiga-reads-open")
	a.Knobs["Tiga"]["admit-cap"] = 1
	a.WorkloadParams["skew"] = 0.0
	b, _, _ := LookupShape("tiga-reads-open")
	if b.Knobs["Tiga"]["admit-cap"] != 300 || b.WorkloadParams["skew"] != 0.7 {
		t.Errorf("a lookup saw an earlier caller's edits: knobs %v, params %v", b.Knobs["Tiga"], b.WorkloadParams)
	}

	for _, ref := range []string{"nosuch", "budget/closed@0", "budget/closed@-1", "budget/closed@x", "budget/closed@NaN", "budget/closed@Inf", "budget/closed@"} {
		if _, _, err := LookupShape(ref); err == nil {
			t.Errorf("LookupShape(%q) accepted", ref)
		}
	}
}
