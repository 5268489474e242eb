package chaos

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tiga/internal/simnet"
)

func testEnv(seed int64) Env {
	return Env{
		Seed:   seed,
		Shards: 3, Replicas: 3, ServerRegions: 3,
		ServerRegion: func(shard, replica int) simnet.Region { return simnet.Region(replica) },
		Clocks:       17,
		Rand:         rand.New(rand.NewSource(seed)),
	}
}

func TestRegistryDiscovery(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("want at least 6 canned plans, have %d: %v", len(names), names)
	}
	for _, want := range []string{"leader-crash", "leader-kill", "region-outage",
		"wan-partition", "flaky-link", "clock-step", "ntp-insanity"} {
		p, err := Lookup(want)
		if err != nil {
			t.Fatal(err)
		}
		if p.Doc == "" {
			t.Errorf("plan %q has no doc line", want)
		}
		if p.Window.End <= p.Window.Start {
			t.Errorf("plan %q has an empty window", want)
		}
	}
	// Names is sorted (stable CLI listings and error messages).
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// TestPlansDeterministic: instantiating any plan twice against equal
// environments yields the identical event schedule — the property that makes
// every chaos run replayable from its seed.
func TestPlansDeterministic(t *testing.T) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		a := p.Events(testEnv(42))
		b := p.Events(testEnv(42))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %q is not deterministic for a fixed env", name)
		}
		c := p.Events(testEnv(43))
		_ = c // a different seed may or may not change the schedule; it must not panic
	}
}

// TestPlanEventsInsideRun: every canned event fires inside the fig11-family
// horizon and within (or at the edges of) the plan's declared window, so the
// chaos matrix's phase accounting covers every event.
func TestPlanEventsInsideRun(t *testing.T) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		for _, e := range p.Events(testEnv(42)) {
			if e.At < p.Window.Start || e.At > p.Window.End {
				t.Errorf("plan %q: event %v at %v outside window [%v,%v]",
					name, e.Op, e.At, p.Window.Start, p.Window.End)
			}
		}
	}
}

// TestLeaderCrashSchedule pins the schedule the fig11b/c rewrite depends on:
// crash shard 1 replica 0 at 5s, reboot at 9s, in that order.
func TestLeaderCrashSchedule(t *testing.T) {
	p, _ := Lookup("leader-crash")
	evs := p.Events(testEnv(42))
	want := []Event{
		{At: 5 * time.Second, Op: OpCrash, Shard: 1, Replica: 0},
		{At: 9 * time.Second, Op: OpReboot, Shard: 1, Replica: 0},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("leader-crash schedule = %+v, want %+v", evs, want)
	}
	k, _ := Lookup("leader-kill")
	kevs := k.Events(testEnv(42))
	if !reflect.DeepEqual(kevs, want[:1]) {
		t.Fatalf("leader-kill schedule = %+v, want the crash only", kevs)
	}
}

// TestRegionOutageTargetsRegion0: with co-located placement (replica r in
// region r) the outage crashes exactly replica 0 of every shard.
func TestRegionOutageTargetsRegion0(t *testing.T) {
	p, _ := Lookup("region-outage")
	evs := p.Events(testEnv(42))
	crashes := 0
	for _, e := range evs {
		if e.Op == OpCrash {
			crashes++
			if e.Replica != 0 {
				t.Errorf("outage crashed replica %d of shard %d; co-located region 0 is replica 0", e.Replica, e.Shard)
			}
		}
	}
	if crashes != 3 {
		t.Fatalf("outage crashed %d servers, want one per shard (3)", crashes)
	}
}
