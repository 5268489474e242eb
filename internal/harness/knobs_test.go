package harness

import (
	"strings"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/tiga"
	"tiga/internal/workload"
)

// TestKnobsReachProtocol verifies the generic ClusterSpec.Knobs plumbing
// lands in the protocol's config: an override set under the running
// protocol's name takes effect, and overrides for other protocols are inert.
func TestKnobsReachProtocol(t *testing.T) {
	spec, _ := microSpec("Tiga", 42)
	spec.SetKnob("Tiga", "retry-timeout", 7*time.Second)
	spec.SetKnob("Tiga", "delta", 20*time.Millisecond)
	spec.SetKnob("Calvin+", "epoch", time.Millisecond) // inert: not the built protocol
	d := Build(spec)
	cfg := d.Sys.(*tiga.Cluster).Cfg
	if cfg.RetryTimeout != 7*time.Second {
		t.Fatalf("retry-timeout knob did not reach the config: %v", cfg.RetryTimeout)
	}
	if cfg.Delta != 20*time.Millisecond {
		t.Fatalf("delta knob did not reach the config: %v", cfg.Delta)
	}
	if cfg.SyncPointEvery != tiga.DefaultConfig(3, 1).SyncPointEvery {
		t.Fatalf("untouched knob lost its default: %v", cfg.SyncPointEvery)
	}
}

// TestBuildRejectsBadKnob pins the failure mode: an unknown knob name (or a
// type mismatch) panics out of Build with the validation error, rather than
// being silently ignored.
func TestBuildRejectsBadKnob(t *testing.T) {
	spec, _ := microSpec("Tiga", 42)
	spec.SetKnob("Tiga", "no-such-knob", 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build accepted an unknown knob")
		}
		if !strings.Contains(strings.ToLower(strings.TrimSpace(toString(r))), "unknown knob") {
			t.Fatalf("panic %v does not name the unknown knob", r)
		}
	}()
	Build(spec)
}

func toString(v any) string {
	if err, ok := v.(error); ok {
		return err.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

// TestOpPointOverrideChangesOnlyThatProtocol is the operating-point
// regression: overriding one protocol's operating point changes that
// protocol's sweep row and leaves every other row byte-identical.
func TestOpPointOverrideChangesOnlyThatProtocol(t *testing.T) {
	protocols := []string{"Tiga", "Janus"}
	run := func(o Options) []*RunResult {
		var runs []SpecRun
		for _, p := range protocols {
			gen := workload.NewMicroBench(3, 2000, 0.5)
			spec := ClusterSpec{
				Protocol: p, Shards: 3, F: 1, Clock: clocks.ModelChrony,
				CoordsPerRegion: 1, CoordsRemote: 1, Seed: 42, Gen: gen,
			}
			runs = append(runs, o.point(spec, 100, 2))
		}
		return RunSpecs(runs, 1)
	}
	base := run(Options{Quick: true})
	override := run(Options{Quick: true, Ops: map[string]OpPoint{
		"Janus": {Outstanding: 1}, // throttle Janus to one in-flight txn per coordinator
	}})
	for i, p := range protocols {
		b, o := base[i].Run, override[i].Run
		same := b.Counters.Committed == o.Counters.Committed && b.Throughput() == o.Throughput()
		if p == "Janus" && same {
			t.Fatalf("Janus operating-point override changed nothing (committed %d)", b.Counters.Committed)
		}
		if p != "Janus" && !same {
			t.Fatalf("%s row changed although only Janus was overridden: %d/%f vs %d/%f",
				p, b.Counters.Committed, b.Throughput(), o.Counters.Committed, o.Throughput())
		}
	}
}

// TestBaselineCrashRecoveryThroughRegistry drives the lockocc Faultable
// implementation the way Fig11Baseline does — through the registry and the
// vote-timeout knob, with no lockocc import: kill the shard-1 leader
// mid-run, reboot it, and require commits to resume afterwards.
func TestBaselineCrashRecoveryThroughRegistry(t *testing.T) {
	spec, gen := microSpec("2PL+Paxos", 42)
	spec.SetKnob("2PL+Paxos", "vote-timeout", 300*time.Millisecond)
	spec.SetKnob("2PL+Paxos", "max-retries", 12)
	d := Build(spec)
	faulty, ok := d.Sys.(protocol.Faultable)
	if !ok {
		t.Fatal("2PL+Paxos does not implement protocol.Faultable")
	}
	killAt, restartAt := time.Second, 2500*time.Millisecond
	d.Sim.At(killAt, func() { faulty.KillServer(1, 0) })
	d.Sim.At(restartAt, func() { faulty.RestartServer(1, 0) })
	res := RunLoad(d, gen, LoadSpec{
		RatePerCoord: 30, Warmup: 0, Duration: 6 * time.Second,
		Seed: 7, TrackSamples: true,
	})
	var pre, post int
	for _, s := range res.Samples {
		if s.At < killAt {
			pre++
		}
		if s.At > restartAt+time.Second {
			post++
		}
	}
	if pre == 0 {
		t.Fatal("no commits before the crash")
	}
	if post == 0 {
		t.Fatalf("no commits after the reboot (total %d)", len(res.Samples))
	}
	t.Logf("pre=%d post=%d commit rate %.1f%%", pre, post, res.Run.Counters.CommitRate())
}

// TestSaturateUsesOpPointRate checks the saturation-rate half of OpPoint at
// the SpecRun level: only the overridden protocol's driving rate changes.
func TestSaturateUsesOpPointRate(t *testing.T) {
	o := Options{Quick: true, Ops: map[string]OpPoint{"2PL+Paxos": {SaturationRate: 750, Outstanding: 120}}}
	specT := o.microSpec("Tiga", 0.5, false, clocks.ModelChrony)
	specL := o.microSpec("2PL+Paxos", 0.5, false, clocks.ModelChrony)
	st := o.saturate(specT, 3000)
	sl := o.saturate(specL, 3000)
	if st.Load.RatePerCoord != 3000 || st.Load.Outstanding != 300 {
		t.Fatalf("Tiga saturation point changed without an override: %+v", st.Load)
	}
	if sl.Load.RatePerCoord != 750 || sl.Load.Outstanding != 120 {
		t.Fatalf("2PL+Paxos operating point not applied: %+v", sl.Load)
	}
}
