package harness

import (
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/simnet"
)

// localReadTestSpec builds a small local-reads deployment for the safe-time
// tests: the classic WAN, a read-heavy YCSB-T mix, and the "local-reads"
// knob armed.
func localReadTestSpec(t *testing.T, proto string, readRatio float64) ClusterSpec {
	t.Helper()
	spec := ClusterSpec{
		Protocol: proto, Workload: "ycsbt", WorkloadKeys: 300,
		WorkloadParams: map[string]any{"skew": 0.7, "read-ratio": readRatio},
		Shards:         3, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 7,
	}
	spec.SetKnob(proto, "local-reads", true)
	if proto == "2PL+Paxos" || proto == "OCC+Paxos" {
		spec.SetKnob(proto, "vote-timeout", time.Second)
	}
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runWatermarkMonotonic drives load through the named chaos plan while
// sampling every replica's safe-time watermark every 50 ms, failing on any
// decrease not excused by allowReset (crash/reboot wipes a replica's state,
// so ITS watermark may restart from zero; everyone else must stay monotonic
// even while clocks step backwards).
func runWatermarkMonotonic(t *testing.T, proto, plan string, allowReset func(idx int) bool) {
	t.Helper()
	spec := localReadTestSpec(t, proto, 0.9)
	d := Build(spec)
	ApplyPlan(d, spec, plan)
	snap, ok := d.Sys.(protocol.SnapshotReadable)
	if !ok {
		t.Fatalf("%s does not implement protocol.SnapshotReadable", proto)
	}
	last := snap.SafeTimes()
	var sample func()
	sample = func() {
		cur := snap.SafeTimes()
		for i := range cur {
			if cur[i] < last[i] && (allowReset == nil || !allowReset(i)) {
				t.Errorf("%s under %s: replica %d watermark went backwards at %v: %v -> %v",
					proto, plan, i, d.Sim.Now(), last[i], cur[i])
			}
		}
		last = cur
		d.Sim.After(50*time.Millisecond, sample)
	}
	d.Sim.After(50*time.Millisecond, sample)
	RunLoad(d, spec.Gen, LoadSpec{
		RatePerCoord: 100, Outstanding: 100, Duration: 11 * time.Second,
		Seed: 3, LocalReads: true,
	})
}

// TestWatermarkMonotonicUnderClockChaos pins the safe-time invariant that
// everything else rests on: watermarks never move backwards, even when the
// chaos layer steps clocks forward and back (Tiga) or wall time jumps under
// the prepare-low rule (the layered baselines).
func TestWatermarkMonotonicUnderClockChaos(t *testing.T) {
	for _, proto := range []string{"Tiga", "2PL+Paxos"} {
		runWatermarkMonotonic(t, proto, "clock-step", nil)
		runWatermarkMonotonic(t, proto, "ntp-insanity", nil)
	}
}

// TestWatermarkMonotonicUnderCrashReboot allows the crashed replica (the
// leader-crash plan's victim, shard 1 replica 0) to restart from zero but
// holds every surviving replica to strict monotonicity through the crash,
// the view change, and the reboot.
func TestWatermarkMonotonicUnderCrashReboot(t *testing.T) {
	victim := 1*3 + 0 // shard-major index of the leader-crash plan's target
	for _, proto := range []string{"Tiga", "2PL+Paxos"} {
		runWatermarkMonotonic(t, proto, "leader-crash", func(idx int) bool {
			return idx == victim
		})
	}
}

// TestLyingReplicaCaught fault-injects a watermark lie: every replica
// advertises a safe time one second ahead of its real one, so local reads
// are served immediately against stores that have not yet applied writes
// with timestamps below the snapshot. The snapshot-read checker must catch
// the resulting stale reads — this is the test that the checker is not
// vacuous.
func TestLyingReplicaCaught(t *testing.T) {
	type liar interface {
		LieSafeTime(shard, replica int, ahead time.Duration)
	}
	for _, proto := range []string{"Tiga", "2PL+Paxos"} {
		spec := localReadTestSpec(t, proto, 0.6)
		d := Build(spec)
		l, ok := d.Sys.(liar)
		if !ok {
			t.Fatalf("%s system has no LieSafeTime fault hook", proto)
		}
		for sh := 0; sh < spec.Shards; sh++ {
			for r := 0; r < 2*spec.F+1; r++ {
				l.LieSafeTime(sh, r, time.Second)
			}
		}
		res := RunLoad(d, spec.Gen, LoadSpec{
			RatePerCoord: 150, Outstanding: 200, Duration: 8 * time.Second,
			Seed: 11, Check: true, LocalReads: true,
		})
		if len(res.SnapReads) == 0 {
			t.Fatalf("%s: no snapshot-read observations collected", proto)
		}
		if err := checker.SnapshotReads(res.SnapReads, res.Writes); err == nil {
			t.Errorf("%s: every replica lied its watermark 1s ahead, yet the snapshot-read checker found nothing", proto)
		}
	}
}

// TestTigaLocalReadLatency is the headline acceptance check: with a modest
// staleness bound (covering the watermark lag), Tiga serves YCSB-T read-only
// transactions from the nearest replica with a p50 below one WAN OWD (the
// cheapest geo4 cross-region link is 55 ms one way; the coordinator commit
// path costs a full WRTT or more), with the snapshot-read checker armed and
// passing. The watermark is held at the commit point — not release — so it
// lags by the replication round trip (~1 WRTT + the sync-point cadence) and
// the staleness bound must cover that lag for reads to stay wait-free; the
// breakdown experiment measures what tighter bounds cost in SAFETIME wait.
func TestTigaLocalReadLatency(t *testing.T) {
	spec := localReadTestSpec(t, "Tiga", 0.95)
	spec.SetKnob("Tiga", "read-staleness", 400*time.Millisecond)
	d := Build(spec)
	res := RunLoad(d, spec.Gen, LoadSpec{
		RatePerCoord: 150, Outstanding: 200, Duration: 8 * time.Second,
		Seed: 13, Check: true, LocalReads: true,
	})
	if res.Run.Counters.LocalReads == 0 {
		t.Fatal("no read-only transactions took the local path")
	}
	if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
		t.Fatalf("snapshot-read checker: %v", err)
	}
	owd := 55 * time.Millisecond
	if p50 := res.Run.ReadLat.Percentile(50); p50 >= owd {
		t.Errorf("local-read p50 = %v, want < 1 OWD (%v)", p50, owd)
	}
}

// TestReadBelowGCHorizonRestarts is the regression test for a replica
// answering a snapshot read below its own version-GC horizon. Under 5 % loss a
// read can lose its request or reply and be re-driven (every retry-timeout,
// the same snapshot each time) until the horizon — min watermark − staleness −
// 1 s — has passed it; a pruned store answers "not found" there, a silently
// wrong value once the key was rewritten in between. On the PR 12 code this
// run fails the checker ("snapshot read of k0-0 at 2.969646301s returned a
// stale version"); now the replica answers "pruned" and the coordinator
// restarts the read at a fresh snapshot. Thirty keys per shard make every key
// hot enough to have been rewritten, so a wrong answer cannot hide behind a
// never-written key.
func TestReadBelowGCHorizonRestarts(t *testing.T) {
	spec := localReadTestSpec(t, "Tiga", 0.8)
	spec.WorkloadKeys = 30
	spec.Gen = nil
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	spec.SetKnob("Tiga", "version-gc", true)
	spec.Loss = 0.05
	d := Build(spec)
	res := RunLoad(d, spec.Gen, LoadSpec{
		RatePerCoord: 150, Outstanding: 200, Duration: 12 * time.Second,
		Seed: 5, Check: true, LocalReads: true,
	})
	if res.Run.Counters.LocalReads == 0 || res.Run.Counters.Retries == 0 {
		t.Fatalf("vacuous run: %d local reads, %d retries", res.Run.Counters.LocalReads, res.Run.Counters.Retries)
	}
	if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
		t.Fatalf("a replica answered below its GC horizon: %v", err)
	}
}

// TestLocalReadsChaosRowsHonourOpCap: the partition-armed rows resolve the
// outstanding cap through the same operating point as the path rows (they
// used to hard-code 400). With one transaction in flight per coordinator,
// the pre-fault phase cannot outrun the same deployment's strong-read path
// row by more than noise.
func TestLocalReadsChaosRowsHonourOpCap(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"Tiga"},
		Ops: map[string]OpPoint{"Tiga": {Outstanding: 1}}}
	rep := LocalReads(o)
	paths, chaos := rep.Find("localreads/paths"), rep.Find("localreads/wan-partition")
	strong := paths.Column("thpt")[1].Float // rows: coord, local@0, local@50ms, local@200ms
	if paths.Column("path")[1].Str != "local" || strong <= 0 {
		t.Fatalf("unexpected paths table: %+v", paths.Rows)
	}
	if pre := chaos.Column("thpt")[0].Float; pre <= 0 || pre > 2*strong {
		t.Errorf("chaos pre-fault throughput %.0f vs %.0f on the capped path row: the cap did not reach the chaos run", pre, strong)
	}
}

// TestLocalReadSpecDeploysOnTheSelectedTopology: LocalReads and Breakdown stamp
// their tables with the classic topology, so that is where their cells must
// deploy — a spec that names no topology deploys on geo4 whatever -topo says.
func TestLocalReadSpecDeploysOnTheSelectedTopology(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42, Topologies: []string{"us-eu3"}}
	if got := o.localReadSpec("Tiga", 0, true).topology().Name; got != "us-eu3" {
		t.Errorf("-topo us-eu3: the local-read cells deploy on %q", got)
	}
	if got := (Options{}).localReadSpec("Tiga", 0, true).topology().Name; got != simnet.DefaultTopology {
		t.Errorf("default: the local-read cells deploy on %q", got)
	}
}
