package harness

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/tiga"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// TestStrictSerializabilityStress drives Tiga with a hot-key (high conflict)
// workload across both agreement modes and several clock models, validating
// the paper's core correctness claims on every run:
//   - strict serializability (Theorem C.5): the agreed-timestamp order never
//     contradicts real-time order;
//   - total order (Lemma C.4): serialization timestamps are unique;
//   - exactly-once effects on the leader stores.
func TestStrictSerializabilityStress(t *testing.T) {
	cases := []struct {
		name    string
		rotated bool
		clock   clocks.Model
		skew    float64
		rate    float64
		keys    int
	}{
		// Preventive agreement is LAN-cheap, so hot keys sustain high rates;
		// detective agreement serializes conflicting transactions at
		// 0.5–1 WRTT each (§6), so its hot-key load must stay under the
		// conflict-chain capacity (~1/WRTT per hot key).
		{"preventive/chrony/hot", false, clocks.ModelChrony, 0.99, 60, 40},
		{"preventive/ntpd/hot", false, clocks.ModelNtpd, 0.99, 60, 40},
		{"detective/chrony/hot", true, clocks.ModelChrony, 0.99, 12, 150},
		{"detective/bad-clock/hot", true, clocks.ModelBad, 0.9, 12, 150},
		{"preventive/bad-clock/mixed", false, clocks.ModelBad, 0.5, 60, 40},
	}
	for i, tc := range cases {
		tc := tc
		seed := int64(1000 + i*17)
		t.Run(tc.name, func(t *testing.T) {
			// Tiny keyspace => heavy conflicts; bad clocks => frequent
			// timestamp updates and Case-2/3 agreements.
			gen := workload.NewMicroBench(3, tc.keys, tc.skew)
			spec := ClusterSpec{
				Protocol: "Tiga", Shards: 3, F: 1, Rotated: tc.rotated,
				Clock: tc.clock, CoordsPerRegion: 1, CoordsRemote: 1,
				Seed: seed, Gen: gen,
			}
			d := Build(spec)
			res := RunLoad(d, gen, LoadSpec{
				RatePerCoord: tc.rate, Warmup: 0,
				Duration: 3 * time.Second, Seed: seed + 1, Check: true,
			})
			run := res.Run
			if run.Counters.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if cr := run.Counters.CommitRate(); cr < 80 {
				t.Fatalf("commit rate %.1f%% too low under contention", cr)
			}
			if err := checker.StrictSerializability(res.Commits); err != nil {
				t.Fatalf("STRICT SERIALIZABILITY VIOLATED: %v", err)
			}
			if err := checker.UniqueTimestamps(res.Commits); err != nil {
				t.Fatalf("serialization order not total: %v", err)
			}
			// No committed effect may be lost (in-flight transactions at
			// shutdown can add effects beyond the client-visible count).
			c := d.Sys.(*tiga.Cluster)
			err := res.Counter.VerifyAtLeast(func(key string) int64 {
				var sh, idx int
				fmt.Sscanf(key, "k%d-%d", &sh, &idx)
				return txn.DecodeInt(c.LeaderStore(sh).Get(key))
			})
			if err != nil {
				t.Fatalf("effect mismatch: %v", err)
			}
			if tc.rotated && c.Mode() != tiga.ModeDetective {
				t.Fatal("rotation should force the detective mode")
			}
			t.Logf("%s: %s rollbacks=%d", tc.name, run, c.TotalRollbacks())
		})
	}
}

// TestStrictSerializabilityUnderLeaderFailure repeats the check across a
// leader crash and the ensuing view change: recovered transactions must keep
// their serialization guarantees (Lemmas C.1/C.2).
func TestStrictSerializabilityUnderLeaderFailure(t *testing.T) {
	gen := workload.NewMicroBench(3, 100, 0.9)
	spec := ClusterSpec{
		Protocol: "Tiga", Shards: 3, F: 1,
		Clock: clocks.ModelChrony, CoordsPerRegion: 1, CoordsRemote: 1,
		Seed: 77, Gen: gen,
	}
	d := Build(spec)
	faulty := d.Sys.(protocol.Faultable)
	d.Sim.At(2*time.Second, func() { faulty.KillServer(0, 0) })
	res := RunLoad(d, gen, LoadSpec{
		RatePerCoord: 50, Warmup: 0, Duration: 10 * time.Second,
		Seed: 78, Check: true, TrackSamples: true,
	})
	if res.Run.Counters.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if err := checker.StrictSerializability(res.Commits); err != nil {
		t.Fatalf("strict serializability violated across view change: %v", err)
	}
	if err := checker.UniqueTimestamps(res.Commits); err != nil {
		t.Fatal(err)
	}
	// Progress after the failure and the view change.
	if !slices.ContainsFunc(res.Samples, func(s Sample) bool { return s.At >= 6*time.Second }) {
		t.Fatal("no commits after the leader failure")
	}
}
