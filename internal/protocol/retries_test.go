package protocol_test

import (
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// retrying lists the protocols whose coordinators retry an aborted
// transaction under the max-retries and retry-backoff knobs.
var retrying = []string{"2PL+Paxos", "OCC+Paxos", "Tapir"}

// build assembles proto with the given knobs on two shards and six
// coordinators, two per server region; harness.Build resolves the knobs
// through protocol.Build. 2PL+Paxos aborts by presumed abort, which breaks
// its cross-shard wound-wait cycles, so its vote timeout is cut to 1 s.
func build(proto string, gen workload.Generator, knobs map[string]any) *harness.Deployment {
	spec := harness.ClusterSpec{
		Protocol: proto, Shards: 2, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 2, Seed: 7, Gen: gen,
	}
	if proto == "2PL+Paxos" {
		spec.SetKnob(proto, "vote-timeout", time.Second)
	}
	for k, v := range knobs {
		spec.SetKnob(proto, k, v)
	}
	return harness.Build(spec)
}

// conflict submits one cross-shard increment of the same two hot keys from
// every coordinator at the same instant and returns each coordinator's
// result and latency.
func conflict(t *testing.T, proto string, knobs map[string]any) ([]txn.Result, []time.Duration) {
	t.Helper()
	d := build(proto, workload.NewMicroBench(2, 10, 0), knobs)
	d.Sys.Start()
	n := len(d.CoordRegions)
	res, lat := make([]txn.Result, n), make([]time.Duration, n)
	finished := 0
	d.Sim.At(100*time.Millisecond, func() {
		for c := 0; c < n; c++ {
			tx := &txn.Txn{Pieces: txn.ByShard(
				txn.IncrementPiece(workload.Key(0, 0)).On(0),
				txn.IncrementPiece(workload.Key(1, 0)).On(1),
			)}
			start := d.Sim.Now()
			d.Sys.Submit(c, tx, func(r txn.Result) {
				res[c], lat[c] = r, d.Sim.Now()-start
				finished++
			})
		}
	})
	d.Sim.Run(10 * time.Second)
	if finished != n {
		t.Fatalf("%d of %d conflicting transactions finished", finished, n)
	}
	return res, lat
}

// TestMaxRetriesZeroRetriesNothing: max-retries=0 is a budget of no retries.
// A contended load reports no retry and some aborts, and every one of a set
// of conflicting transactions finishes after its first attempt. The
// constructors used to read a zero budget as "unset" and retry 4 (lockocc) or
// 5 (Tapir) times.
func TestMaxRetriesZeroRetriesNothing(t *testing.T) {
	for _, proto := range retrying {
		t.Run(proto, func(t *testing.T) {
			knobs := map[string]any{"max-retries": 0}
			gen := workload.NewMicroBench(2, 100, 0.9)
			res := harness.RunLoad(build(proto, gen, knobs), gen, harness.LoadSpec{
				RatePerCoord: 100, Outstanding: 20, Warmup: 500 * time.Millisecond,
				Duration: 2 * time.Second, Seed: 3,
			})
			if c := res.Run.Counters; c.Retries != 0 || c.Aborted == 0 {
				t.Errorf("contended load: %d retries, %d aborts of %d; want no retry and some aborts",
					c.Retries, c.Aborted, c.Submitted)
			}
			results, _ := conflict(t, proto, knobs)
			aborted := 0
			for c, r := range results {
				if r.Retries != 0 {
					t.Errorf("coordinator %d: %d retries under max-retries=0", c, r.Retries)
				}
				if r.Aborted {
					aborted++
				}
			}
			if aborted == 0 {
				t.Errorf("no conflicting transaction aborted: %+v", results)
			}
		})
	}
}

// TestZeroRetryBackoffWaitsOnlyTheStagger: retry-backoff=0 retries as soon as
// the abort is known (plus lockocc's presumed-abort stagger, which scales
// with the backoff and so is zero too). A zero backoff must therefore replay
// a 1 ns one to within nanoseconds, where the constructors used to wait out
// a filled-in 25 ms (lockocc) or 20 ms (Tapir) instead.
func TestZeroRetryBackoffWaitsOnlyTheStagger(t *testing.T) {
	for _, proto := range retrying {
		t.Run(proto, func(t *testing.T) {
			zero, zeroLat := conflict(t, proto, map[string]any{"max-retries": 1, "retry-backoff": time.Duration(0)})
			tiny, tinyLat := conflict(t, proto, map[string]any{"max-retries": 1, "retry-backoff": time.Nanosecond})
			retried := 0
			for c := range zero {
				z, n := zero[c], tiny[c]
				if z.OK != n.OK || z.Retries != n.Retries {
					t.Errorf("coordinator %d: ok=%v after %d retries at backoff 0, ok=%v after %d at 1ns",
						c, z.OK, z.Retries, n.OK, n.Retries)
				}
				if d := tinyLat[c] - zeroLat[c]; d < 0 || d > 10*time.Nanosecond {
					t.Errorf("coordinator %d: latency %v at backoff 0, %v at 1ns", c, zeroLat[c], tinyLat[c])
				}
				retried += z.Retries
			}
			if retried == 0 {
				t.Error("no transaction retried: the check saw no backoff")
			}
		})
	}
}
