package main

import (
	"fmt"
	"time"

	"tiga/internal/checker"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

// The verify pass: the workloads run once more with history recording on
// (LoadSpec.Check) and the committed history is put to the repository's own
// checkers. It is never timed into an end-to-end metric; what it times is the
// checkers themselves (the checker.* rows).

// checkResult is the outcome of one checked repetition.
type checkResult struct {
	problems []string
	// strictNs is the host time of StrictSerializability + UniqueTimestamps
	// per checked commit; snapNs of SnapshotReads per read observation.
	strictNs, snapNs float64
}

// checkWorkload runs one checked repetition of the workload. Every point
// whose protocol agrees on serialization timestamps (protocol.Checkable:
// Tiga) must pass StrictSerializability and UniqueTimestamps; a workload
// that increments counters must find every committed increment in the leader
// stores; a workload with local reads must pass SnapshotReads.
func checkWorkload(w *workloadDef, cfg config, sp *spanLog) checkResult {
	var out checkResult
	points := w.points(cfg.seed, cfg.scale)
	runRep(points, pass{check: true}, sp, "verify "+w.name, func(i int, res *harness.RunResult) {
		spec := points[i].spec
		c, ok := res.Deployment.Sys.(protocol.Checkable)
		if !ok {
			return
		}
		fail := func(what string, err error) {
			if err != nil {
				out.problems = append(out.problems, fmt.Sprintf("verify %s/%s: %s: %v", w.name, spec.Protocol, what, err))
			}
		}
		if len(res.Commits) == 0 {
			fail("history", fmt.Errorf("no commit was recorded"))
			return
		}
		start := time.Now()
		fail("strict serializability", checker.StrictSerializability(res.Commits))
		fail("unique timestamps", checker.UniqueTimestamps(res.Commits))
		out.strictNs = float64(time.Since(start)) / float64(len(res.Commits))
		if spec.Workload != "tpcc" { // every write of micro and ycsbt is an increment
			fail("committed effects", verifyEffects(res, c))
		}
		if points[i].load.LocalReads {
			if len(res.SnapReads) == 0 {
				fail("snapshot reads", fmt.Errorf("no local read was observed"))
				return
			}
			start = time.Now()
			fail("snapshot reads", checker.SnapshotReads(res.SnapReads, res.Writes))
			out.snapNs = float64(time.Since(start)) / float64(len(res.SnapReads))
		}
	})
	return out
}

// verifyEffects checks that no committed increment was lost: every key's
// value in its shard's leader store is at least the number of committed
// transactions that wrote it (warm-up and tail commits may add more).
func verifyEffects(res *harness.RunResult, c protocol.Checkable) error {
	return res.Counter.VerifyAtLeast(func(key string) int64 {
		var shard, idx int
		if _, err := fmt.Sscanf(key, "k%d-%d", &shard, &idx); err != nil || key != workload.Key(shard, idx) {
			return -1
		}
		return txn.DecodeInt(c.LeaderStore(shard).Get(key))
	})
}

// chaosResult is the outcome of the fault-injection repetition.
type chaosResult struct {
	problems []string
	// outageMs is the longest gap between two consecutive commits after the
	// fault strikes; postCommitPct the share of completions after the heal
	// that committed.
	outageMs, postCommitPct float64
}

// The leader-crash plan's schedule (internal/chaos): shard 1's leader
// crashes at 5 s and reboots with empty state at 9 s.
const (
	chaosFaultAt = 5 * time.Second
	chaosHealAt  = 9 * time.Second
	chaosLength  = 12 * time.Second
)

// chaosPass runs tiga-micro-sat's deployment at a light fixed rate through
// the leader-crash plan with the checker armed: a fault may cost
// performance, never correctness. The plan's times are fixed, so a reduced
// scale lowers the rate (with a floor), not the length.
func chaosPass(cfg config, sp *spanLog) chaosResult {
	var out chaosResult
	w, _ := findWorkload("tiga-micro-sat")
	pt := w.points(cfg.seed, cfg.scale)[0]
	delete(pt.spec.Knobs["Tiga"], "retry-timeout") // recovery relies on the default retry timer
	rate := 300 * cfg.scale
	if rate > 300 {
		rate = 300
	}
	if rate < 30 {
		rate = 30
	}
	pt.load = harness.LoadSpec{RatePerCoord: rate, Outstanding: 600, Duration: chaosLength,
		Seed: cfg.seed, TrackSamples: true}
	fail := func(what string, err error) {
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("verify chaos leader-crash: %s: %v", what, err))
		}
	}
	runRep([]point{pt}, pass{check: true, chaos: "leader-crash"}, sp, "verify chaos leader-crash",
		func(_ int, res *harness.RunResult) {
			fail("strict serializability", checker.StrictSerializability(res.Commits))
			fail("unique timestamps", checker.UniqueTimestamps(res.Commits))
			fail("committed effects", verifyEffects(res, res.Deployment.Sys.(protocol.Checkable)))
			last, gap := chaosFaultAt, time.Duration(0)
			var commits, aborts float64
			for _, s := range res.Samples { // completion order
				if s.At < chaosFaultAt {
					continue
				}
				if s.At-last > gap {
					gap = s.At - last
				}
				last = s.At
				if s.At >= chaosHealAt {
					commits++
				}
			}
			for _, s := range res.Aborts {
				if s.At >= chaosHealAt {
					aborts++
				}
			}
			if commits == 0 {
				fail("recovery", fmt.Errorf("no commit after the heal at %v", chaosHealAt))
				return
			}
			out.outageMs = ms(gap)
			out.postCommitPct = 100 * commits / (commits + aborts)
		})
	return out
}
