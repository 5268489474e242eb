package harness

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/metrics"
	"tiga/internal/pool"
)

// TestOpenLoopLocalReadsPinned pins the one combination no golden covers and
// the benchmark's tiga-reads-open workload runs: open-loop Poisson arrivals ×
// local snapshot reads × admission shedding, at test scale, with the
// snapshot-read checker armed. The summary below was recorded from the PR 12
// code, before the read path and the load-driver envelope were merged; every
// figure is a pure function of the seeds, so any difference is a behaviour
// change in the driver, the admission gate or the read path. pool.Check is
// armed: the read path's requests and replies are recycled, and one put back
// twice must fail here as itself, not as a moved figure.
func TestOpenLoopLocalReadsPinned(t *testing.T) {
	pool.Check = true
	defer func() { pool.Check = false }()
	spec := localReadTestSpec(t, "Tiga", 0.95)
	spec.SetKnob("Tiga", "read-staleness", 150*time.Millisecond)
	spec.SetKnob("Tiga", "admit-cap", 12)
	spec.SetKnob("Tiga", "admit-queue", 12)
	d := Build(spec)
	res := RunLoad(d, spec.Gen, LoadSpec{
		Arrival: "poisson", RatePerCoord: 1500, LocalReads: true, Check: true,
		Warmup: 500 * time.Millisecond, Duration: 4 * time.Second, Seed: 17,
	})
	if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
		t.Fatalf("snapshot-read checker: %v", err)
	}
	run := res.Run
	c := run.Counters
	pct := func(name string, l *metrics.Latency) string {
		return fmt.Sprintf("%s n=%d p50=%v p90=%v p99=%v", name, l.Count(),
			l.Percentile(50), l.Percentile(90), l.Percentile(99))
	}
	got := fmt.Sprintf("submitted=%d committed=%d aborted=%d fast=%d slow=%d retries=%d local=%d shed=%d\n%s\n%s\n%s\n%s\nobs=%d writes=%d commits=%d",
		c.Submitted, c.Committed, c.Aborted, c.FastPath, c.SlowPath, c.Retries, c.LocalReads, c.Shed,
		pct("lat", &run.Lat), pct("read", &run.ReadLat), pct("queue", &run.QueueLat), pct("wait", &run.LocalWait),
		len(res.SnapReads), len(res.Writes), len(res.Commits))
	const want = `submitted=24086 committed=21649 aborted=2437 fast=20935 slow=714 retries=0 local=20614 shed=2437
lat n=21649 p50=138.256569ms p90=223.695929ms p99=232.383221ms
read n=20614 p50=137.844661ms p90=223.519755ms p99=230.232522ms
queue n=1035 p50=166.178712ms p90=298.981787ms p99=311.850647ms
wait n=20614 p50=48.66763ms p90=142.768038ms p99=148.316288ms
obs=61842 writes=1076 commits=1035`
	if got != want {
		t.Fatalf("open-loop × local-reads × admission summary moved\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestLocalReadsThroughPartitionWithPoolCheck runs the localreads experiment's
// wan-partition cell — reads re-driven into a cut-off replica, requests queued
// behind a watermark that stops, replies lost in flight — for one protocol of
// each family that serves local reads, with the double-free detector armed and
// the snapshot-read checker passing.
func TestLocalReadsThroughPartitionWithPoolCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 12 s chaos cells; skipped under -short")
	}
	pool.Check = true
	defer func() { pool.Check = false }()
	o := Options{Quick: true, Keys: 800, Seed: 42}
	var sw sweep
	for i, p := range []string{"Tiga", "2PL+Paxos"} {
		cell := o.faultRun(o.localReadSpec(p, 0, true), "wan-partition", OpPoint{Outstanding: 400}, LoadSpec{
			RatePerCoord: o.localReadRate(), Seed: o.Seed + 61 + int64(i), Check: true, LocalReads: true,
		})
		sw.add(cell, func(res *RunResult) {
			c := res.Run.Counters
			if c.LocalReads == 0 || c.Retries == 0 {
				t.Errorf("%s: vacuous cell: %d local reads, %d re-drives", p, c.LocalReads, c.Retries)
			}
			if err := checker.SnapshotReads(res.SnapReads, res.Writes); err != nil {
				t.Errorf("%s: snapshot-read checker: %v", p, err)
			}
		})
	}
	sw.run(1)
}
