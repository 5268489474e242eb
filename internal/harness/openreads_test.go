package harness

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/metrics"
)

// TestOpenLoopLocalReadsPinned pins the one combination no golden covers and
// the benchmark's tiga-reads-open workload runs: open-loop Poisson arrivals ×
// local snapshot reads × admission shedding, at test scale, with the
// snapshot-read checker armed. The summary below was recorded from the PR 12
// code, before the read path and the load-driver envelope were merged; every
// figure is a pure function of the seeds, so any difference is a behaviour
// change in the driver, the admission gate or the read path.
func TestOpenLoopLocalReadsPinned(t *testing.T) {
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
