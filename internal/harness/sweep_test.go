package harness

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/report"
	"tiga/internal/workload"
)

// TestSweepSinksRunOnceInOrderOnOwnResult pins the sweep value's contract,
// serial and parallel: every sink runs exactly once, in declaration order,
// with the result of its own cell (the deployment its Setup hook saw), and a
// then-step runs between the sinks declared before and after it.
func TestSweepSinksRunOnceInOrderOnOwnResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sw sweep
		var log []string
		const cells = 6
		built := make([]*Deployment, cells)
		for i := 0; i < cells; i++ {
			run := SpecRun{
				Spec: ClusterSpec{
					Protocol: "Tiga", Shards: 2, F: 1, Clock: clocks.ModelChrony,
					CoordsPerRegion: 1, Seed: int64(i),
					Gen: workload.NewMicroBench(2, 200, 0.5),
				},
				// Later cells finish first under parallel workers.
				Load:           LoadSpec{RatePerCoord: 20, Duration: time.Duration(cells-i) * 200 * time.Millisecond, Seed: 3},
				Setup:          func(d *Deployment) { built[i] = d },
				KeepDeployment: true,
			}
			sw.add(run, func(res *RunResult) {
				if res.Deployment == nil || res.Deployment != built[i] {
					t.Errorf("workers=%d: sink %d received another cell's result", workers, i)
				}
				log = append(log, fmt.Sprintf("sink%d", i))
			})
			if i == 2 {
				sw.then(func() { log = append(log, "then") })
			}
		}
		sw.run(workers)
		want := []string{"sink0", "sink1", "sink2", "then", "sink3", "sink4", "sink5"}
		if !slices.Equal(log, want) {
			t.Errorf("workers=%d: steps ran as %v, want %v", workers, log, want)
		}
	}
}

// TestFig12And13HonourOpCap: the two figures default to 100 outstanding per
// coordinator by design, and -op overrides that like any other default. Runs
// are deterministic, so a cap of one that reaches the cells changes some cell
// and one that does not changes none.
func TestFig12And13HonourOpCap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 12 and Fig 13 twice")
	}
	if pt := goldenOpts().pointCapped(goldenOpts().microSpec("Tiga", 0.5, false, clocks.ModelChrony), 80, 6, 100); pt.Load.Outstanding != 100 {
		t.Fatalf("default cap = %d, want the figures' 100", pt.Load.Outstanding)
	}
	capped := goldenOpts()
	capped.Ops = map[string]OpPoint{"Tiga": {Outstanding: 1}}
	for name, fig := range map[string]func(Options) *report.Report{"fig12": Fig12, "fig13": Fig13} {
		free, one := fig(goldenOpts()).Find(name), fig(capped).Find(name)
		if len(free.Rows) == 0 || reflect.DeepEqual(free.Rows, one.Rows) {
			t.Errorf("%s: -op Tiga=,1 changed no cell of %d rows: the cap did not reach the runs", name, len(free.Rows))
		}
	}
}
