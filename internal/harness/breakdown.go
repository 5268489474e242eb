package harness

import (
	"slices"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/report"
	"tiga/internal/trace"
)

// Breakdown is the observability experiment: per-protocol critical-path
// latency decomposition from txn-lifecycle traces (internal/trace). Every run
// here arms LoadSpec.Trace, so each committed transaction's end-to-end
// latency is split — exactly, by construction — across the coarse buckets:
// message flight (WRTT), admission queueing, future-timestamp headroom
// (plus pq reorder and SAFETIME waits), lock/validation waits, replication,
// and everything else (dispatch, execution, decision, retries).
//
// The point of the table is the structural contrast the paper argues
// qualitatively: Tiga's commit latency is headroom-dominated (the bounded,
// self-tuning price of executing in timestamp order, overlapping the WAN
// flight), while the layered baselines pay for the same serialization in
// lock/validation windows plus an extra replication round — unbounded under
// contention. The read table decomposes the 0-WRTT local-read path, where
// the SAFETIME share measures what the safe-time watermark's lag actually
// costs — including the commit-point (durability) hold on leader watermarks.
func Breakdown(o Options) *report.Report {
	rep := report.New("breakdown")
	topo := o.classicTopology()

	bucketCols := func(lead ...report.Column) []report.Column {
		return append(lead,
			report.Col("mean", "Mean", report.Duration, report.Nanos, 11),
			report.Col("wrtt", "WRTT", report.Duration, report.Nanos, 11),
			report.Col("queue", "Queue", report.Duration, report.Nanos, 10),
			report.Col("headroom", "Headroom", report.Duration, report.Nanos, 11),
			report.Col("lockval", "Lock/Val", report.Duration, report.Nanos, 11),
			report.Col("repl", "Repl", report.Duration, report.Nanos, 11),
			report.Col("other", "Other", report.Duration, report.Nanos, 10),
			report.Col("domshare", "Top share", report.Float, report.Percent, 10).WithPrec(1),
		)
	}
	// bucketRow appends one run's decomposition under the lead cells. A run
	// that committed nothing (or was not traced) renders as a zero row.
	bucketRow := func(tab *report.Table, s *trace.Summary, lead ...report.Cell) {
		if s == nil {
			s = &trace.Summary{}
		}
		var dom trace.Bucket
		for b := trace.Bucket(0); b < trace.Bucket(trace.NumBuckets); b++ {
			if s.Phase[b] > s.Phase[dom] {
				dom = b
			}
		}
		tab.AddRow(append(lead,
			report.Num(float64(s.Count)),
			report.Dur(s.MeanTotal()),
			report.Dur(s.Mean(trace.BucketWRTT)),
			report.Dur(s.Mean(trace.BucketQueue)),
			report.Dur(s.Mean(trace.BucketHeadroom)),
			report.Dur(s.Mean(trace.BucketLockVal)),
			report.Dur(s.Mean(trace.BucketRepl)),
			report.Dur(s.Mean(trace.BucketOther)),
			report.Num(s.Share(dom)),
		)...)
	}
	// instrumented filters the protocols a table's traces decompose through
	// -protocols, leaving the usual remark on the table when none is left.
	instrumented := func(tab *report.Table, set ...string) []string {
		names, remark := o.sweepProtocols(without(protocol.Names(), set...)...)
		if remark != "" {
			tab.Note("%s", remark)
		}
		return names
	}
	// traced prepares one fully-traced run at the experiment's fixed rate and
	// a small outstanding cap. The seed offset is the cell's position in the
	// instrumented set, not among the selected protocols, so a protocol's row
	// does not depend on which others were selected.
	traced := func(spec ClusterSpec, rate float64, seedOffset int64, localReads bool) SpecRun {
		load := o.window(seedOffset)
		load.RatePerCoord, load.LocalReads = rate, localReads
		load.Trace = &trace.Config{Seed: load.Seed}
		return o.cell(spec, OpPoint{Outstanding: 64}, load)
	}
	var sw sweep

	// ---- commit path ----
	// The instrumented protocols: Tiga and the layered baselines share the
	// phase taxonomy; their traces decompose the full commit path.
	tab := rep.Add(&report.Table{
		ID: "breakdown/commit", Gap: true,
		Title: "[commit path] mean per-txn latency by critical-path phase, MicroBench skew 0.5 (exact: buckets sum to end-to-end)",
		Columns: bucketCols(colProtocol,
			report.Col("txns", "Txns", report.Float, report.None, 7).WithPrec(0)),
	})
	o.stamp(tab, topo.Name, "micro", "skew", "0.5", "rate", "150")
	protos := []string{"Tiga", "2PL+Paxos", "OCC+Paxos"}
	selected := instrumented(tab, protos...)
	for i, p := range protos {
		if !slices.Contains(selected, p) {
			continue
		}
		sw.add(traced(o.microSpec(p, 0.5, false, clocks.ModelChrony), 150, 41+int64(i), false), func(res *RunResult) {
			bucketRow(tab, res.Trace, report.Str(p))
		})
	}
	tab.Note("Headroom bucket = future-timestamp wait + pq reorder + SAFETIME; Other = dispatch/exec/decision/retry.")

	// ---- local-read path ----
	// Read-only transactions through the nearest-replica snapshot path. The
	// staleness axis shows the watermark-lag cost at its extremes: strong
	// reads (staleness 0) wait out the full lag — for Tiga leaders, the
	// commit-point hold (replication round trip + sync-point cadence) — and
	// a bounded-staleness read absorbs it into the bound.
	rtab := rep.Add(&report.Table{
		ID: "breakdown/reads", Gap: true,
		Title: "[local-read path] YCSB-T 95% reads via nearest-replica snapshots; Headroom bucket = SAFETIME watermark wait",
		Columns: bucketCols(colProtocol,
			report.Col("staleness", "staleness", report.Duration, report.Nanos, 10),
			report.Col("txns", "Txns", report.Float, report.None, 7).WithPrec(0)),
	})
	o.stamp(rtab, topo.Name, "ycsbt", "read-ratio", "0.95")
	readProtos := []string{"Tiga", "2PL+Paxos"}
	stalenesses := []time.Duration{0, 200 * time.Millisecond}
	selected = instrumented(rtab, readProtos...)
	for i, p := range readProtos {
		if !slices.Contains(selected, p) {
			continue
		}
		for j, st := range stalenesses {
			seedOffset := 71 + int64(i*len(stalenesses)+j)
			sw.add(traced(o.localReadSpec(p, st, true), o.localReadRate(), seedOffset, true), func(res *RunResult) {
				bucketRow(rtab, res.Trace, report.Str(p), report.Dur(st))
			})
		}
	}
	rtab.Note("All txns traced: the 5%% write mix rides the commit path and folds into the means. Strong reads (staleness 0) pay the watermark lag; Tiga leaders hold it at the commit point, so the wait is the replication round trip.")
	sw.run(o.Workers)
	return rep
}
