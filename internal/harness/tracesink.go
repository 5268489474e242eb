package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tiga/internal/trace"
)

// The process-wide trace sink: `tigabench -trace out.json` arms it once, and
// every subsequent run — whichever experiment spawned it, on whatever worker
// — records a span summary here. Collection sorts by a content-derived key,
// so the exported file is byte-identical across -workers settings even
// though runs *finish* in nondeterministic order.
//
// Experiments that want their own tracer (the breakdown experiment) set
// LoadSpec.Trace instead; those summaries stay on the RunResult and are not
// published to the sink.

var (
	traceSinkMu  sync.Mutex
	traceSinkCfg *trace.Config
	traceSink    []*trace.Summary
)

// EnableTracing arms the process-wide trace sink: every run started after
// this call records spans under cfg (a zero Seed defers to each run's load
// seed) and publishes its summary for CollectTraces.
func EnableTracing(cfg trace.Config) {
	traceSinkMu.Lock()
	defer traceSinkMu.Unlock()
	c := cfg
	traceSinkCfg = &c
	traceSink = nil
}

// CollectTraces drains the sink, sorted deterministically (label, then
// summary content), ready for trace.WriteChrome.
func CollectTraces() []*trace.Summary {
	traceSinkMu.Lock()
	out := traceSink
	traceSink = nil
	traceSinkMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return summaryKey(out[i]) < summaryKey(out[j])
	})
	return out
}

// summaryKey derives a total order on summaries from their content alone:
// completion order (which varies with worker scheduling) never leaks into
// the export. Two summaries with equal keys are byte-identical in the
// export, so their relative order is immaterial.
func summaryKey(s *trace.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d|%v", s.Label, s.Begun, s.Count, s.Phase)
	for _, ex := range s.Exemplars {
		fmt.Fprintf(&b, "|%d:%d", ex.Idx, ex.Latency())
	}
	return b.String()
}

// newRunTracer resolves a run's tracer: an explicit LoadSpec.Trace wins and
// stays private to the RunResult; otherwise the armed process-wide sink
// provides the config and the summary is published at seal time. Returns
// (nil, false) — tracing off — when neither is set.
func newRunTracer(d *Deployment, spec *LoadSpec) (*trace.Tracer, bool) {
	label := fmt.Sprintf("%s seed=%d rate=%g", d.Protocol, spec.Seed, spec.RatePerCoord)
	if spec.Arrival != "" {
		label += " arrival=" + spec.Arrival
	}
	if spec.Trace != nil {
		return trace.New(label, *spec.Trace), false
	}
	traceSinkMu.Lock()
	cfg := traceSinkCfg
	traceSinkMu.Unlock()
	if cfg == nil {
		return nil, false
	}
	c := *cfg
	if c.Seed == 0 {
		c.Seed = spec.Seed
	}
	return trace.New(label, c), true
}

// sealTrace finalizes a traced run: the summary lands on the RunResult, and
// sink-armed runs also publish it for CollectTraces.
func sealTrace(res *RunResult, tracer *trace.Tracer, publish bool) {
	if tracer == nil {
		return
	}
	res.Trace = tracer.Summary()
	if publish {
		traceSinkMu.Lock()
		traceSink = append(traceSink, res.Trace)
		traceSinkMu.Unlock()
	}
}
