package tiga

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/store"
)

// Tiga's consolidated design makes its per-transaction server work the
// cheapest of the evaluated protocols: a timestamp comparison plus
// priority-queue maintenance (the Aux component) instead of lock tables or
// dependency graphs.
//
// The knob defaults mirror DefaultConfig (a unit test pins the equality), so
// building with no overrides reproduces the evaluation configuration.
func init() {
	protocol.Register("Tiga", protocol.CostProfile{Exec: 1, Aux: 3, Rank: 90},
		protocol.Schema{
			{Name: "delta", Type: protocol.KnobDuration, Default: 10 * time.Millisecond,
				Doc: "headroom safety margin Δ added to the measured super-quorum OWD (§3.1)"},
			{Name: "headroom-delta", Type: protocol.KnobDuration, Default: time.Duration(0),
				Doc: "offset added to the estimated headroom, possibly negative (§5.6, Fig 13)"},
			{Name: "zero-headroom", Type: protocol.KnobBool, Default: false,
				Doc: "use the sending time directly as the timestamp (Fig 13's 0-Hdrm baseline)"},
			{Name: "epsilon-bound", Type: protocol.KnobDuration, Default: time.Duration(0),
				Doc: "trusted clock-error bound ε enabling the coordination-free mode (§6); 0 keeps timestamp agreement"},
			{Name: "colocation-threshold", Type: protocol.KnobDuration, Default: 10 * time.Millisecond,
				Doc: "max inter-leader OWD for which the view manager still picks the preventive mode (§3.8)"},
			{Name: "retry-timeout", Type: protocol.KnobDuration, Default: 1200 * time.Millisecond,
				Doc: "coordinator wait before re-submitting a transaction"},
			{Name: "sync-point-every", Type: protocol.KnobDuration, Default: 5 * time.Millisecond,
				Doc: "follower sync-point report interval (§3.7)"},
			{Name: "batch-slow-replies", Type: protocol.KnobBool, Default: false,
				Doc: "Appendix E: followers answer periodic coordinator inquiries instead of per-entry slow replies"},
			{Name: "checkpoint-every", Type: protocol.KnobInt, Default: 2000,
				Doc: "checkpoint position advances every N committed entries (§4): recovery charges replay time only for entries past it; the store image is rebuilt on recovery, never copied on the commit path"},
			{Name: "local-reads", Type: protocol.KnobBool, Default: false,
				Doc: "serve read-only transactions from the nearest replica at 0 WRTT, gated by per-replica safe-time watermarks"},
			{Name: "read-staleness", Type: protocol.KnobDuration, Default: time.Duration(0),
				Doc: "snapshot age for local reads: 0 = strong reads that wait out watermark lag; positive bounds trade staleness for near-zero waits"},
			{Name: "version-gc", Type: protocol.KnobBool, Default: false,
				Doc: "with local-reads: prune committed version history below the min replica watermark − read-staleness, piggybacked on the safe-time tick"},
			{Name: "admit-cap", Type: protocol.KnobInt, Default: 0,
				Doc: "max admitted in-flight transactions per coordinator (0 = no admission control)"},
			{Name: "admit-queue", Type: protocol.KnobInt, Default: 0,
				Doc: "admission wait-queue depth once admit-cap is reached; overflow is shed"},
		},
		func(ctx *protocol.BuildContext) protocol.System {
			cfg := DefaultConfig(ctx.Shards, ctx.F)
			cfg.ExecCost = ctx.ExecCost
			cfg.PQCost = ctx.AuxCost
			cfg.Delta = ctx.Knobs.Duration("delta")
			cfg.HeadroomDelta = ctx.Knobs.Duration("headroom-delta")
			cfg.ZeroHeadroom = ctx.Knobs.Bool("zero-headroom")
			cfg.EpsilonBound = ctx.Knobs.Duration("epsilon-bound")
			cfg.ColocationThreshold = ctx.Knobs.Duration("colocation-threshold")
			cfg.RetryTimeout = ctx.Knobs.Duration("retry-timeout")
			cfg.SyncPointEvery = ctx.Knobs.Duration("sync-point-every")
			cfg.BatchSlowReplies = ctx.Knobs.Bool("batch-slow-replies")
			cfg.CheckpointEvery = ctx.Knobs.Int("checkpoint-every")
			cfg.LocalReads = ctx.Knobs.Bool("local-reads")
			cfg.ReadStaleness = ctx.Knobs.Duration("read-staleness")
			cfg.VersionGC = ctx.Knobs.Bool("version-gc")
			cfg.AdmitCap = ctx.Knobs.Int("admit-cap")
			cfg.AdmitQueue = ctx.Knobs.Int("admit-queue")
			pl := ColocatedPlacement(ctx.CoordRegions)
			if ctx.Rotated {
				pl = RotatedPlacement(ctx.CoordRegions, ctx.Regions)
			}
			// The harness mapping wraps replica ids past the topology's
			// region count (F=2 puts 2F+1=5 replicas on geo4's 4 regions);
			// the canned placements above assume replicas <= regions.
			pl.ServerRegion = ctx.ServerRegion
			return NewCluster(ctx.Net, cfg, pl, ctx.Clocks, ctx.SeedStore)
		})
}

// LeaderStore returns the current leader replica's store for a shard
// (protocol.Checkable).
func (c *Cluster) LeaderStore(shard int) *store.Store {
	return c.Leader(shard).Store()
}
