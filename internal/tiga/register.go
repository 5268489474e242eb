package tiga

import (
	"slices"
	"time"

	"tiga/internal/admit"
	"tiga/internal/protocol"
	"tiga/internal/snapread"
	"tiga/internal/store"
)

// Tiga's consolidated design makes its per-transaction server work the
// cheapest of the evaluated protocols: a timestamp comparison plus
// priority-queue maintenance (the Aux component) instead of lock tables or
// dependency graphs.
//
// The knob defaults are read from DefaultConfig, the one place Tiga's
// evaluation configuration is declared, so building with no overrides
// reproduces it.
func init() {
	def := DefaultConfig(0, 0)
	protocol.Register("Tiga", protocol.CostProfile{Exec: 1, Aux: 3, Rank: 90},
		slices.Concat(protocol.Schema{
			{Name: "delta", Type: protocol.KnobDuration, Default: def.Delta,
				Doc: "headroom safety margin Δ added to the measured super-quorum OWD (§3.1)"},
			{Name: "headroom-delta", Type: protocol.KnobDuration, Default: def.HeadroomDelta,
				Doc: "offset added to the estimated headroom, possibly negative (§5.6, Fig 13)"},
			{Name: "zero-headroom", Type: protocol.KnobBool, Default: def.ZeroHeadroom,
				Doc: "use the sending time directly as the timestamp (Fig 13's 0-Hdrm baseline)"},
			{Name: "epsilon-bound", Type: protocol.KnobDuration, Default: def.EpsilonBound,
				Doc: "trusted clock-error bound ε enabling the coordination-free mode (§6); 0 keeps timestamp agreement"},
			{Name: "colocation-threshold", Type: protocol.KnobDuration, Default: def.ColocationThreshold,
				Doc: "max inter-leader OWD for which the view manager still picks the preventive mode (§3.8)"},
			{Name: "retry-timeout", Type: protocol.KnobDuration, Default: def.RetryTimeout, Min: time.Millisecond,
				Doc: "coordinator wait before re-submitting a transaction"},
			{Name: "sync-point-every", Type: protocol.KnobDuration, Default: def.SyncPointEvery, Min: time.Millisecond,
				Doc: "follower sync-point report interval (§3.7)"},
			{Name: "batch-slow-replies", Type: protocol.KnobBool, Default: def.BatchSlowReplies,
				Doc: "Appendix E: followers answer periodic coordinator inquiries instead of per-entry slow replies"},
			{Name: "checkpoint-every", Type: protocol.KnobInt, Default: def.CheckpointEvery,
				Doc: "checkpoint position advances every N committed entries (§4), 0 disables: recovery charges replay time only for entries past it, and the store image is rebuilt on recovery, never copied on the commit path"},
		}, snapread.Knobs, admit.Knobs),
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
			return NewCluster(ctx.Net, cfg, Placement{ServerRegion: ctx.ServerRegion, CoordRegions: ctx.CoordRegions},
				ctx.Clocks, ctx.SeedStore)
		})
}

// LeaderStore returns the current leader replica's store for a shard
// (protocol.Checkable).
func (c *Cluster) LeaderStore(shard int) *store.Store {
	return c.Leader(shard).Store()
}
