package detock

import "tiga/internal/protocol"

// Detock's deadlock-resolving dependency graph is the most expensive Aux
// component of the evaluated protocols. Its home directories are already
// spread across regions, so rotation (§5.5) changes nothing for it.
func init() {
	protocol.Register("Detock", protocol.CostProfile{Exec: 10, Aux: 5, Rank: 80},
		protocol.Schema{
			{Name: "ddr-scan", Type: protocol.KnobInt, Default: 256, Min: 1,
				Doc: "deadlock-resolution scan window: pending transactions examined per arrival when building the conflict graph"},
		},
		func(ctx *protocol.BuildContext) protocol.System {
			return New(Spec{
				Shards: ctx.Shards, Regions: ctx.Regions, Net: ctx.Net,
				CoordRegions: ctx.CoordRegions, Seed: ctx.SeedStore,
				ExecCost: ctx.ExecCost, GraphCost: ctx.AuxCost,
				DDRScan: ctx.Knobs.Int("ddr-scan"),
			})
		})
}
