package janus

import "tiga/internal/protocol"

// Janus tracks dependencies and runs SCC-based deterministic execution; the
// Aux component charges per graph node visited.
func init() {
	protocol.Register("Janus", protocol.CostProfile{Exec: 5, Aux: 3, Rank: 40},
		protocol.Schema{
			{Name: "fast-path", Type: protocol.KnobBool, Default: true,
				Doc: "commit on identical super-quorum dependencies in 2 WRTTs; false forces the accept round (3 WRTTs)"},
		},
		func(ctx *protocol.BuildContext) protocol.System {
			return New(Spec{
				Shards: ctx.Shards, F: ctx.F, Net: ctx.Net,
				ServerRegion: ctx.ServerRegion, CoordRegions: ctx.CoordRegions,
				Seed: ctx.SeedStore, ExecCost: ctx.ExecCost, GraphCost: ctx.AuxCost,
				FastPath: ctx.Knobs.Bool("fast-path"),
			})
		})
}
