package calvin

import (
	"time"

	"tiga/internal/protocol"
)

// Calvin+ sequences epochs deterministically; its per-replica scheduler and
// lock acquisition dominate per-transaction work. The 10 ms epoch matches the
// paper's configuration.
func init() {
	protocol.Register("Calvin+", protocol.CostProfile{Exec: 9, Rank: 50},
		protocol.Schema{
			{Name: "epoch", Type: protocol.KnobDuration, Default: 10 * time.Millisecond, Min: time.Millisecond,
				Doc: "sequencer epoch length: shorter cuts batching latency, longer amortizes the merge barrier"},
			{Name: "resend-timeout", Type: protocol.KnobDuration, Default: 40 * time.Millisecond,
				Doc: "sequencer batch retransmission: executors stuck at the merge barrier re-request missing region batches after this timeout (0 disables, restoring the pre-PR 5 lossless-link model under which any message loss stalls the sequencer at the first dropped batch; Calvin proper gets the same guarantee by running sequencers through Paxos)"},
		},
		func(ctx *protocol.BuildContext) protocol.System {
			return New(Spec{
				Shards: ctx.Shards, Regions: ctx.Regions, Net: ctx.Net,
				CoordRegions: ctx.CoordRegions, Seed: ctx.SeedStore,
				ExecCost: ctx.ExecCost, Epoch: ctx.Knobs.Duration("epoch"),
				Resend: ctx.Knobs.Duration("resend-timeout"),
			})
		})
}
