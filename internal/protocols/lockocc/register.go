package lockocc

import (
	"slices"
	"time"

	"tiga/internal/admit"
	"tiga/internal/protocol"
	"tiga/internal/snapread"
)

// The layered baselines pay for a lock manager (2PL) or per-replica
// validation (OCC) on top of Paxos replication, the highest per-transaction
// CPU work in Table 1's calibration.
//
// The vote-timeout default (10 s) is deliberately longer than any experiment
// horizon: the presumed-abort escape hatch exists (breaking cross-shard
// wound-wait cycles and finishing 2PCs across leader reboots) without
// perturbing the steady-state sweeps, which never leave a healthy
// transaction undecided that long. Recovery experiments dial it down.
func init() {
	register("2PL+Paxos", TwoPL, protocol.CostProfile{Exec: 17, Rank: 10})
	register("OCC+Paxos", OCC, protocol.CostProfile{Exec: 18, Rank: 20})
}

// The layered baselines support crash/reboot recovery of any replica, leader
// or follower, through paxos.Replica.Rejoin (the Fig 11 analogue for
// Paxos-backed systems).
var _ protocol.Faultable = (*System)(nil)

func register(name string, cc CC, cost protocol.CostProfile) {
	protocol.Register(name, cost,
		slices.Concat(protocol.Schema{
			{Name: "max-retries", Type: protocol.KnobInt, Default: 4,
				Doc: "coordinator retries after an abort (wound, OCC conflict, or presumed abort) before reporting failure"},
			{Name: "retry-backoff", Type: protocol.KnobDuration, Default: 25 * time.Millisecond,
				Doc: "base backoff before a retry; multiplied by the attempt number"},
			{Name: "vote-timeout", Type: protocol.KnobDuration, Default: 10 * time.Second,
				Doc: "coordinator progress timer per attempt: presumed abort while gathering votes, commit-record re-send after the decision; 0 disables"},
		}, snapread.Knobs, admit.Knobs),
		func(ctx *protocol.BuildContext) protocol.System {
			return New(Spec{
				CC: cc, Shards: ctx.Shards, F: ctx.F, Net: ctx.Net,
				ServerRegion: ctx.ServerRegion, CoordRegions: ctx.CoordRegions,
				Seed: ctx.SeedStore, ExecCost: ctx.ExecCost,
				MaxRetries:    ctx.Knobs.Int("max-retries"),
				RetryBackoff:  ctx.Knobs.Duration("retry-backoff"),
				VoteTimeout:   ctx.Knobs.Duration("vote-timeout"),
				LocalReads:    ctx.Knobs.Bool("local-reads"),
				ReadStaleness: ctx.Knobs.Duration("read-staleness"),
				VersionGC:     ctx.Knobs.Bool("version-gc"),
				AdmitCap:      ctx.Knobs.Int("admit-cap"),
				AdmitQueue:    ctx.Knobs.Int("admit-queue"),
			})
		})
}
