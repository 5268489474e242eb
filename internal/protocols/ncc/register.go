package ncc

import "tiga/internal/protocol"

// NCC serves each shard from one server; NCC+ adds Paxos replication on top.
// Replica r of shard s lives in ctx.ServerRegion(s, r): co-located, every
// server is in South Carolina (region 0); under the §5.5 rotation the servers
// spread across regions.
func init() {
	register("NCC", false, protocol.CostProfile{Exec: 13, Rank: 60})
	register("NCC+", true, protocol.CostProfile{Exec: 13, Rank: 70})
}

// NCC+ supports server crash/reboot recovery through its Paxos layer
// (paxos.Replica.Rejoin, the same path the lockocc baselines use): the
// rebooted server rebuilds its store by re-executing the merged survivor
// log. Plain NCC accepts the fault hooks too, but with nothing replicated a
// reboot loses every pre-crash effect — the unreplicated design's exposure,
// not a recovery.
var _ protocol.Faultable = (*System)(nil)

func register(name string, replicated bool, cost protocol.CostProfile) {
	protocol.Register(name, cost,
		nil,
		func(ctx *protocol.BuildContext) protocol.System {
			return New(Spec{
				Shards: ctx.Shards, F: ctx.F, Net: ctx.Net,
				ServerRegion: ctx.ServerRegion, CoordRegions: ctx.CoordRegions,
				Seed: ctx.SeedStore, ExecCost: ctx.ExecCost,
				Replicated: replicated,
			})
		})
}
