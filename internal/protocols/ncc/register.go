package ncc

import (
	"tiga/internal/protocol"
	"tiga/internal/simnet"
)

// NCC serves every shard from a single home region (South Carolina); NCC+
// adds Paxos replication on top. Under the §5.5 rotation the homes spread
// across regions instead.
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
			s := Spec{
				Shards: ctx.Shards, F: ctx.F, Net: ctx.Net,
				HomeRegion: simnet.RegionSouthCarolina, CoordRegions: ctx.CoordRegions,
				Seed: ctx.SeedStore, ExecCost: ctx.ExecCost,
				Replicated: replicated,
			}
			if ctx.Rotated {
				regions := ctx.Regions
				s.HomeRegionOf = func(shard int) simnet.Region { return simnet.Region(shard % regions) }
			}
			return New(s)
		})
}
