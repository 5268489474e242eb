package ncc

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/protocol"
	"tiga/internal/simnet"
)

// TestRegisteredPlacement pins where the registered NCC and NCC+ put every
// server replica of four shards, co-located and rotated (§5.5), on three and
// on four server regions: replica r of shard s lives in
// simnet.ServerPlacement's region for (s, r). Four server regions is the
// case a fixed "mod 3" gets wrong: rotated NCC+ puts replicas in region 3.
func TestRegisteredPlacement(t *testing.T) {
	type grid = [][]simnet.Region // [shard][replica]
	for _, c := range []struct {
		proto   string
		regions int
		rotated bool
		want    grid
	}{
		{"NCC", 3, false, grid{{0}, {0}, {0}, {0}}},
		{"NCC", 3, true, grid{{0}, {1}, {2}, {0}}},
		{"NCC", 4, false, grid{{0}, {0}, {0}, {0}}},
		{"NCC", 4, true, grid{{0}, {1}, {2}, {3}}},
		{"NCC+", 3, false, grid{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}},
		{"NCC+", 3, true, grid{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 1, 2}}},
		{"NCC+", 4, false, grid{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}},
		{"NCC+", 4, true, grid{{0, 1, 2}, {1, 2, 3}, {2, 3, 0}, {3, 0, 1}}},
	} {
		t.Run(fmt.Sprintf("%s/%d-regions/rotated=%v", c.proto, c.regions, c.rotated), func(t *testing.T) {
			net := simnet.NewNetwork(simnet.NewSim(1), simnet.GeoConfig(0, 0))
			sys, err := protocol.Build(c.proto, &protocol.BuildContext{
				Net: net, Shards: len(c.want), F: 1, Regions: c.regions,
				ServerRegion: simnet.ServerPlacement(c.regions, c.rotated),
			}, time.Microsecond, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := grid{}
			for _, nodes := range sys.(*System).nodes {
				var row []simnet.Region
				for _, id := range nodes {
					row = append(row, net.Node(id).Region())
				}
				got = append(got, row)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("server regions %v, want %v", got, c.want)
			}
		})
	}
}
