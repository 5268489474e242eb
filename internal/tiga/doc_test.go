package tiga_test

import (
	"fmt"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/tiga"
	"tiga/internal/txn"
)

// Example demonstrates the minimal end-to-end flow: build a simulated
// geo-distributed cluster, submit a multi-shard transaction, and commit it in
// one wide-area round trip.
func Example() {
	sim := simnet.NewSim(1)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(0, 0))
	cluster := tiga.NewCluster(net, tiga.DefaultConfig(2, 1),
		tiga.ColocatedPlacement([]simnet.Region{simnet.RegionSouthCarolina}),
		clocks.NewFactory(clocks.ModelPerfect, time.Minute, 1),
		func(shard int, st *store.Store) {
			st.Seed(fmt.Sprintf("balance-%d", shard), txn.EncodeInt(100))
		})
	cluster.Start()

	sim.At(10*time.Millisecond, func() {
		transfer := &txn.Txn{Pieces: txn.ByShard(
			txn.IncrementPiece("balance-0").On(0),
			txn.IncrementPiece("balance-1").On(1),
		)}
		cluster.Coords[0].Submit(transfer, func(r txn.Result) {
			fmt.Printf("committed=%v fastPath=%v\n", r.OK, r.FastPath)
		})
	})
	sim.Run(time.Second)
	// Output: committed=true fastPath=true
}
