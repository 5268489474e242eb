package ncc

import (
	"fmt"
	"testing"
	"time"

	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

func build(t *testing.T, replicated bool, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 2, F: 1, Replicated: replicated, Net: net,
		HomeRegion:   simnet.RegionSouthCarolina,
		CoordRegions: []simnet.Region{0, simnet.RegionHongKong},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("n%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	return sim, sys
}

func tx(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("n0-%d", i)).On(0),
		txn.IncrementPiece(fmt.Sprintf("n1-%d", i)).On(1),
	)}
}

func TestCommits(t *testing.T) {
	for _, repl := range []bool{false, true} {
		repl := repl
		name := "NCC"
		if repl {
			name = "NCC+"
		}
		t.Run(name, func(t *testing.T) {
			sim, sys := build(t, repl, 1)
			committed := 0
			for i := 0; i < 8; i++ {
				i := i
				sim.At(time.Duration(50+i*30)*time.Millisecond, func() {
					sys.Submit(i%2, tx(i), func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			sim.Run(5 * time.Second)
			if committed != 8 {
				t.Fatalf("committed %d of 8", committed)
			}
		})
	}
}

// TestRTCGatesConflicts: a conflicting successor's reply is held until the
// predecessor's commit notification arrives, creating the ~1 WRTT gap
// between conflicting transactions (§5.2's NCC analysis).
func TestRTCGatesConflicts(t *testing.T) {
	sim, sys := build(t, false, 2)
	hot := func() *txn.Txn {
		return &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("n0-0").On(0))}
	}
	var lat1, lat2 time.Duration
	// Both from the Hong Kong coordinator (index 1): server round trip is
	// ~200 ms. The second transaction conflicts and is submitted right
	// behind the first, so its reply waits for the first's commit note.
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, hot(), func(r txn.Result) { lat1 = sim.Now() - s })
	})
	sim.At(51*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, hot(), func(r txn.Result) { lat2 = sim.Now() - s })
	})
	sim.Run(3 * time.Second)
	if lat1 == 0 || lat2 == 0 {
		t.Fatal("transactions did not commit")
	}
	// lat2 ≈ lat1 + ~1 WRTT (the RTC gap: commit note must travel back).
	if lat2 < lat1+80*time.Millisecond {
		t.Fatalf("RTC gap missing: lat1=%v lat2=%v", lat1, lat2)
	}
	// Non-conflicting transactions are NOT gated.
	var lat3, lat4 time.Duration
	sim.At(2100*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, tx(3), func(r txn.Result) { lat3 = sim.Now() - s })
	})
	sim.At(2101*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, tx(4), func(r txn.Result) { lat4 = sim.Now() - s })
	})
	sim.Run(5 * time.Second)
	if lat4 > lat3+50*time.Millisecond {
		t.Fatalf("non-conflicting transactions gated: lat3=%v lat4=%v", lat3, lat4)
	}
}

// TestNCCPlusPaysReplication: NCC+ replies only after Paxos replication, so
// its latency strictly exceeds plain NCC's from the same coordinator.
func TestNCCPlusPaysReplication(t *testing.T) {
	lat := func(repl bool) time.Duration {
		sim, sys := build(t, repl, 3)
		var l time.Duration
		sim.At(50*time.Millisecond, func() {
			s := sim.Now()
			sys.Submit(0, tx(0), func(r txn.Result) { l = sim.Now() - s })
		})
		sim.Run(3 * time.Second)
		return l
	}
	plain, plus := lat(false), lat(true)
	if plain == 0 || plus == 0 {
		t.Fatal("no commits")
	}
	if plus < plain+80*time.Millisecond {
		t.Fatalf("NCC+ (%v) should pay ~1 WRTT over NCC (%v)", plus, plain)
	}
}
