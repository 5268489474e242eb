// Ticketing: the paper's second motivation for strict serializability (§2).
//
// A booking system sells a fixed inventory of seats. Fairness requires that
// a booking submitted after another completes cannot win a seat the earlier
// one was denied — i.e. the commit order must respect real time. This example
// oversubscribes a small inventory from clients in different regions, then
// checks that (a) no seat was double-sold and (b) the winners' serialization
// order never contradicts real-time order (verified with the repository's
// strict-serializability checker). It exits 1 when either check fails.
//
// The deployment is resolved through the protocol registry and inspected
// only through protocol capabilities: seats are read back via
// protocol.Checkable's leader stores, and the fairness check runs because
// the system advertises agreed serialization timestamps.
//
//	go run ./examples/ticketing
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

const (
	shards = 3
	events = 30 // events (concerts), sharded round-robin
	seats  = 4  // seats per event — heavily oversubscribed
	buyers = 240
)

func seatKey(event, seat int) string { return fmt.Sprintf("seat-%d-%d", event, seat) }
func shardOf(event int) int          { return event % shards }

// inventory seeds each shard's seats (workload.Generator for harness.Build;
// Next is unused because bookings are driven explicitly below).
type inventory struct{}

func (inventory) Seed(shard int, st *store.Store) {
	for e := 0; e < events; e++ {
		if shardOf(e) != shard {
			continue
		}
		for s := 0; s < seats; s++ {
			st.Seed(seatKey(e, s), txn.EncodeInt(0))
		}
	}
}

func (inventory) Next(rng *rand.Rand) workload.Job { return workload.Job{} }

// bookTxn tries to claim a specific seat for a buyer: it succeeds only if
// the seat is free (value 0), writing the buyer id otherwise leaving it.
func bookTxn(event, seat int, buyer int64) *txn.Txn {
	k := seatKey(event, seat)
	return &txn.Txn{Label: "book", Pieces: txn.ByShard(txn.Piece{
		ReadSet: []string{k}, WriteSet: []string{k},
		Exec: txn.Func(func(kv txn.KV) []byte {
			owner := txn.DecodeInt(kv.Get(k))
			if owner != 0 {
				return txn.EncodeInt(-owner) // already sold
			}
			kv.Put(k, txn.EncodeInt(buyer))
			return txn.EncodeInt(buyer)
		}),
	}.On(shardOf(event)))}
}

func main() {
	// Buyers book from every server region plus remote Hong Kong.
	spec := harness.ClusterSpec{
		Protocol: "Tiga", Shards: shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, CoordsRemote: 1, Seed: 23, Gen: inventory{},
	}
	d := harness.Build(spec)
	d.Sys.Start()

	rng := rand.New(rand.NewSource(7))
	var commits []checker.Commit
	won, lost := 0, 0
	for b := 1; b <= buyers; b++ {
		buyer := int64(b)
		d.Sim.At(time.Duration(100+b*8)*time.Millisecond, func() {
			event := rng.Intn(events)
			seat := rng.Intn(seats)
			t := bookTxn(event, seat, buyer)
			start := d.Sim.Now()
			d.Sys.Submit(int(buyer)%len(d.CoordRegions), t, func(r txn.Result) {
				if !r.OK {
					return
				}
				if txn.DecodeInt(r.Ret(shardOf(event))) == buyer {
					won++
				} else {
					lost++
				}
				commits = append(commits, checker.Commit{
					ID: t.ID, TS: r.TS, Submit: start, Complete: d.Sim.Now(),
				})
			})
		})
	}
	d.Sim.Run(8 * time.Second)

	// No double-selling: each seat owned by exactly one buyer (or free).
	// Read the final inventory through the Checkable capability's leader
	// stores rather than any protocol-specific type.
	check, ok := d.Sys.(protocol.Checkable)
	if !ok {
		fmt.Println("deployed protocol exposes no leader stores / timestamps; pick a Checkable one")
		os.Exit(1)
	}
	owners := make(map[int64]int)
	soldSeats := 0
	for e := 0; e < events; e++ {
		st := check.LeaderStore(shardOf(e))
		for s := 0; s < seats; s++ {
			if o := txn.DecodeInt(st.Get(seatKey(e, s))); o != 0 {
				owners[o]++
				soldSeats++
			}
		}
	}
	fmt.Printf("bookings: %d won, %d denied, %d seats sold\n", won, lost, soldSeats)
	if soldSeats != won || won == 0 {
		fmt.Printf("MISMATCH: %d seats sold but %d winners!\n", soldSeats, won)
		os.Exit(1)
	}
	// Fairness: the serialization order respects real time.
	if err := checker.StrictSerializability(commits); err != nil {
		fmt.Println("FAIRNESS VIOLATION:", err)
		os.Exit(1)
	}
	fmt.Println("fairness verified: serialization order respects real-time booking order")
}
