// Banking: the paper's first motivation for strict serializability (§2).
//
// A bank shards accounts across regions. Once a withdrawal completes, any
// balance check issued afterwards — from any client, in any region — must
// observe it; under plain serializability the read may be served from a
// stale serialization point and miss it. This example runs concurrent
// cross-shard transfers, audits global conservation of money, and
// demonstrates the real-time-ordering guarantee directly; a failed check exits 1.
//
// Deployments come from the protocol registry: the conservation audit runs
// on every registered protocol (atomic commit is universal), while the
// real-time-ordering demonstration is gated on the protocol.Checkable
// capability — only a strictly serializable system with agreed serialization
// timestamps advertises it.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

const (
	shards         = 3
	accountsPer    = 100
	initialBalance = int64(1000)
	transfers      = 300
)

func acct(shard, i int) string { return fmt.Sprintf("acct-%d-%d", shard, i) }

// accounts seeds every shard's account rows. It satisfies workload.Generator
// so harness.Build can use it; Next is unused because this example drives
// its own transactions.
type accounts struct{}

func (accounts) Seed(shard int, st *store.Store) {
	for i := 0; i < accountsPer; i++ {
		st.Seed(acct(shard, i), txn.EncodeInt(initialBalance))
	}
}

func (accounts) Next(rng *rand.Rand) workload.Job { return workload.Job{} }

// transferTxn atomically moves amount from one account to another, possibly
// across shards (accounts may go negative: an overdraft line; conservation
// still holds because debit and credit commit atomically).
func transferTxn(fs, fa, ts, ta int, amount int64) *txn.Txn {
	from, to := acct(fs, fa), acct(ts, ta)
	t := &txn.Txn{Label: "transfer"}
	if fs == ts {
		t.Pieces = txn.ByShard(addPiece([]string{from, to}, -amount, +amount).On(fs))
	} else {
		t.Pieces = txn.ByShard(addPiece([]string{from}, -amount).On(fs), addPiece([]string{to}, +amount).On(ts))
	}
	return t
}

// addPiece adds deltas[i] to keys[i], in order, and returns the last new balance.
func addPiece(keys []string, deltas ...int64) txn.Piece {
	return txn.Piece{ReadSet: keys, WriteSet: keys, Exec: txn.Func(func(kv txn.KV) []byte {
		var bal int64
		for i, k := range keys {
			bal = txn.DecodeInt(kv.Get(k)) + deltas[i]
			kv.Put(k, txn.EncodeInt(bal))
		}
		return txn.EncodeInt(bal)
	})}
}

// auditTxn reads every account on every shard in one transaction — a
// consistent global snapshot under (strict) serializability.
func auditTxn() *txn.Txn {
	pieces := make([]txn.Piece, shards)
	for s := range pieces {
		keys := make([]string, accountsPer)
		for i := range keys {
			keys[i] = acct(s, i)
		}
		pieces[s] = txn.Piece{
			ReadSet: keys,
			Exec: txn.Func(func(kv txn.KV) []byte {
				var sum int64
				for _, k := range keys {
					sum += txn.DecodeInt(kv.Get(k))
				}
				return txn.EncodeInt(sum)
			}),
		}.On(s)
	}
	return &txn.Txn{Label: "audit", Pieces: txn.ByShard(pieces...)}
}

// runBank drives the transfer load and the closing audit on one registered
// protocol and returns (committed transfers, audited total, audit ok).
func runBank(name string) (committed int, total int64, audited bool) {
	spec := harness.ClusterSpec{
		Protocol: name, Shards: shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, Seed: 11, Gen: accounts{},
	}
	d := harness.Build(spec)
	d.Sys.Start()

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < transfers; i++ {
		d.Sim.At(time.Duration(100+i*5)*time.Millisecond, func() {
			fs, ts := rng.Intn(shards), rng.Intn(shards)
			fa, ta := rng.Intn(accountsPer), rng.Intn(accountsPer)
			if fs == ts && fa == ta {
				ta = (ta + 1) % accountsPer
			}
			t := transferTxn(fs, fa, ts, ta, int64(1+rng.Intn(50)))
			d.Sys.Submit(fs, t, func(r txn.Result) {
				if r.OK {
					committed++
				}
			})
		})
	}
	d.Sim.At(4*time.Second, func() {
		d.Sys.Submit(0, auditTxn(), func(r txn.Result) {
			if !r.OK {
				return
			}
			audited = true
			for _, sr := range r.PerShard {
				total += txn.DecodeInt(sr.Ret)
			}
		})
	})
	d.Sim.Run(6 * time.Second)
	return committed, total, audited
}

func main() {
	// Part 1: conservation of money on every registered protocol. Atomic
	// cross-shard commit is protocol-independent, and so is this code: the
	// registry resolves each deployment by name.
	want := int64(shards*accountsPer) * initialBalance
	fmt.Printf("conservation audit across every registered protocol (expect %d):\n", want)
	failed := false
	for _, name := range protocol.Names() {
		committed, total, audited := runBank(name)
		conserved := audited && total == want
		fmt.Printf("  %-12s transfers=%3d/%d audit total=%6d conserved=%v\n",
			name, committed, transfers, total, conserved)
		failed = failed || !conserved || committed == 0
	}

	// Part 2: the real-time-ordering guarantee, on a protocol advertising
	// the Checkable capability (agreed serialization timestamps). Withdraw
	// from acct-0-0 in region 0, and the moment it completes, read the
	// balance from region 2 (Brazil). Strict serializability guarantees the
	// read observes the withdrawal.
	spec := harness.ClusterSpec{
		Protocol: "Tiga", Shards: shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 1, Seed: 11, Gen: accounts{},
	}
	d := harness.Build(spec)
	if _, ok := d.Sys.(protocol.Checkable); !ok {
		fmt.Println("\nreal-time ordering demo needs a protocol.Checkable system")
		os.Exit(1)
	}
	d.Sys.Start()
	consistent := false
	d.Sim.At(200*time.Millisecond, func() {
		w := transferTxn(0, 0, 1, 1, 500)
		d.Sys.Submit(0, w, func(r txn.Result) {
			withdrawn := txn.DecodeInt(r.Ret(0))
			read := &txn.Txn{ReadOnly: true, Pieces: txn.ByShard(txn.ReadPiece(acct(0, 0)).On(0))}
			d.Sys.Submit(2, read, func(r2 txn.Result) {
				observed := txn.DecodeInt(r2.Ret(0))
				consistent = r.OK && r2.OK && observed <= withdrawn
				fmt.Printf("\nreal-time order: withdrawal left %d; later read from Brazil observed %d (consistent=%v)\n",
					withdrawn, observed, consistent)
			})
		})
	})
	d.Sim.Run(2 * time.Second)
	if failed || !consistent {
		fmt.Println("\nFAIL: a conservation audit or the real-time read did not hold")
		os.Exit(1)
	}
}
