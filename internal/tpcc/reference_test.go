package tpcc

import (
	"math/rand"
	"slices"

	"tiga/internal/txn"
	"tiga/internal/workload"
)

// The five transaction builders as they were before each stage was built from
// storage sized before it was filled: one map and two slices per shard, a
// merge that copied both pieces' sets and composed their executors. They are
// kept verbatim (renamed ref*) as the reference TestStagesMatchTheReference
// compares the generator with; the one behaviour they get wrong on purpose is
// the one the generator fixed — a same-shard Payment whose customer check fails
// still pays the warehouse and the district here.

// refNext is Next drawing from the reference builders.
func (g *Gen) refNext(rng *rand.Rand) workload.Job {
	g.uid++
	x := rng.Float64()
	switch {
	case x < 0.45:
		return workload.Job{T: g.refNewOrder(rng), Label: "neworder"}
	case x < 0.88:
		return workload.Job{I: g.refPayment(rng), Label: "payment"}
	case x < 0.92:
		return workload.Job{I: g.refOrderStatus(rng), Label: "orderstatus"}
	case x < 0.96:
		return workload.Job{I: g.refDelivery(rng), Label: "delivery"}
	default:
		return workload.Job{T: g.refStockLevel(rng), Label: "stocklevel"}
	}
}

// The names of the rows the reference inserts, one string each.
func kOrder(w, d int, uid uint64) string   { return key("o", int64(w), int64(d), int64(uid)) }
func kOTotal(w, d int, uid uint64) string  { return key("o_total", int64(w), int64(d), int64(uid)) }
func kOCarrier(w, d int, idx int64) string { return key("o_carrier", int64(w), int64(d), idx) }

func newKeyset(n int) keyset {
	return keyset{names: make([]string, 0, n), ids: make([]txn.KeyID, 0, n)}
}

func (s *keyset) append(o keyset) {
	s.names = append(s.names, o.names...)
	s.ids = append(s.ids, o.ids...)
}

func (g *Gen) refNewOrder(rng *rand.Rand) *txn.Txn {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	uid := g.nextUID(rng)
	nItems := 5 + rng.Intn(11)
	type line struct {
		shard int
		item  txn.KeyID // the item's i_price column; the stock columns follow it
		qty   int64
	}
	lines := make([]line, nItems)
	for i := range lines {
		sw := w
		if g.cfg.Warehouses > 1 && rng.Float64() < 0.01 {
			for sw == w {
				sw = g.randWarehouse(rng)
			}
		}
		lines[i] = line{shard: g.ShardOf(sw), item: g.iID(sw, 1+rng.Intn(g.cfg.Items)), qty: int64(1 + rng.Intn(10))}
	}

	home := g.ShardOf(w)

	// Group stock lines per shard.
	perShard := make(map[int][]line)
	for _, ln := range lines {
		perShard[ln.shard] = append(perShard[ln.shard], ln)
	}
	pieces := make([]txn.Piece, 0, len(perShard)+1)
	for sh, lns := range perShard {
		tab := g.tab(sh)
		reads, writes := newKeyset(4*len(lns)), newKeyset(3*len(lns))
		for _, ln := range lns {
			reads.add(tab, ln.item+colIPrice)
			writes.add(tab, ln.item+colSQty, ln.item+colSYtd, ln.item+colSCnt)
		}
		reads.append(writes)
		pieces = append(pieces, txn.Piece{
			ReadSet: reads.names, ReadIDs: reads.ids,
			WriteSet: writes.names, WriteIDs: writes.ids,
			Exec: func(kv txn.KV) []byte {
				var total int64
				for _, ln := range lns {
					price := getInt(kv, ln.item+colIPrice)
					qty := getInt(kv, ln.item+colSQty) - ln.qty
					if qty < 10 {
						qty += 91
					}
					putInt(kv, ln.item+colSQty, qty)
					putInt(kv, ln.item+colSYtd, getInt(kv, ln.item+colSYtd)+ln.qty)
					putInt(kv, ln.item+colSCnt, getInt(kv, ln.item+colSCnt)+1)
					total += price * ln.qty
				}
				return txn.EncodeInt(total)
			},
		}.On(sh))
	}

	// Home-district piece: order insertion + next-order-id bump.
	tab := g.tab(home)
	wTax, dTax, dNext := g.wID(w)+colWTax, g.dID(w, d)+colDTax, g.dID(w, d)+colDNextOID
	cDisc, cLast := g.cID(w, d, c)+colCDisc, g.cID(w, d, c)+colCLast
	order, total := kOrder(w, d, uid), kOTotal(w, d, uid)
	reads, writes := newKeyset(4), newKeyset(4)
	reads.add(tab, wTax, dTax, cDisc, dNext)
	writes.add(tab, dNext)
	writes.insert(order)
	writes.insert(total)
	writes.add(tab, cLast)
	homePiece := txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		WriteSet: writes.names, WriteIDs: writes.ids,
		Exec: func(kv txn.KV) []byte {
			oid := getInt(kv, dNext)
			putInt(kv, dNext, oid+1)
			kv.Put(order, txn.EncodeInt(oid))
			kv.Put(total, txn.EncodeInt(int64(nItems)))
			putInt(kv, cLast, int64(uid))
			return txn.EncodeInt(oid*1000 + getInt(kv, wTax) + getInt(kv, dTax) + getInt(kv, cDisc))
		},
	}.On(home)
	if i := slices.IndexFunc(pieces, func(p txn.Piece) bool { return p.Shard() == home }); i >= 0 {
		pieces[i] = refMergePieces(pieces[i], homePiece)
	} else {
		pieces = append(pieces, homePiece)
	}
	return &txn.Txn{Label: "neworder", Pieces: txn.ByShard(pieces...)}
}

// refMergePieces combines two pieces on the same shard; both carry positionally
// parallel id sets (New-Order's and Payment's pieces, the only ones merged).
// The merged executor keeps the two executors, not the two pieces, so their
// own copies of the sets are garbage once merged.
func refMergePieces(a, b txn.Piece) txn.Piece {
	execA, execB := a.Exec, b.Exec
	return txn.Piece{
		ReadSet:  append(append([]string(nil), a.ReadSet...), b.ReadSet...),
		WriteSet: append(append([]string(nil), a.WriteSet...), b.WriteSet...),
		ReadIDs:  append(append([]txn.KeyID(nil), a.ReadIDs...), b.ReadIDs...),
		WriteIDs: append(append([]txn.KeyID(nil), a.WriteIDs...), b.WriteIDs...),
		Exec: func(kv txn.KV) []byte {
			return append(execA(kv), execB(kv)...)
		},
	}.On(a.Shard())
}

func (g *Gen) refPayment(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	cw := w
	if g.cfg.Warehouses > 1 && rng.Float64() < 0.15 {
		for cw == w {
			cw = g.randWarehouse(rng)
		}
	}
	c := 1 + rng.Intn(g.cfg.Customers)
	amount := int64(1 + rng.Intn(5000))
	home, cust := g.ShardOf(w), g.ShardOf(cw)
	uid := g.nextUID(rng)
	homeTab, custTab := g.tab(home), g.tab(cust)
	wYtd, dYtd := g.wID(w)+colWYtd, g.dID(w, d)+colDYtd
	cBal, cYtd, cCnt := g.cID(cw, d, c)+colCBal, g.cID(cw, d, c)+colCYtd, g.cID(cw, d, c)+colCCnt

	return &txn.Interactive{
		Label: "payment",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				t := &txn.Txn{Label: "payment-read", ReadOnly: true,
					Pieces: txn.ByShard(txn.ReadPieceID(custTab[cBal], cBal).On(cust))}
				return t, false, false
			case 1:
				seen := txn.DecodeInt(prev.Ret(cust))
				custKeys := newKeyset(3)
				custKeys.add(custTab, cBal, cYtd, cCnt)
				custPiece := txn.Piece{
					ReadSet: custKeys.names, ReadIDs: custKeys.ids,
					WriteSet: custKeys.names, WriteIDs: custKeys.ids,
					Exec: func(kv txn.KV) []byte {
						cur := getInt(kv, cBal)
						if cur != seen {
							return txn.EncodeInt(-1) // validation failed
						}
						putInt(kv, cBal, cur-amount)
						putInt(kv, cYtd, getInt(kv, cYtd)+amount)
						putInt(kv, cCnt, getInt(kv, cCnt)+1)
						return txn.EncodeInt(cur - amount)
					},
				}.On(cust)
				history := kHistory(w, d, uid)
				reads, writes := newKeyset(2), newKeyset(3)
				reads.add(homeTab, wYtd, dYtd)
				writes.add(homeTab, wYtd, dYtd)
				writes.insert(history)
				homePiece := txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					WriteSet: writes.names, WriteIDs: writes.ids,
					Exec: func(kv txn.KV) []byte {
						putInt(kv, wYtd, getInt(kv, wYtd)+amount)
						putInt(kv, dYtd, getInt(kv, dYtd)+amount)
						kv.Put(history, txn.EncodeInt(amount))
						return txn.EncodeInt(0)
					},
				}.On(home)
				t := &txn.Txn{Label: "payment-write"}
				if home == cust {
					t.Pieces = txn.ByShard(refMergePieces(homePiece, custPiece))
				} else {
					t.Pieces = txn.ByShard(homePiece, custPiece)
				}
				return t, false, false
			default:
				// Validate stage 1: the customer piece returns -1 on a failed
				// balance check.
				if prev != nil {
					ret := prev.Ret(cust)
					if home == cust && len(ret) >= 8 {
						// merged piece: home result (8B) then customer result
						ret = ret[len(ret)-8:]
					}
					if txn.DecodeInt(ret) == -1 {
						return nil, true, true // abort: restart the chain
					}
				}
				return nil, true, false
			}
		},
	}
}

func (g *Gen) refOrderStatus(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	c := 1 + rng.Intn(g.cfg.Customers)
	sh := g.ShardOf(w)
	tab := g.tab(sh)
	cBal, cLast := g.cID(w, d, c)+colCBal, g.cID(w, d, c)+colCLast
	return &txn.Interactive{
		Label: "orderstatus",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				reads := newKeyset(2)
				reads.add(tab, cBal, cLast)
				t := &txn.Txn{Label: "orderstatus-c", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					Exec: func(kv txn.KV) []byte {
						return append(kv.GetID(cBal), kv.GetID(cLast)...)
					},
				}.On(sh))}
				return t, false, false
			case 1:
				var last uint64
				if prev != nil && len(prev.Ret(sh)) >= 16 {
					last = uint64(txn.DecodeInt(prev.Ret(sh)[8:16]))
				}
				if last == 0 {
					return nil, true, false // customer has no orders yet
				}
				// The order rows were inserted: names only, no ids.
				order, total := kOrder(w, d, last), kOTotal(w, d, last)
				t := &txn.Txn{Label: "orderstatus-o", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: []string{order, total},
					Exec: func(kv txn.KV) []byte {
						return append(kv.Get(order), kv.Get(total)...)
					},
				}.On(sh))}
				return t, false, false
			default:
				return nil, true, false
			}
		},
	}
}

func (g *Gen) refDelivery(rng *rand.Rand) *txn.Interactive {
	w := g.randWarehouse(rng)
	sh := g.ShardOf(w)
	carrier := int64(1 + rng.Intn(10))
	custs := make([]int, g.cfg.Districts+1)
	for d := 1; d <= g.cfg.Districts; d++ {
		custs[d] = 1 + rng.Intn(g.cfg.Customers)
	}
	nd := g.cfg.Districts
	tab := g.tab(sh)
	return &txn.Interactive{
		Label: "delivery",
		Next: func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
			switch stage {
			case 0:
				reads := newKeyset(2 * nd)
				for d := 1; d <= nd; d++ {
					reads.add(tab, g.dID(w, d)+colNoHead, g.dID(w, d)+colDNextOID)
				}
				t := &txn.Txn{Label: "delivery-scan", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					Exec: func(kv txn.KV) []byte {
						out := make([]byte, 0, 16*nd)
						for _, id := range reads.ids {
							out = append(out, kv.GetID(id)...)
						}
						return out
					},
				}.On(sh))}
				return t, false, false
			case 1:
				buf := prev.Ret(sh)
				type dd struct {
					head         int64
					noHead, cBal txn.KeyID
					carrierRow   string // o_carrier of the order at head+1
				}
				var todo []dd
				for d := 1; d <= nd; d++ {
					off := (d - 1) * 16
					if len(buf) < off+16 {
						break
					}
					head := txn.DecodeInt(buf[off : off+8])
					next := txn.DecodeInt(buf[off+8 : off+16])
					if head+1 < next {
						todo = append(todo, dd{head: head, noHead: g.dID(w, d) + colNoHead,
							cBal: g.cID(w, d, custs[d]) + colCBal, carrierRow: kOCarrier(w, d, head+1)})
					}
				}
				if len(todo) == 0 {
					return nil, true, false
				}
				reads, writes := newKeyset(2*len(todo)), newKeyset(3*len(todo))
				for _, x := range todo {
					reads.add(tab, x.noHead, x.cBal)
					writes.add(tab, x.noHead)
					writes.insert(x.carrierRow)
					writes.add(tab, x.cBal)
				}
				t := &txn.Txn{Label: "delivery-run", Pieces: txn.ByShard(txn.Piece{
					ReadSet: reads.names, ReadIDs: reads.ids,
					WriteSet: writes.names, WriteIDs: writes.ids,
					Exec: func(kv txn.KV) []byte {
						var n int64
						for _, x := range todo {
							if getInt(kv, x.noHead) != x.head {
								continue // another delivery got here first
							}
							putInt(kv, x.noHead, x.head+1)
							kv.Put(x.carrierRow, txn.EncodeInt(carrier))
							putInt(kv, x.cBal, getInt(kv, x.cBal)+100)
							n++
						}
						return txn.EncodeInt(n)
					},
				}.On(sh))}
				return t, false, false
			default:
				return nil, true, false
			}
		},
	}
}

func (g *Gen) refStockLevel(rng *rand.Rand) *txn.Txn {
	w := g.randWarehouse(rng)
	d := 1 + rng.Intn(g.cfg.Districts)
	sh := g.ShardOf(w)
	threshold := int64(10 + rng.Intn(11))
	tab := g.tab(sh)
	reads := newKeyset(21)
	reads.add(tab, g.dID(w, d)+colDNextOID)
	for i := 0; i < 20; i++ {
		reads.add(tab, g.iID(w, 1+rng.Intn(g.cfg.Items))+colSQty)
	}
	return &txn.Txn{Label: "stocklevel", ReadOnly: true, Pieces: txn.ByShard(txn.Piece{
		ReadSet: reads.names, ReadIDs: reads.ids,
		Exec: func(kv txn.KV) []byte {
			var low int64
			for _, id := range reads.ids[1:] {
				if getInt(kv, id) < threshold {
					low++
				}
			}
			return txn.EncodeInt(low)
		},
	}.On(sh))}
}
