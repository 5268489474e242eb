package workload

import (
	"math/rand"

	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// YCSBT is a YCSB-T-style read-heavy single-shot mix: each transaction
// touches TxnKeys keys on distinct shards, each key read with probability
// ReadRatio and incremented otherwise, with Zipfian-skewed key selection per
// shard. A transaction whose keys all come up reads is marked read-only,
// letting protocols with a read-only fast path exploit it.
type YCSBT struct {
	Shards    int
	Keys      int
	Skew      float64
	ReadRatio float64
	TxnKeys   int
	zipf      *Zipfian
	names     keycache
}

// NewYCSBT builds the generator.
func NewYCSBT(shards, keys int, skew, readRatio float64, txnKeys int) *YCSBT {
	if txnKeys < 1 {
		txnKeys = 1
	}
	if txnKeys > shards {
		txnKeys = shards
	}
	return &YCSBT{Shards: shards, Keys: keys, Skew: skew, ReadRatio: readRatio,
		TxnKeys: txnKeys, zipf: NewZipfian(keys, skew)}
}

// Seed pre-populates a shard (values start at zero).
func (y *YCSBT) Seed(shard int, st *store.Store) {
	y.names.seed(shard, y.Keys, st)
}

// Next generates one transaction over TxnKeys consecutive shards.
func (y *YCSBT) Next(rng *rand.Rand) Job {
	j := newJob(y.TxnKeys, "ycsbt")
	start := rng.Intn(y.Shards)
	readOnly := true
	for i := 0; i < y.TxnKeys; i++ {
		sh := (start + i) % y.Shards
		idx := y.zipf.Next(rng)
		op := txn.OpRead
		if rng.Float64() >= y.ReadRatio {
			op, readOnly = txn.OpIncrement, false
		}
		j.set(i, sh, op, y.names.key(sh, y.Keys, idx), idx)
	}
	j.t.ReadOnly = readOnly
	return j.done()
}

// HotWrite is a write-heavy hot-key stress mix: every transaction increments
// TxnKeys keys on distinct shards, drawn Zipfian-skewed from a small hot set
// of HotKeys keys per shard rather than the whole keyspace. It concentrates
// write-write conflicts far beyond MicroBench at the same skew — the regime
// where lock-based and optimistic baselines collapse and the deterministic
// designs keep committing.
type HotWrite struct {
	Shards  int
	Keys    int
	HotKeys int
	Skew    float64
	TxnKeys int
	zipf    *Zipfian
	names   keycache
}

// NewHotWrite builds the generator; the hot set is clamped to the keyspace.
func NewHotWrite(shards, keys, hotKeys int, skew float64, txnKeys int) *HotWrite {
	if hotKeys < 1 {
		hotKeys = 1
	}
	if hotKeys > keys {
		hotKeys = keys
	}
	if txnKeys < 1 {
		txnKeys = 1
	}
	if txnKeys > shards {
		txnKeys = shards
	}
	return &HotWrite{Shards: shards, Keys: keys, HotKeys: hotKeys, Skew: skew,
		TxnKeys: txnKeys, zipf: NewZipfian(hotKeys, skew)}
}

// Seed pre-populates a shard (values start at zero).
func (h *HotWrite) Seed(shard int, st *store.Store) {
	h.names.seed(shard, h.Keys, st)
}

// Next generates one all-write transaction over the hot set.
func (h *HotWrite) Next(rng *rand.Rand) Job {
	j := newJob(h.TxnKeys, "hotwrite")
	start := rng.Intn(h.Shards)
	for i := 0; i < h.TxnKeys; i++ {
		sh := (start + i) % h.Shards
		idx := h.zipf.Next(rng)
		j.set(i, sh, txn.OpIncrement, h.names.key(sh, h.Keys, idx), idx)
	}
	return j.done()
}

func init() {
	Register(Def{
		Name: "ycsbt",
		Doc:  "YCSB-T-style read-heavy single-shot mix: Zipfian keys across shards, read-only fast-path eligible",
		Params: protocol.Schema{
			{Name: "skew", Type: protocol.KnobFloat, Default: 0.7,
				Doc: "Zipfian skew factor θ in [0, 1)"},
			{Name: "read-ratio", Type: protocol.KnobFloat, Default: 0.95,
				Doc: "per-key probability of a read instead of an increment"},
			{Name: "txn-keys", Type: protocol.KnobInt, Default: 3,
				Doc: "keys (and distinct shards) touched per transaction; clamped to the shard count"},
		},
		New: func(shards, keys int, p protocol.Values) Generator {
			return NewYCSBT(shards, keys, p.Float("skew"), p.Float("read-ratio"), p.Int("txn-keys"))
		},
	})
	Register(Def{
		Name: "hotwrite",
		Doc:  "write-heavy hot-key stress: all-write transactions Zipfian-drawn from a small per-shard hot set",
		Params: protocol.Schema{
			{Name: "skew", Type: protocol.KnobFloat, Default: 0.99,
				Doc: "Zipfian skew factor θ over the hot set"},
			{Name: "hot-keys", Type: protocol.KnobInt, Default: 64,
				Doc: "hot-set size per shard; clamped to the keyspace"},
			{Name: "txn-keys", Type: protocol.KnobInt, Default: 3,
				Doc: "keys (and distinct shards) incremented per transaction; clamped to the shard count"},
		},
		New: func(shards, keys int, p protocol.Values) Generator {
			return NewHotWrite(shards, keys, p.Int("hot-keys"), p.Float("skew"), p.Int("txn-keys"))
		},
	})
}
