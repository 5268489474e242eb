package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// The four generators as they were before they became one Synthetic: a type,
// a constructor, a Seed and a Next each, over the old per-generator key cache.
// They are kept verbatim (renamed ref*) as the reference
// TestSyntheticMatchesTheReference drives against the registered workloads.

// refMicroBench is the paper's micro-benchmark: each shard is pre-populated with
// Keys key-value pairs; each transaction increments 3 keys on 3 different
// shards, selected with a Zipfian distribution (§5.1).
type refMicroBench struct {
	Shards int
	Keys   int
	Skew   float64
	zipf   *Zipfian
	names  refKeycache
}

// refNewMicroBench builds the generator. Keys defaults to 1M per the paper; use
// fewer in unit tests.
func refNewMicroBench(shards, keys int, skew float64) *refMicroBench {
	return &refMicroBench{Shards: shards, Keys: keys, Skew: skew, zipf: NewZipfian(keys, skew)}
}

// refKeycache memoizes the formatted names of a shard-indexed keyspace and the
// seed image built from them. Seeding R replicated stores and sampling
// millions of keys per run otherwise re-run fmt.Sprintf for names that never
// change, and hash every name once per replica; the cache builds each shard's
// names and image once and every replica's store attaches to the same image.
// Generators are private to one experiment point (see harness.SpecRun), so
// the cache needs no locking.
type refKeycache struct {
	shards [][]string
	images []*store.Image
}

// shard returns the cached names of one shard's full keyspace, building them
// on first use.
func (c *refKeycache) shard(shard, keys int) []string {
	for len(c.shards) <= shard {
		c.shards, c.images = append(c.shards, nil), append(c.images, nil)
	}
	if c.shards[shard] == nil {
		names := make([]string, keys)
		for i := range names {
			names[i] = Key(shard, i)
		}
		c.shards[shard] = names
	}
	return c.shards[shard]
}

// seed attaches st to the shard's image (every key at zero, txn.EncodeInt's
// shared encoding), building the image on first use.
func (c *refKeycache) seed(shard, keys int, st *store.Store) {
	names := c.shard(shard, keys)
	if c.images[shard] == nil {
		c.images[shard] = store.NewImage(names, func(int) []byte { return txn.EncodeInt(0) })
	}
	st.Attach(c.images[shard])
}

// key returns one cached key name.
func (c *refKeycache) key(shard, keys, idx int) string {
	return c.shard(shard, keys)[idx]
}

// Seed pre-populates a shard (values start at zero).
func (m *refMicroBench) Seed(shard int, st *store.Store) {
	m.names.seed(shard, m.Keys, st)
}

// Next generates one 3-shard increment transaction. The rng draw sequence and
// the transaction's content are identical to building each piece with
// txn.IncrementPiece.
func (m *refMicroBench) Next(rng *rand.Rand) Job {
	nShards := 3
	if m.Shards < 3 {
		nShards = m.Shards
	}
	j := newJob(nShards, "micro")
	start := rng.Intn(m.Shards)
	for i := 0; i < nShards; i++ {
		sh := (start + i) % m.Shards
		idx := m.zipf.Next(rng)
		j.set(i, sh, txn.OpIncrement, m.names.key(sh, m.Keys, idx), idx)
	}
	return j.done()
}

// refUniform is a uniformly-distributed single-key read/write mix used by a few
// unit tests and the quickstart example.
type refUniform struct {
	Shards    int
	Keys      int
	ReadRatio float64
	names     refKeycache
}

// Seed pre-populates a shard.
func (u *refUniform) Seed(shard int, st *store.Store) {
	u.names.seed(shard, u.Keys, st)
}

// Next generates a single-shard read or increment.
func (u *refUniform) Next(rng *rand.Rand) Job {
	sh := rng.Intn(u.Shards)
	idx := rng.Intn(u.Keys)
	k := u.names.key(sh, u.Keys, idx)
	j := newJob(1, "uniform")
	if rng.Float64() < u.ReadRatio {
		j.set(0, sh, txn.OpRead, k, idx)
		j.t.ReadOnly = true
	} else {
		j.set(0, sh, txn.OpIncrement, k, idx)
	}
	return j.done()
}

// refYCSBT is a YCSB-T-style read-heavy single-shot mix: each transaction
// touches TxnKeys keys on distinct shards, each key read with probability
// ReadRatio and incremented otherwise, with Zipfian-skewed key selection per
// shard. A transaction whose keys all come up reads is marked read-only,
// letting protocols with a read-only fast path exploit it.
type refYCSBT struct {
	Shards    int
	Keys      int
	Skew      float64
	ReadRatio float64
	TxnKeys   int
	zipf      *Zipfian
	names     refKeycache
}

// refNewYCSBT builds the generator.
func refNewYCSBT(shards, keys int, skew, readRatio float64, txnKeys int) *refYCSBT {
	if txnKeys < 1 {
		txnKeys = 1
	}
	if txnKeys > shards {
		txnKeys = shards
	}
	return &refYCSBT{Shards: shards, Keys: keys, Skew: skew, ReadRatio: readRatio,
		TxnKeys: txnKeys, zipf: NewZipfian(keys, skew)}
}

// Seed pre-populates a shard (values start at zero).
func (y *refYCSBT) Seed(shard int, st *store.Store) {
	y.names.seed(shard, y.Keys, st)
}

// Next generates one transaction over TxnKeys consecutive shards.
func (y *refYCSBT) Next(rng *rand.Rand) Job {
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

// refHotWrite is a write-heavy hot-key stress mix: every transaction increments
// TxnKeys keys on distinct shards, drawn Zipfian-skewed from a small hot set
// of HotKeys keys per shard rather than the whole keyspace. It concentrates
// write-write conflicts far beyond refMicroBench at the same skew — the regime
// where lock-based and optimistic baselines collapse and the deterministic
// designs keep committing.
type refHotWrite struct {
	Shards  int
	Keys    int
	HotKeys int
	Skew    float64
	TxnKeys int
	zipf    *Zipfian
	names   refKeycache
}

// refNewHotWrite builds the generator; the hot set is clamped to the keyspace.
func refNewHotWrite(shards, keys, hotKeys int, skew float64, txnKeys int) *refHotWrite {
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
	return &refHotWrite{Shards: shards, Keys: keys, HotKeys: hotKeys, Skew: skew,
		TxnKeys: txnKeys, zipf: NewZipfian(hotKeys, skew)}
}

// Seed pre-populates a shard (values start at zero).
func (h *refHotWrite) Seed(shard int, st *store.Store) {
	h.names.seed(shard, h.Keys, st)
}

// Next generates one all-write transaction over the hot set.
func (h *refHotWrite) Next(rng *rand.Rand) Job {
	j := newJob(h.TxnKeys, "hotwrite")
	start := rng.Intn(h.Shards)
	for i := 0; i < h.TxnKeys; i++ {
		sh := (start + i) % h.Shards
		idx := h.zipf.Next(rng)
		j.set(i, sh, txn.OpIncrement, h.names.key(sh, h.Keys, idx), idx)
	}
	return j.done()
}

// refFactories are the four registrations' factories as they were.
var refFactories = map[string]func(shards, keys int, p protocol.Values) Generator{
	"micro": func(shards, keys int, p protocol.Values) Generator {
		return refNewMicroBench(shards, keys, p.Float("skew"))
	},
	"uniform": func(shards, keys int, p protocol.Values) Generator {
		return &refUniform{Shards: shards, Keys: keys, ReadRatio: p.Float("read-ratio")}
	},
	"ycsbt": func(shards, keys int, p protocol.Values) Generator {
		return refNewYCSBT(shards, keys, p.Float("skew"), p.Float("read-ratio"), p.Int("txn-keys"))
	},
	"hotwrite": func(shards, keys int, p protocol.Values) Generator {
		return refNewHotWrite(shards, keys, p.Int("hot-keys"), p.Float("skew"), p.Int("txn-keys"))
	},
}

// TestSyntheticMatchesTheReference: every registered synthetic workload, at
// its defaults and at the corners of its parameters, draws the same rng
// sequence as the generator it replaced, builds the same pieces, read-only
// flag and label, and seeds an equal store.
func TestSyntheticMatchesTheReference(t *testing.T) {
	const keys = 200
	type params = map[string]any
	cases := []struct {
		name   string
		shards int
		p      params
	}{
		{"micro", 6, nil},
		{"micro", 2, nil},
		{"micro", 6, params{"skew": 0.0}},
		{"micro", 6, params{"skew": 0.99}},
		{"uniform", 6, nil},
		{"uniform", 6, params{"read-ratio": 0.0}},
		{"uniform", 6, params{"read-ratio": 1.0}},
		{"ycsbt", 6, nil},
		{"ycsbt", 6, params{"skew": 0.0}},
		{"ycsbt", 6, params{"read-ratio": 0.0}},
		{"ycsbt", 6, params{"read-ratio": 1.0}},
		{"ycsbt", 6, params{"txn-keys": 0}},
		{"ycsbt", 6, params{"txn-keys": 1}},
		{"ycsbt", 6, params{"txn-keys": 3}},
		{"ycsbt", 6, params{"txn-keys": 5}},
		{"ycsbt", 3, params{"txn-keys": 5}},
		{"hotwrite", 6, nil},
		{"hotwrite", 6, params{"skew": 0.0}},
		{"hotwrite", 6, params{"hot-keys": 0}},
		{"hotwrite", 6, params{"hot-keys": keys + 1}},
		{"hotwrite", 6, params{"hot-keys": 10 * keys}},
		{"hotwrite", 6, params{"txn-keys": 1}},
		{"hotwrite", 6, params{"txn-keys": 3}},
		{"hotwrite", 6, params{"txn-keys": 5}},
		{"hotwrite", 3, params{"txn-keys": 5}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d-shards/%v", c.name, c.shards, c.p), func(t *testing.T) {
			def, _ := Lookup(c.name)
			vals, err := def.Params.Resolve(c.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 3} {
				gen, err := Build(c.name, c.shards, keys, c.p)
				if err != nil {
					t.Fatal(err)
				}
				ref := refFactories[c.name](c.shards, keys, vals)
				a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < 300; i++ {
					got, want := gen.Next(a), ref.Next(b)
					if got.Label != want.Label || got.T.Label != want.T.Label || got.T.ReadOnly != want.T.ReadOnly ||
						!reflect.DeepEqual(got.T.Pieces, want.T.Pieces) {
						t.Fatalf("seed %d job %d: %q read-only %v %+v; want %q read-only %v %+v", seed, i,
							got.Label, got.T.ReadOnly, got.T.Pieces, want.Label, want.T.ReadOnly, want.T.Pieces)
					}
				}
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("seed %d: the rng streams part after 300 jobs", seed)
				}
				for sh := 0; sh < c.shards; sh++ {
					sa, sb := store.New(), store.New()
					gen.Seed(sh, sa)
					ref.Seed(sh, sb)
					if !sa.Equal(sb) {
						t.Fatalf("seed %d: shard %d seeds differently", seed, sh)
					}
				}
			}
		})
	}
}
