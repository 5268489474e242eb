// Package workload implements the paper's benchmark workloads (§5.1): a
// MicroBench of 3-key read-modify-write transactions with Zipfian-skewed key
// selection, and a generic job model that also carries TPC-C's interactive
// transactions. Workloads register by name in an internal/registry set
// (registry.go); BuildArrival builds the open-loop arrival process.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"unsafe"

	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Job is one unit of load: either a one-shot transaction or an interactive
// (multi-shot) transaction chain.
type Job struct {
	T     *txn.Txn
	I     txn.Interactive
	Label string
}

// Generator produces jobs.
type Generator interface {
	Next(rng *rand.Rand) Job
	// Seed pre-populates one shard's store, which must be empty. Every replica
	// of a shard is seeded from the one store.Image the generator keeps for it.
	Seed(shard int, st *store.Store)
}

// Zipfian is the YCSB-style Zipfian generator over [0, n) supporting
// skew (theta) in [0, 1), matching the paper's skew factors 0.5–0.99.
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian precomputes the distribution constants.
func NewZipfian(n int, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next samples a key index; lower indices are hotter.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Key names a synthetic workload's key.
func Key(shard, idx int) string { return fmt.Sprintf("k%d-%d", shard, idx) }

// keyNames returns Key(shard, i) for the shard's keys keys in id order. A shard
// names up to a million keys, so they are formatted twice on the stack, once to
// size one buffer and once to fill it, and each name is a string over its bytes
// in place (unsafe.String), never written again: two allocations a shard, not
// one a name.
func keyNames(shard, keys int) []string {
	var b [48]byte
	name := func(i int) []byte {
		k := strconv.AppendInt(append(b[:0], 'k'), int64(shard), 10)
		return strconv.AppendInt(append(k, '-'), int64(i), 10)
	}
	size := 0
	for i := range keys {
		size += len(name(i))
	}
	buf, names := make([]byte, 0, size), make([]string, keys)
	for i := range names {
		at := len(buf)
		buf = append(buf, name(i)...)
		names[i] = unsafe.String(&buf[at], len(buf)-at)
	}
	return names
}

// KeyID is the interned form of a key: its dense index within one shard's
// seeded keyspace. Every shard is seeded from a store.Image of its KeyCache's
// id-ordered names, so the workload key index and the store's intern id
// coincide by construction — Key(shard, i) is always id i of shard's store —
// and pieces can carry ids without any lookup.
type KeyID = txn.KeyID

// KeyCache memoizes, per shard, the names of a seeded keyspace in id order and
// the seed image built from them; the synthetic generators and TPC-C both name
// and seed their keys through one. Seeding R replicated stores and sampling
// millions of keys per run otherwise re-format names that never change, and
// hash every name once per replica; the cache builds each shard's names and
// image once and every replica's store attaches to the same image. Generators
// are private to one experiment point (see harness.SpecRun), so the cache
// needs no locking.
type KeyCache struct {
	// Build returns one shard's key names; name i is the shard's key id i.
	Build func(shard int) []string
	// Value returns the seed value of key id i (of any shard).
	Value func(id int) []byte

	names  [][]string
	images []*store.Image
}

// Shard returns one shard's key names, building them on first use.
func (c *KeyCache) Shard(shard int) []string {
	for len(c.names) <= shard {
		c.names, c.images = append(c.names, nil), append(c.images, nil)
	}
	if c.names[shard] == nil {
		c.names[shard] = c.Build(shard)
	}
	return c.names[shard]
}

// Seed attaches st, which must be empty, to the shard's image, building the
// image on first use.
func (c *KeyCache) Seed(shard int, st *store.Store) {
	names := c.Shard(shard)
	if c.images[shard] == nil {
		c.images[shard] = store.NewImage(names, c.Value)
	}
	st.Attach(c.images[shard])
}

// arenaKeys is how many single-key pieces a job arena holds inline: the
// paper's three keys per transaction, which is every registered generator's
// default.
const arenaKeys = 3

// arena is the one allocation behind a generated transaction: the Txn, its
// Pieces, and the key names and ids of its single-key pieces. The scale-out
// sweeps draw millions of jobs per run, and a Piece, a one-element []string, a
// one-element []KeyID and a closure per key dominated the generators' profile.
type arena struct {
	t   txn.Txn
	ps  [arenaKeys]txn.Piece
	ks  [arenaKeys]string
	ids [arenaKeys]KeyID
}

// job is a transaction of n single-key pieces under construction; done sorts them.
type job struct {
	t   *txn.Txn
	ks  []string
	ids []KeyID
}

// newJob starts a transaction of n single-key pieces: out of one arena when
// they fit, out of one array per kind otherwise.
func newJob(n int, label string) job {
	var j job
	if n <= arenaKeys {
		a := new(arena)
		j = job{&a.t, a.ks[:n], a.ids[:n]}
		j.t.Pieces = a.ps[:n]
	} else {
		j = job{&txn.Txn{Pieces: make([]txn.Piece, n)}, make([]string, n), make([]KeyID, n)}
	}
	j.t.Label = label
	return j
}

// set makes the job's i-th piece op on key idx of shard sh (key is its name).
func (j job) set(i, sh int, op txn.Op, key string, idx int) {
	j.ks[i], j.ids[i] = key, KeyID(idx)
	j.t.Pieces[i] = txn.Tagged(op, j.ks[i:i+1:i+1], j.ids[i:i+1:i+1]).On(sh)
}

// done returns the finished job, its pieces all set.
func (j job) done() Job {
	j.t.Pieces = txn.ByShard(j.t.Pieces...)
	return Job{T: j.t, Label: j.t.Label}
}

// Synthetic is the paper's MicroBench loop (§5.1), which the micro, ycsbt,
// hotwrite and uniform workloads run with four parameter sets: a transaction
// touches txnKeys keys on consecutive shards from a random start, picks each
// key with zipf (uniformly over the keyspace when zipf is nil), and reads it
// with probability readRatio or increments it. A transaction whose keys all
// come up reads is read-only, letting protocols with a read-only fast path
// exploit it. Every shard holds keys keys, seeded at zero.
type Synthetic struct {
	shards, keys int
	txnKeys      int      // in [1, shards]
	zipf         *Zipfian // over a hot prefix of the keyspace; nil: uniform
	readRatio    float64
	// coin is whether every key draws the read coin (ycsbt and uniform, at
	// any ratio); without it (micro and hotwrite) every key is incremented.
	coin  bool
	label string
	names KeyCache
}

// newSynthetic builds a Synthetic, clamping txnKeys to [1, shards].
func newSynthetic(label string, shards, keys, txnKeys int, zipf *Zipfian, readRatio float64, coin bool) *Synthetic {
	return &Synthetic{shards: shards, keys: keys, txnKeys: min(max(txnKeys, 1), shards),
		zipf: zipf, readRatio: readRatio, coin: coin, label: label,
		names: KeyCache{
			Build: func(shard int) []string { return keyNames(shard, keys) },
			Value: func(int) []byte { return txn.EncodeInt(0) },
		}}
}

// hotPrefix is the Zipfian key picker over the first hot keys of a keyspace
// of keys, hot clamped to [1, keys].
func hotPrefix(hot, keys int, skew float64) *Zipfian {
	return NewZipfian(min(max(hot, 1), keys), skew)
}

// NewMicroBench builds the paper's micro-benchmark: each transaction
// increments 3 keys on 3 different shards, Zipfian-skewed over the whole
// keyspace. Keys defaults to 1M per the paper; use fewer in unit tests.
func NewMicroBench(shards, keys int, skew float64) *Synthetic {
	return newSynthetic("micro", shards, keys, 3, hotPrefix(keys, keys, skew), 0, false)
}

// Seed pre-populates a shard (values start at zero).
func (s *Synthetic) Seed(shard int, st *store.Store) { s.names.Seed(shard, st) }

// Next generates one transaction over txnKeys consecutive shards. The rng draw
// sequence and the transaction's content are identical to building each piece
// with txn.IncrementPiece or txn.ReadPiece.
func (s *Synthetic) Next(rng *rand.Rand) Job {
	j := newJob(s.txnKeys, s.label)
	start := rng.Intn(s.shards)
	readOnly := true
	for i := 0; i < s.txnKeys; i++ {
		sh := (start + i) % s.shards
		var idx int
		if s.zipf != nil {
			idx = s.zipf.Next(rng)
		} else {
			idx = rng.Intn(s.keys)
		}
		op := txn.OpRead
		if !s.coin || rng.Float64() >= s.readRatio {
			op, readOnly = txn.OpIncrement, false
		}
		j.set(i, sh, op, s.names.Shard(sh)[idx], idx)
	}
	j.t.ReadOnly = readOnly
	return j.done()
}

func init() {
	Register(Def{
		Name: "micro",
		Doc:  "the paper's MicroBench (§5.1): 3-key cross-shard read-modify-writes, Zipfian-skewed key selection",
		Params: protocol.Schema{
			{Name: "skew", Type: protocol.KnobFloat, Default: 0.5,
				Doc: "Zipfian skew factor θ in [0, 1); the paper sweeps 0.5–0.99"},
		},
		New: func(shards, keys int, p protocol.Values) Generator {
			return NewMicroBench(shards, keys, p.Float("skew"))
		},
	})
	Register(Def{
		Name: "uniform",
		Doc:  "uniformly-distributed single-key read/write mix (quickstart and unit tests)",
		Params: protocol.Schema{
			{Name: "read-ratio", Type: protocol.KnobFloat, Default: 0.5,
				Doc: "fraction of transactions that are single-key reads"},
		},
		New: func(shards, keys int, p protocol.Values) Generator {
			return newSynthetic("uniform", shards, keys, 1, nil, p.Float("read-ratio"), true)
		},
	})
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
			return newSynthetic("ycsbt", shards, keys, p.Int("txn-keys"),
				hotPrefix(keys, keys, p.Float("skew")), p.Float("read-ratio"), true)
		},
	})
	// hotwrite concentrates write-write conflicts far beyond micro at the same
	// skew — the regime where lock-based and optimistic baselines collapse and
	// the deterministic designs keep committing.
	Register(Def{
		Name: "hotwrite",
		Doc:  "write-heavy hot-key stress: all-write transactions Zipfian-drawn from a small per-shard hot set",
		Params: protocol.Schema{
			{Name: "skew", Type: protocol.KnobFloat, Default: 0.99,
				Doc: "Zipfian skew factor θ in [0, 1) over the hot set"},
			{Name: "hot-keys", Type: protocol.KnobInt, Default: 64,
				Doc: "hot-set size per shard; clamped to the keyspace"},
			{Name: "txn-keys", Type: protocol.KnobInt, Default: 3,
				Doc: "keys (and distinct shards) incremented per transaction; clamped to the shard count"},
		},
		New: func(shards, keys int, p protocol.Values) Generator {
			return newSynthetic("hotwrite", shards, keys, p.Int("txn-keys"),
				hotPrefix(p.Int("hot-keys"), keys, p.Float("skew")), 0, false)
		},
	})
}
