// Package workload implements the paper's benchmark workloads (§5.1): a
// MicroBench of 3-key read-modify-write transactions with Zipfian-skewed key
// selection, and a generic job model that also carries TPC-C's interactive
// transactions.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"tiga/internal/protocol"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Job is one unit of load: either a one-shot transaction or an interactive
// (multi-shot) transaction chain.
type Job struct {
	T     *txn.Txn
	I     *txn.Interactive
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

// MicroBench is the paper's micro-benchmark: each shard is pre-populated with
// Keys key-value pairs; each transaction increments 3 keys on 3 different
// shards, selected with a Zipfian distribution (§5.1).
type MicroBench struct {
	Shards int
	Keys   int
	Skew   float64
	zipf   *Zipfian
	names  keycache
}

// NewMicroBench builds the generator. Keys defaults to 1M per the paper; use
// fewer in unit tests.
func NewMicroBench(shards, keys int, skew float64) *MicroBench {
	return &MicroBench{Shards: shards, Keys: keys, Skew: skew, zipf: NewZipfian(keys, skew)}
}

// Key names a MicroBench key.
func Key(shard, idx int) string { return fmt.Sprintf("k%d-%d", shard, idx) }

// KeyID is the interned form of a key: its dense index within one shard's
// seeded keyspace. The generators here seed each shard from a store.Image of
// the keycache's idx-ordered name slice, so the workload key index and the
// store's intern id coincide by construction — Key(shard, i) is always id i of
// shard's store — and pieces can carry ids without any lookup.
type KeyID = txn.KeyID

// keycache memoizes the formatted names of a shard-indexed keyspace and the
// seed image built from them. Seeding R replicated stores and sampling
// millions of keys per run otherwise re-run fmt.Sprintf for names that never
// change, and hash every name once per replica; the cache builds each shard's
// names and image once and every replica's store attaches to the same image.
// Generators are private to one experiment point (see harness.SpecRun), so
// the cache needs no locking.
type keycache struct {
	shards [][]string
	images []*store.Image
}

// shard returns the cached names of one shard's full keyspace, building them
// on first use.
func (c *keycache) shard(shard, keys int) []string {
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
func (c *keycache) seed(shard, keys int, st *store.Store) {
	names := c.shard(shard, keys)
	if c.images[shard] == nil {
		c.images[shard] = store.NewImage(names, func(int) []byte { return txn.EncodeInt(0) })
	}
	st.Attach(c.images[shard])
}

// key returns one cached key name.
func (c *keycache) key(shard, keys, idx int) string {
	return c.shard(shard, keys)[idx]
}

// Seed pre-populates a shard (values start at zero).
func (m *MicroBench) Seed(shard int, st *store.Store) {
	m.names.seed(shard, m.Keys, st)
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

// Next generates one 3-shard increment transaction. The rng draw sequence and
// the transaction's content are identical to building each piece with
// txn.IncrementPiece.
func (m *MicroBench) Next(rng *rand.Rand) Job {
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

// Uniform is a uniformly-distributed single-key read/write mix used by a few
// unit tests and the quickstart example.
type Uniform struct {
	Shards    int
	Keys      int
	ReadRatio float64
	names     keycache
}

// Seed pre-populates a shard.
func (u *Uniform) Seed(shard int, st *store.Store) {
	u.names.seed(shard, u.Keys, st)
}

// Next generates a single-shard read or increment.
func (u *Uniform) Next(rng *rand.Rand) Job {
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
			return &Uniform{Shards: shards, Keys: keys, ReadRatio: p.Float("read-ratio")}
		},
	})
}
