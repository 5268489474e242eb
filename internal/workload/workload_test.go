package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tiga/internal/store"
	"tiga/internal/txn"
)

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000, 0.99)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

// TestZipfianSkewMonotone: higher skew concentrates more mass on hot keys.
func TestZipfianSkewMonotone(t *testing.T) {
	hotMass := func(skew float64) float64 {
		z := NewZipfian(10000, skew)
		rng := rand.New(rand.NewSource(7))
		hot := 0
		const n = 40000
		for i := 0; i < n; i++ {
			if z.Next(rng) < 100 {
				hot++
			}
		}
		return float64(hot) / n
	}
	m50, m90, m99 := hotMass(0.5), hotMass(0.9), hotMass(0.99)
	if !(m50 < m90 && m90 < m99) {
		t.Fatalf("hot-key mass not monotone in skew: %.3f %.3f %.3f", m50, m90, m99)
	}
	if m99 < 0.3 {
		t.Fatalf("skew 0.99 hot mass %.3f too low", m99)
	}
}

// TestZipfianFrequencyShape: empirical frequency of rank-1 vs rank-10 keys
// roughly follows 1/i^theta.
func TestZipfianFrequencyShape(t *testing.T) {
	z := NewZipfian(100000, 0.99)
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}
	r1, r10 := float64(counts[0]), float64(counts[9])
	if r1 == 0 || r10 == 0 {
		t.Skip("insufficient samples for shape check")
	}
	want := math.Pow(10, 0.99)
	got := r1 / r10
	if got < want/3 || got > want*3 {
		t.Fatalf("rank1/rank10 frequency ratio %.1f; want within 3x of %.1f", got, want)
	}
}

// TestMicroBenchShape: three single-key increments on three distinct shards,
// each piece's key named and numbered by its own shard.
func TestMicroBenchShape(t *testing.T) {
	m := NewMicroBench(3, 100, 0.5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		job := m.Next(rng)
		if job.T == nil {
			t.Fatal("microbench produces one-shot txns")
		}
		if len(job.T.Pieces) != 3 {
			t.Fatalf("txn spans %d shards, want 3", len(job.T.Pieces))
		}
		seen := map[int]bool{}
		for _, p := range job.T.Pieces {
			if len(p.ReadSet) != 1 || len(p.WriteSet) != 1 || len(p.ReadIDs) != 1 {
				t.Fatal("each piece touches exactly one key")
			}
			if want := Key(p.Shard(), int(p.ReadIDs[0])); p.ReadSet[0] != want {
				t.Fatalf("piece on shard %d names %q, want %q", p.Shard(), p.ReadSet[0], want)
			}
			seen[p.Shard()] = true
		}
		if len(seen) != 3 {
			t.Fatalf("txn's pieces are on %d distinct shards, want 3", len(seen))
		}
	}
}

func TestMicroBenchSeed(t *testing.T) {
	m := NewMicroBench(3, 50, 0.5)
	st := store.New()
	m.Seed(1, st)
	if st.Len() != 50 {
		t.Fatalf("seeded %d keys, want 50", st.Len())
	}
	if txn.DecodeInt(st.Get(Key(1, 0))) != 0 {
		t.Fatal("seeds start at zero")
	}
}

func TestMicroBenchExecutable(t *testing.T) {
	m := NewMicroBench(3, 50, 0.9)
	rng := rand.New(rand.NewSource(9))
	sts := []*store.Store{store.New(), store.New(), store.New()}
	for s := range sts {
		m.Seed(s, sts[s])
	}
	total := 0
	for i := 0; i < 100; i++ {
		job := m.Next(rng)
		for j := range job.T.Pieces {
			p := &job.T.Pieces[j]
			sts[p.Shard()].ExecuteID(txn.ID{Coord: 1, Seq: uint64(i + 1)}, txn.Timestamp{}, p)
			sts[p.Shard()].Commit(txn.ID{Coord: 1, Seq: uint64(i + 1)})
			total++
		}
	}
	// Sum of all counters equals the number of executed pieces.
	var sum int64
	for s := range sts {
		for i := 0; i < 50; i++ {
			sum += txn.DecodeInt(sts[s].Get(Key(s, i)))
		}
	}
	if sum != int64(total) {
		t.Fatalf("counter sum %d, want %d", sum, total)
	}
}

// build resolves a registered synthetic workload.
func build(t *testing.T, name string, shards, keys int, params map[string]any) *Synthetic {
	t.Helper()
	gen, err := Build(name, shards, keys, params)
	if err != nil {
		t.Fatal(err)
	}
	return gen.(*Synthetic)
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	job := build(t, "uniform", 2, 10, map[string]any{"read-ratio": 1.0}).Next(rng)
	if !job.T.ReadOnly {
		t.Fatal("ReadRatio 1.0 must yield reads")
	}
	job = build(t, "uniform", 2, 10, map[string]any{"read-ratio": 0.0}).Next(rng)
	if job.T.ReadOnly {
		t.Fatal("ReadRatio 0 must yield writes")
	}
}

// perPiece builds, from the same draws in the same order, the transaction the
// generators built before their pieces shared one arena: one constructor call
// per key, a read with probability readRatio and an increment otherwise.
func perPiece(rng *rand.Rand, z *Zipfian, shards, n int, readRatio float64) ([]txn.Piece, bool) {
	out := make([]txn.Piece, 0, n)
	start := rng.Intn(shards)
	readOnly := true
	for i := 0; i < n; i++ {
		sh := (start + i) % shards
		idx := z.Next(rng)
		if readRatio > 0 && rng.Float64() < readRatio {
			out = append(out, txn.ReadPieceID(Key(sh, idx), KeyID(idx)).On(sh))
		} else {
			out = append(out, txn.IncrementPieceID(Key(sh, idx), KeyID(idx)).On(sh))
			readOnly = false
		}
	}
	return txn.ByShard(out...), readOnly
}

// TestGeneratedJobsMatchThePerPieceConstruction: same rng draws, same keys,
// same declared sets, same operation, whether the job's pieces come out of the
// arena (up to arenaKeys of them) or out of the arrays behind a wider one.
func TestGeneratedJobsMatchThePerPieceConstruction(t *testing.T) {
	const shards, keys = 6, 200
	check := func(name string, gen *Synthetic, n int, readRatio float64) {
		t.Helper()
		a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			got := gen.Next(a).T
			want, readOnly := perPiece(b, gen.zipf, shards, n, readRatio)
			if got.ReadOnly != readOnly || !reflect.DeepEqual(got.Pieces, want) {
				t.Fatalf("%s job %d: read-only %v, pieces %+v; want %v, %+v", name, i, got.ReadOnly, got.Pieces, readOnly, want)
			}
		}
	}
	for _, n := range []int{1, arenaKeys, arenaKeys + 2} {
		check(fmt.Sprintf("ycsbt/%d", n), build(t, "ycsbt", shards, keys,
			map[string]any{"skew": 0.7, "read-ratio": 0.6, "txn-keys": n}), n, 0.6)
		check(fmt.Sprintf("hotwrite/%d", n), build(t, "hotwrite", shards, keys,
			map[string]any{"skew": 0.9, "hot-keys": 16, "txn-keys": n}), n, 0)
	}
	check("micro", NewMicroBench(shards, keys, 0.5), 3, 0)
}

// TestGeneratorsAllocatePerJob pins what a generated job costs: its arena,
// which is the transaction and its Pieces — nothing else, nothing per key.
func TestGeneratorsAllocatePerJob(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sink Job
	per := func(gen Generator) float64 {
		for i := 0; i < 100; i++ {
			gen.Next(rng) // the first draw on a shard formats its key names
		}
		return testing.AllocsPerRun(200, func() { sink = gen.Next(rng) })
	}
	var ycsbt [arenaKeys + 1]float64
	for n := 1; n <= arenaKeys; n++ {
		ycsbt[n] = per(build(t, "ycsbt", 3, 100, map[string]any{"txn-keys": n}))
	}
	micro := per(NewMicroBench(3, 100, 0.5))
	uniform := per(build(t, "uniform", 3, 100, nil))
	t.Logf("allocations per Next: ycsbt %v (by keys), micro %.0f, uniform %.0f", ycsbt[1:], micro, uniform)
	if ycsbt[arenaKeys] != 1 || micro != 1 || uniform != 1 {
		t.Errorf("a job allocates %.0f (3-key ycsbt) / %.0f (micro) / %.0f (uniform) objects, want the arena (1)",
			ycsbt[arenaKeys], micro, uniform)
	}
	if ycsbt[1] != ycsbt[arenaKeys] {
		t.Errorf("a 1-key job allocates %.0f objects and a %d-key job %.0f: something is allocated per key",
			ycsbt[1], arenaKeys, ycsbt[arenaKeys])
	}
	_ = sink
}

// TestSyntheticNamesAreCarved: a shard's carved name table holds Key(shard, i)
// at id i, and building it costs the same few allocations however many keys
// the shard has.
func TestSyntheticNamesAreCarved(t *testing.T) {
	for _, shard := range []int{0, 7, 12} {
		for _, keys := range []int{0, 1, 11, 1000, 25_000} {
			got := keyNames(shard, keys)
			if len(got) != keys {
				t.Fatalf("shard %d: %d names, want %d", shard, len(got), keys)
			}
			for i, name := range got {
				if want := Key(shard, i); name != want {
					t.Fatalf("shard %d: name %d is %q, want %q", shard, i, name, want)
				}
			}
			if allocs := testing.AllocsPerRun(3, func() { keyNames(shard, keys) }); allocs > 4 {
				t.Errorf("shard %d: building %d names cost %v allocations, want at most 4", shard, keys, allocs)
			}
		}
	}
}
