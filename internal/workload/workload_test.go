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
		for _, p := range job.T.Pieces {
			if len(p.ReadSet) != 1 || len(p.WriteSet) != 1 {
				t.Fatal("each piece touches exactly one key")
			}
			if p.ReadSet[0] != Key(p.Shard(), int(keyIdx(p.ReadSet[0]))) && false {
				t.Fatal("key shape")
			}
		}
	}
}

func keyIdx(string) int64 { return 0 }

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

func TestUniform(t *testing.T) {
	u := &Uniform{Shards: 2, Keys: 10, ReadRatio: 1.0}
	rng := rand.New(rand.NewSource(2))
	job := u.Next(rng)
	if !job.T.ReadOnly {
		t.Fatal("ReadRatio 1.0 must yield reads")
	}
	u.ReadRatio = 0
	job = u.Next(rng)
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
	check := func(name string, gen Generator, z *Zipfian, n int, readRatio float64) {
		t.Helper()
		a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			got := gen.Next(a).T
			want, readOnly := perPiece(b, z, shards, n, readRatio)
			if got.ReadOnly != readOnly || !reflect.DeepEqual(got.Pieces, want) {
				t.Fatalf("%s job %d: read-only %v, pieces %+v; want %v, %+v", name, i, got.ReadOnly, got.Pieces, readOnly, want)
			}
		}
	}
	for _, n := range []int{1, arenaKeys, arenaKeys + 2} {
		y := NewYCSBT(shards, keys, 0.7, 0.6, n)
		check(fmt.Sprintf("ycsbt/%d", n), y, y.zipf, n, 0.6)
		h := NewHotWrite(shards, keys, 16, 0.9, n)
		check(fmt.Sprintf("hotwrite/%d", n), h, h.zipf, n, 0)
	}
	m := NewMicroBench(shards, keys, 0.5)
	check("micro", m, m.zipf, 3, 0)
}

// TestGeneratorsAllocatePerJob pins what a generated job costs: its arena,
// which is the transaction and its Pieces — nothing else, nothing per key.
func TestGeneratorsAllocatePerJob(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sink Job
	per := func(gen Generator) float64 {
		gen.Next(rng) // the first draw of a shard formats its key names
		return testing.AllocsPerRun(200, func() { sink = gen.Next(rng) })
	}
	var ycsbt [arenaKeys + 1]float64
	for n := 1; n <= arenaKeys; n++ {
		ycsbt[n] = per(NewYCSBT(3, 100, 0.7, 0.95, n))
	}
	micro := per(NewMicroBench(3, 100, 0.5))
	t.Logf("allocations per Next: ycsbt %v (by keys), micro %.0f", ycsbt[1:], micro)
	if ycsbt[arenaKeys] != 1 || micro != 1 {
		t.Errorf("a 3-key job allocates %.0f (ycsbt) / %.0f (micro) objects, want the arena (1)", ycsbt[arenaKeys], micro)
	}
	if ycsbt[1] != ycsbt[arenaKeys] {
		t.Errorf("a 1-key job allocates %.0f objects and a %d-key job %.0f: something is allocated per key",
			ycsbt[1], arenaKeys, ycsbt[arenaKeys])
	}
	_ = sink
}
