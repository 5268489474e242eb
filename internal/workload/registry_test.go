package workload_test

// The registry tests live in an external test package so they can see the
// full registration set, including tpcc's init-time self-registration (which
// the workload package itself cannot import without a cycle).

import (
	"math/rand"
	"strings"
	"testing"

	"tiga/internal/store"
	"tiga/internal/tpcc" // importing tpcc registers the "tpcc" workload
	"tiga/internal/workload"
)

// TestWorkloadRegistryComplete pins the canonical workload set.
func TestWorkloadRegistryComplete(t *testing.T) {
	want := []string{"hotwrite", "micro", "tpcc", "uniform", "ycsbt"}
	got := workload.Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	for _, name := range want {
		def, ok := workload.Lookup(name)
		if !ok || def.Doc == "" {
			t.Fatalf("Lookup(%q) = %v, %v; want a documented definition", name, def, ok)
		}
	}
}

// TestWorkloadBuildValidation pins the failure modes: unknown workload names
// and bad parameters error with the valid alternatives named.
func TestWorkloadBuildValidation(t *testing.T) {
	if _, err := workload.Build("nosuch", 3, 100, nil); err == nil ||
		!strings.Contains(err.Error(), "micro") {
		t.Fatalf("unknown workload error %v does not list the registered names", err)
	}
	if _, err := workload.Build("ycsbt", 3, 100, map[string]any{"nosuch": 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown knob") {
		t.Fatalf("unknown parameter error = %v", err)
	}
	if _, err := workload.Build("ycsbt", 3, 100, map[string]any{"skew": "high"}); err == nil {
		t.Fatal("type-mismatched parameter accepted")
	}
}

// TestWorkloadBuildEveryGenerator builds each registered workload with
// defaults, seeds a store, and generates jobs — a new workload cannot
// register without producing executable transactions.
func TestWorkloadBuildEveryGenerator(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			gen, err := workload.Build(name, 3, 500, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := store.New()
			gen.Seed(0, st)
			if st.Len() == 0 {
				t.Fatal("Seed populated nothing")
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 50; i++ {
				job := gen.Next(rng)
				if job.T == nil && job.I == nil {
					t.Fatal("generator produced an empty job")
				}
			}
		})
	}
}

// TestYCSBTShape pins the new read-heavy mix: defaults produce mostly
// read-only transactions spanning 3 shards, and the read-ratio parameter is
// honored at the extremes.
func TestYCSBTShape(t *testing.T) {
	gen, err := workload.Build("ycsbt", 3, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	readOnly := 0
	const n = 2000
	for i := 0; i < n; i++ {
		job := gen.Next(rng)
		if len(job.T.Pieces) != 3 {
			t.Fatalf("txn spans %d shards, want 3", len(job.T.Pieces))
		}
		if job.T.ReadOnly {
			readOnly++
		}
	}
	// P(all 3 keys read) = 0.95^3 ≈ 0.857.
	if frac := float64(readOnly) / n; frac < 0.80 || frac > 0.92 {
		t.Fatalf("read-only fraction %.3f outside the expected band for read-ratio 0.95", frac)
	}
	allWrites, err := workload.Build("ycsbt", 3, 1000, map[string]any{"read-ratio": 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if job := allWrites.Next(rng); job.T.ReadOnly {
		t.Fatal("read-ratio 0 still produced a read-only txn")
	}
}

// TestHotWriteShape pins the stress mix: all writes, confined to the hot set.
func TestHotWriteShape(t *testing.T) {
	hot := 16
	gen, err := workload.Build("hotwrite", 3, 1000, map[string]any{"hot-keys": hot})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		job := gen.Next(rng)
		if job.T.ReadOnly {
			t.Fatal("hotwrite produced a read-only txn")
		}
		for _, p := range job.T.Pieces {
			sh := p.Shard()
			if len(p.WriteSet) != 1 {
				t.Fatal("each piece writes exactly one key")
			}
			for idx := 0; idx < hot; idx++ {
				if p.WriteSet[0] == workload.Key(sh, idx) {
					goto ok
				}
			}
			t.Fatalf("key %q outside the %d-key hot set", p.WriteSet[0], hot)
		ok:
		}
	}
}

// TestTPCCRegistryScaling checks the keys parameter reaches TPC-C's tables.
func TestTPCCRegistryScaling(t *testing.T) {
	gen, err := workload.Build("tpcc", 3, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gen.(*tpcc.Gen); !ok {
		t.Fatalf("tpcc workload built a %T", gen)
	}
	st := store.New()
	gen.Seed(0, st)
	if st.Len() == 0 {
		t.Fatal("tpcc seeded nothing")
	}
}
