//go:build !race

// The race detector instruments the allocator, so the byte count below holds
// only without it: this file is left out of -race builds. What the sharing must
// never do under concurrency is internal/store's TestAttachedStoresAreIsolated.

package harness

import (
	"runtime"
	"testing"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/tiga"
	"tiga/internal/txn"
)

// TestReplicasShareOneSeedImage pins the structure behind tiga-reads-open's
// live heap, in counts: the benchmark's shape (Tiga, 6 shards, F=1, local
// reads, YCSB-T) at 20 000 keys per shard. Building it allocates the names,
// one name map and one version slab per shard, and a 4-byte reference per key
// and replica — ≈ 54 bytes per key-replica where seeding every replica on its
// own cost 132; no store owns a version chunk before its first write; and one
// committed write costs the replica that made it one chunk, its siblings none.
func TestReplicasShareOneSeedImage(t *testing.T) {
	const shards, replicas, keys = 6, 3, 20_000
	spec := ClusterSpec{
		Protocol: "Tiga", Workload: "ycsbt", WorkloadKeys: keys,
		WorkloadParams: map[string]any{"skew": 0.7, "read-ratio": 0.95},
		Shards:         shards, F: 1, Clock: clocks.ModelChrony,
		CoordsPerRegion: 2, CoordsRemote: 2, Seed: 42, CostScale: CPUScale,
	}
	spec.SetKnob("Tiga", "local-reads", true)
	if err := spec.EnsureGen(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := Build(spec)
	runtime.ReadMemStats(&m1)
	perKeyReplica := float64(m1.TotalAlloc-m0.TotalAlloc) / (shards * replicas * keys)
	t.Logf("Build allocated %.1f bytes per key-replica", perKeyReplica)
	if perKeyReplica > 65 {
		t.Errorf("Build allocated %.1f bytes per key-replica, want at most 65: a shard's replicas no longer share its seed image", perKeyReplica)
	}

	c := d.Sys.(*tiga.Cluster)
	for sh, reps := range c.Servers {
		if len(reps) != replicas {
			t.Fatalf("shard %d has %d replicas, want %d", sh, len(reps), replicas)
		}
		for rep, s := range reps {
			if st := s.Store(); st.Chunks() != 0 || st.Len() != keys || st.Versions() != keys {
				t.Errorf("shard %d replica %d: %d own chunks, %d keys, %d versions before the first write, want 0, %d, %d",
					sh, rep, st.Chunks(), st.Len(), st.Versions(), keys, keys)
			}
		}
	}
	// One replica rewrites key 7, prunes its seed version away, and re-seeds
	// key 8: everything that can drop an image version from a chain.
	writer := c.Servers[2][1].Store()
	id := txn.ID{Coord: 1, Seq: 1}
	writer.ExecuteID(id, txn.Timestamp{Time: time.Millisecond, Coord: 1, Seq: 1}, txn.IncrementPieceID("k2-7", 7))
	writer.Commit(id)
	if pruned := writer.PruneTo(time.Second); pruned != 1 {
		t.Errorf("PruneTo dropped %d versions, want the seed version of key 7", pruned)
	}
	writer.Seed("k2-8", txn.EncodeInt(5))
	if a, b := txn.DecodeInt(writer.GetID(7)), txn.DecodeInt(writer.GetID(8)); a != 1 || b != 5 || writer.Versions() != keys {
		t.Errorf("the writer reads %d and %d and holds %d versions, want 1, 5 and %d", a, b, writer.Versions(), keys)
	}
	for sh, reps := range c.Servers {
		for rep, s := range reps {
			st, want := s.Store(), 0
			if st == writer {
				want = 1
			}
			if got := st.Chunks(); got != want {
				t.Errorf("shard %d replica %d: %d own chunks after the writes on shard 2 replica 1, want %d", sh, rep, got, want)
			}
			if st == writer {
				continue
			}
			for _, k := range []txn.KeyID{7, 8} {
				if v, at, ok := st.GetAtID(k, 0); !ok || at != (txn.Timestamp{}) || v == nil || txn.DecodeInt(v) != 0 {
					t.Errorf("shard %d replica %d: the seed version of key %d reads %v %v %v", sh, rep, k, v, at, ok)
				}
			}
		}
	}
}
