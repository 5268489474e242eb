package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCSimpleCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	comps := g.SCC()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("comps = %v, want one 3-cycle", comps)
	}
}

func TestSCCChainIsReverseTopological(t *testing.T) {
	g := New()
	// 3 depends on 2 depends on 1 (edges point at dependencies).
	g.AddEdge(3, 2)
	g.AddEdge(2, 1)
	comps := g.SCC()
	if len(comps) != 3 {
		t.Fatalf("want 3 singleton components, got %v", comps)
	}
	// Dependencies first: 1, 2, 3.
	for i, want := range []uint64{1, 2, 3} {
		if comps[i][0] != want {
			t.Fatalf("comps = %v, want deps-first order", comps)
		}
	}
}

func TestSCCTwoCyclesBridge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	g.AddEdge(3, 1) // second cycle depends on first
	comps := g.SCC()
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %v", comps)
	}
	if comps[0][0] != 1 || comps[1][0] != 3 {
		t.Fatalf("dependency order wrong: %v", comps)
	}
}

func TestSCCDeterministic(t *testing.T) {
	build := func(perm []int) [][]uint64 {
		g := New()
		edges := [][2]uint64{{1, 2}, {2, 3}, {3, 1}, {4, 1}, {5, 4}, {6, 6}}
		for _, i := range perm {
			g.AddEdge(edges[i][0], edges[i][1])
		}
		return g.SCC()
	}
	a := build([]int{0, 1, 2, 3, 4, 5})
	b := build([]int{5, 3, 1, 4, 0, 2})
	if len(a) != len(b) {
		t.Fatal("non-deterministic SCC count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("component %d differs: %v vs %v", i, a, b)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("component %d differs: %v vs %v", i, a, b)
			}
		}
	}
}

func TestHasCycleFrom(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.HasCycleFrom(1) {
		t.Fatal("chain has no cycle")
	}
	g.AddEdge(3, 1)
	if !g.HasCycleFrom(1) {
		t.Fatal("cycle undetected")
	}
	if !g.HasCycleFrom(2) {
		t.Fatal("cycle undetected from 2")
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(7, 7)
	if !g.HasCycleFrom(7) {
		t.Fatal("self-loop is a cycle")
	}
	comps := g.SCC()
	if len(comps) != 1 || comps[0][0] != 7 {
		t.Fatalf("comps = %v", comps)
	}
}

// Property: every vertex appears in exactly one SCC, and the SCC partition
// covers the graph.
func TestSCCPartitionProperty(t *testing.T) {
	check := func(edges [][2]uint8) bool {
		g := New()
		for _, e := range edges {
			g.AddEdge(uint64(e[0]%32), uint64(e[1]%32))
		}
		seen := make(map[uint64]int)
		for _, comp := range g.SCC() {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != g.Len() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: components appear in dependency order — no component contains an
// edge pointing to a later component.
func TestSCCTopologicalProperty(t *testing.T) {
	check := func(edges [][2]uint8) bool {
		g := New()
		for _, e := range edges {
			g.AddEdge(uint64(e[0]%24), uint64(e[1]%24))
		}
		comps := g.SCC()
		pos := make(map[uint64]int)
		for i, comp := range comps {
			for _, v := range comp {
				pos[v] = i
			}
		}
		for i, comp := range comps {
			for _, v := range comp {
				for _, w := range g.Neighbors(v) {
					if pos[w] > i {
						return false // dependency ordered after dependent
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
