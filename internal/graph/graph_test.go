package graph

import (
	"math/rand"
	"slices"
	"sort"
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

func TestSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(7, 7)
	g.AddEdge(7, 7)
	comps := g.SCC()
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != 7 {
		t.Fatalf("comps = %v", comps)
	}
	if g.Len() != 1 || g.Edges() != 1 {
		t.Fatalf("Len %d, Edges %d, want 1 and 1", g.Len(), g.Edges())
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
		ref := newRef()
		for _, e := range edges {
			ref.addEdge(uint64(e[0]%24), uint64(e[1]%24))
		}
		pos := make(map[uint64]int)
		for i, comp := range comps {
			for _, v := range comp {
				pos[v] = i
			}
		}
		for i, comp := range comps {
			for _, v := range comp {
				for _, w := range ref.neighbors(v) {
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

// sameSCC reports whether g and its reference have the same vertex and edge
// counts and the same components in the same order.
func sameSCC(g *Graph, ref *refGraph) bool {
	if g.Len() != ref.len() || g.Edges() != ref.edgeCount() {
		return false
	}
	return slices.EqualFunc(g.SCC(), ref.scc(), slices.Equal[[]uint64])
}

// build adds each op to g and ref: an edge data[i] -> data[i+1] over n
// vertices, or, when data[i] has its top bit set, the vertex data[i+1] alone.
func build(g *Graph, ref *refGraph, data []byte, n int) {
	for i := 0; i+1 < len(data); i += 2 {
		u, v := uint64(data[i]&0x7f)%uint64(n), uint64(data[i+1])%uint64(n)
		if data[i]&0x80 != 0 {
			g.AddNode(v)
			ref.addNode(v)
			continue
		}
		g.AddEdge(u, v)
		ref.addEdge(u, v)
	}
}

// TestSCCMatchesReference: on random graphs with duplicate edges, self-loops
// and lone vertices, SCC gives the map-based reference's components in its
// order, and Len and Edges agree. One graph is Reset and rebuilt for every
// case, so a stale list or index left by an earlier build would show.
func TestSCCMatchesReference(t *testing.T) {
	g := New()
	check := func(data []byte, small bool) bool {
		n := 64
		if small {
			n = 8 // dense: long cycles and many duplicate edges
		}
		g.Reset()
		ref := newRef()
		build(g, ref, data, n)
		return sameSCC(g, ref)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzSCC builds a graph from the input, then Resets it and builds a second
// from the input's second half, checking both against the reference.
func FuzzSCC(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1, 4, 1, 5, 4, 6, 6})
	f.Add([]byte{0, 0, 0, 0, 0x80, 9, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		for _, part := range [][]byte{data, data[len(data)/2:]} {
			g.Reset()
			ref := newRef()
			build(g, ref, part, 16)
			if !sameSCC(g, ref) {
				t.Fatalf("SCC %v (Len %d, Edges %d), reference %v (Len %d, Edges %d)",
					g.SCC(), g.Len(), g.Edges(), ref.scc(), ref.len(), ref.edgeCount())
			}
		}
	})
}

// TestSCCAllocatesNothingOnceWarm: Reset, a build and SCC reuse the graph's
// buffers, so once they have grown a rebuild of the same size allocates
// nothing.
func TestSCCAllocatesNothingOnceWarm(t *testing.T) {
	g := New()
	rebuild := func() {
		g.Reset()
		for v := uint64(0); v < 200; v++ {
			g.AddEdge(v, (v+1)%200)
			g.AddEdge(v, (v+1)%200)
			if v%10 == 9 {
				g.AddEdge(v, v-9)
				g.AddEdge(v, v)
			}
		}
		g.AddNode(1000)
		if len(g.SCC()) != 2 {
			t.Fatal("want the ring and the lone vertex")
		}
	}
	rebuild()
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Fatalf("%.1f allocations per rebuild, want 0", allocs)
	}
}

// refGraph is the map-based Graph that SCC replaced, kept as the reference
// TestSCCMatchesReference and FuzzSCC hold it to: maps of successor sets,
// Tarjan state in maps, and successors sorted afresh at every visit.
type refGraph struct {
	adj map[uint64]map[uint64]struct{}
}

func newRef() *refGraph { return &refGraph{adj: make(map[uint64]map[uint64]struct{})} }

func (g *refGraph) addNode(v uint64) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[uint64]struct{})
	}
}

func (g *refGraph) addEdge(u, v uint64) {
	g.addNode(u)
	g.addNode(v)
	g.adj[u][v] = struct{}{}
}

func (g *refGraph) len() int { return len(g.adj) }

func (g *refGraph) edgeCount() int {
	n := 0
	for _, out := range g.adj {
		n += len(out)
	}
	return n
}

// neighbors returns v's out-neighbors in sorted order.
func (g *refGraph) neighbors(v uint64) []uint64 {
	out := make([]uint64, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *refGraph) scc() [][]uint64 {
	index := make(map[uint64]int, len(g.adj))
	low := make(map[uint64]int, len(g.adj))
	onStack := make(map[uint64]bool, len(g.adj))
	var stack []uint64
	var comps [][]uint64
	next := 0

	vertices := make([]uint64, 0, len(g.adj))
	for v := range g.adj {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })

	type frame struct {
		v     uint64
		succs []uint64
		i     int
	}
	for _, root := range vertices {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{v: root, succs: g.neighbors(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: g.neighbors(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []uint64
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
