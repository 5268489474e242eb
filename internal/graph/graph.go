// Package graph implements the dependency-graph machinery of the Janus
// baseline: strongly-connected-component computation (Tarjan) for
// deterministic execution of conflict cycles — the "intensive graph
// algorithms" whose CPU cost Tiga's evaluation contrasts against timestamp
// ordering (§1, §5.2).
//
// A Graph is built, solved and then reused for the next build: Reset empties
// it but keeps every buffer. Vertices get dense indices through one map,
// adjacency lists are kept per index, and SCC runs Tarjan over slices indexed
// the same way, writing its components into one flat buffer. Once its buffers
// have grown to the largest graph seen, building and solving allocate
// nothing, which is what lets a Janus replica resolve a conflict cycle on
// every blocked commit without allocating.
package graph

import "slices"

// Graph is a directed graph over transaction vertices identified by uint64.
type Graph struct {
	idx   map[uint64]int32 // vertex id -> dense index
	ids   []uint64         // dense index -> vertex id
	adj   [][]int32        // out-neighbours by dense index: distinct, ascending by id
	edges int

	// SCC's state, indexed by dense index, and its result.
	index, low []int32
	onStack    []bool
	stack      []int32
	frames     []frame
	roots      []uint64
	flat       []uint64
	comps      [][]uint64
}

// frame is one vertex of Tarjan's iterative depth-first search: v and the
// position of the next successor to take.
type frame struct{ v, i int32 }

// New returns an empty graph.
func New() *Graph { return &Graph{idx: make(map[uint64]int32)} }

// Reset empties the graph and keeps its storage for the next build. It
// invalidates the last SCC result.
func (g *Graph) Reset() {
	clear(g.idx)
	g.ids, g.adj, g.edges = g.ids[:0], g.adj[:0], 0
}

// AddNode ensures v exists.
func (g *Graph) AddNode(v uint64) { g.node(v) }

// Has reports whether v is a vertex.
func (g *Graph) Has(v uint64) bool {
	_, ok := g.idx[v]
	return ok
}

// node returns v's dense index, adding v with an empty (reused) adjacency
// list if it is new.
func (g *Graph) node(v uint64) int32 {
	if i, ok := g.idx[v]; ok {
		return i
	}
	i := int32(len(g.ids))
	g.idx[v] = i
	g.ids = append(g.ids, v)
	g.adj = slices.Grow(g.adj, 1)[:i+1]
	g.adj[i] = g.adj[i][:0] // the list a vertex had before a Reset, if any
	return i
}

// AddEdge adds a dependency edge u -> v (u must execute before v... or, in
// Janus terms, v depends on u). Adding an edge twice adds it once.
func (g *Graph) AddEdge(u, v uint64) {
	iu, iv := g.node(u), g.node(v)
	out := g.adj[iu]
	at := len(out) // edges usually come in ascending order: scan from the end
	for at > 0 && g.ids[out[at-1]] >= v {
		at--
	}
	if at < len(out) && out[at] == iv {
		return
	}
	g.adj[iu] = slices.Insert(out, at, iv)
	g.edges++
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// Edges returns the number of distinct edges (test helper / cost model
// input).
func (g *Graph) Edges() int { return g.edges }

// SCC computes strongly connected components with Tarjan's algorithm,
// returned in reverse topological order (dependencies first). Roots and
// successors are taken in ascending id order and the vertices inside a
// component are sorted ascending, giving the deterministic tie-break Janus
// uses to execute cyclic conflicts identically on every server. The result
// lives in the graph's buffers: it is valid until the next SCC or Reset.
func (g *Graph) SCC() [][]uint64 {
	n := len(g.ids)
	g.index = slices.Grow(g.index[:0], n)[:n]
	for i := range g.index {
		g.index[i] = -1
	}
	g.low = slices.Grow(g.low[:0], n)[:n]
	g.onStack = slices.Grow(g.onStack[:0], n)[:n]
	clear(g.onStack)
	g.stack, g.comps = g.stack[:0], g.comps[:0]
	g.flat = slices.Grow(g.flat[:0], n) // holds every vertex once: never moves
	g.roots = append(g.roots[:0], g.ids...)
	slices.Sort(g.roots)

	next := int32(0)
	open := func(v int32) {
		g.index[v], g.low[v] = next, next
		next++
		g.stack = append(g.stack, v)
		g.onStack[v] = true
		g.frames = append(g.frames, frame{v: v})
	}
	// Iterative Tarjan to avoid deep recursion on long dependency chains.
	for _, id := range g.roots {
		if root := g.idx[id]; g.index[root] < 0 {
			open(root)
		}
		for len(g.frames) > 0 {
			f := &g.frames[len(g.frames)-1]
			if out := g.adj[f.v]; int(f.i) < len(out) {
				w := out[f.i]
				f.i++
				if g.index[w] < 0 {
					open(w)
				} else if g.onStack[w] && g.index[w] < g.low[f.v] {
					g.low[f.v] = g.index[w]
				}
				continue
			}
			// All successors processed: pop.
			v := f.v
			g.frames = g.frames[:len(g.frames)-1]
			if len(g.frames) > 0 {
				p := &g.frames[len(g.frames)-1]
				g.low[p.v] = min(g.low[p.v], g.low[v])
			}
			if g.low[v] == g.index[v] {
				start := len(g.flat)
				for {
					w := g.stack[len(g.stack)-1]
					g.stack = g.stack[:len(g.stack)-1]
					g.onStack[w] = false
					g.flat = append(g.flat, g.ids[w])
					if w == v {
						break
					}
				}
				comp := g.flat[start:len(g.flat):len(g.flat)]
				slices.Sort(comp)
				g.comps = append(g.comps, comp)
			}
		}
	}
	return g.comps
}
