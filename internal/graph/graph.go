// Package graph implements the undirected simple-graph substrate used by
// every other package in this repository — the two workloads of the
// paper's pipeline: edge rewiring (the §4.1.4 construction engines) and
// traversal-heavy metric sweeps (the §2 metric suite, §5 evaluation).
//
// Two representations are provided:
//
//   - Graph: a map-adjacency builder used at the ingestion boundary
//     (text and binary parsing) and as the differential-test reference.
//
//   - CSR: the mutable working representation every layer past
//     ingestion reads and rewires — sorted int32 neighbor windows with an
//     edge-index overlay (see csr.go). The traversal-heavy metric
//     computations (all-pairs BFS, betweenness, clustering, spectral
//     analysis) run directly on its windows.
//
// Nodes are identified by dense integers 0..N()-1. Self-loops and parallel
// edges are rejected; the Multigraph type in multigraph.go handles the
// intermediate non-simple stages of configuration-model construction.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between nodes U and V. Edges held inside a
// Graph are stored in canonical orientation (U < V), but the type itself
// does not enforce it so callers can construct edges in either order.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is a mutable undirected simple graph.
//
// The zero value is an empty graph with no nodes; use New to preallocate a
// node set. All mutating methods keep the internal edge list and adjacency
// index consistent, so a Graph is always in a valid state between calls.
// Graph is not safe for concurrent mutation.
type Graph struct {
	// adj[u] maps a neighbor v to the index of edge (u,v) in edges.
	adj []map[int]int
	// edges is the flat unordered edge list; each edge appears once in
	// canonical orientation.
	edges []Edge
}

// New returns an empty graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	g := &Graph{adj: make([]map[int]int, n)}
	return g
}

// NewFromEdges builds a graph with n nodes and the given edges.
// It returns an error if any edge is a self-loop, a duplicate, or refers to
// a node outside [0, n).
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddNode appends a new isolated node and returns its identifier.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HasEdge reports whether the edge (u,v) exists. Out-of-range arguments
// report false rather than panicking, which simplifies rewiring loops that
// probe speculative endpoints.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// AddEdge inserts the undirected edge (u,v).
// It returns an error for self-loops, duplicate edges, and out-of-range
// endpoints.
func (g *Graph) AddEdge(u, v int) error {
	switch {
	case u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj):
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	case u == v:
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if _, ok := g.adj[u][v]; ok {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{u, v}.Canon())
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]int, 4)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]int, 4)
	}
	g.adj[u][v] = idx
	g.adj[v][u] = idx
	return nil
}

// RemoveEdge deletes the undirected edge (u,v) and reports whether it was
// present. Removal is O(1): the deleted edge is swapped with the last entry
// of the edge list.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	idx, ok := g.adj[u][v]
	if !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	last := len(g.edges) - 1
	if idx != last {
		moved := g.edges[last]
		g.edges[idx] = moved
		g.adj[moved.U][moved.V] = idx
		g.adj[moved.V][moved.U] = idx
	}
	g.edges = g.edges[:last]
	return true
}

// EdgeAt returns the i'th edge of the internal edge list. Indices are only
// stable between mutations; the intended use is uniform random edge
// selection via EdgeAt(rng.Intn(g.M())).
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in canonical orientation.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// SortedEdges returns the edge list sorted lexicographically; useful for
// deterministic output and tests.
func (g *Graph) SortedEdges() []Edge {
	out := g.Edges()
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// VisitNeighbors calls f for every neighbor of u until f returns false.
// Iteration order is unspecified.
func (g *Graph) VisitNeighbors(u int, f func(v int) bool) {
	for v := range g.adj[u] {
		if !f(v) {
			return
		}
	}
}

// AppendNeighbors appends the neighbors of u to dst and returns the
// extended slice. Order is unspecified.
func (g *Graph) AppendNeighbors(dst []int, u int) []int {
	for v := range g.adj[u] {
		dst = append(dst, v)
	}
	return dst
}

// Neighbors returns a newly allocated, sorted slice of u's neighbors.
func (g *Graph) Neighbors(u int) []int {
	out := g.AppendNeighbors(make([]int, 0, len(g.adj[u])), u)
	sort.Ints(out)
	return out
}

// DegreeSequence returns the degree of every node, indexed by node.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, len(g.adj))
	for u := range g.adj {
		out[u] = len(g.adj[u])
	}
	return out
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average node degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(len(g.adj))
}

// EdgesCanonicallyOrdered reports whether the internal edge list is in
// sorted canonical order — the order EdgeAt exposes. Binary-decoded
// graphs are always in this order; parsed graphs follow input order.
func (g *Graph) EdgesCanonicallyOrdered() bool {
	for i := 1; i < len(g.edges); i++ {
		a, b := g.edges[i-1], g.edges[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			return false
		}
	}
	return true
}

// CanonicalClone returns a copy of g whose internal edge list is in
// sorted canonical order, so index-addressed edge draws (EdgeAt) are a
// pure function of the edge set rather than of construction order.
// Consumers that need run-to-run determinism independent of how a graph
// was loaded (text parse vs binary decode) normalize through this.
func (g *Graph) CanonicalClone() *Graph {
	edges := g.SortedEdges()
	c := &Graph{adj: make([]map[int]int, len(g.adj)), edges: edges}
	for u, m := range g.adj {
		if m != nil {
			c.adj[u] = make(map[int]int, len(m))
		}
	}
	for i, e := range edges {
		c.adj[e.U][e.V] = i
		c.adj[e.V][e.U] = i
	}
	return c
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([]map[int]int, len(g.adj)),
		edges: make([]Edge, len(g.edges)),
	}
	copy(c.edges, g.edges)
	for u, m := range g.adj {
		if m == nil {
			continue
		}
		cm := make(map[int]int, len(m))
		for v, idx := range m {
			cm[v] = idx
		}
		c.adj[u] = cm
	}
	return c
}

// Equal reports whether g and h have identical node counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for _, e := range g.edges {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// CommonNeighborCount returns the number of nodes adjacent to both u and v.
// It scans the smaller adjacency set.
func (g *Graph) CommonNeighborCount(u, v int) int {
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for w := range a {
		if _, ok := b[w]; ok {
			n++
		}
	}
	return n
}
