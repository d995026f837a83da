package generate

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ConnectViaSwaps makes the non-isolated part of g connected (in place)
// without changing any node's degree, using the reconnection technique of
// Viger–Latapy (the paper's reference [31]): swap a *cycle* (non-bridge)
// edge (u,v) of one component with any edge (x,y) of another, rewiring to
// (u,y),(x,v). Removing a non-bridge leaves its component whole, and the
// two new edges tie every piece of the other component to it, so each
// swap reduces the number of edge-bearing components by exactly one.
//
// Degree-preserving connection is possible iff the total edge count is at
// least (non-isolated nodes − 1); equivalently, whenever two or more
// edge-bearing components remain, at least one of them contains a cycle.
// A forest input therefore returns an error; infeasibility is detected
// up front, before any swap, so a failed call leaves g untouched.
// Isolated (degree-0) nodes can never be attached by degree-preserving
// moves; their count is returned.
//
// Cost is O(n + m + c) for c components: one spanning-forest pass
// classifies every edge as tree edge or chord, and each of the c−1
// merges then runs in O(1) amortized. A chord closes a cycle with
// spanning-tree edges, so it is never a bridge of its component, and the
// merge bookkeeping below keeps every tracked chord cycle-closing
// without ever recomputing bridges (see connectState.merge).
func ConnectViaSwaps(g *graph.CSR, rng *rand.Rand) (isolated int, err error) {
	if rng == nil {
		return 0, fmt.Errorf("generate: ConnectViaSwaps requires rng")
	}
	st := newConnectState(g)
	isolated = st.isolated
	if len(st.comps) <= 1 {
		return isolated, nil
	}
	// Feasibility: each merge consumes exactly one chord (one independent
	// cycle) overall, so connecting c edge-bearing components needs at
	// least c−1 chords — equivalently m >= n−1 over non-isolated nodes.
	if st.chords < len(st.comps)-1 {
		return isolated, fmt.Errorf(
			"generate: cannot connect: %d components but only %d cycles (m < n-1 over non-isolated nodes)",
			len(st.comps), st.chords)
	}
	// Grow a hub component, merging every other component into it.
	// Chord-bearing components are merged first so the hub's chord list
	// can only run dry after every remaining component is a tree — at
	// which point the feasibility check above guarantees enough chords
	// are banked for the tree merges.
	hub := st.comps[0]
	for _, b := range st.comps[1:] {
		st.merge(g, rng, hub, b)
	}
	return isolated, nil
}

// connectComp is the per-component edge bookkeeping of a connect run:
// the component's edges split into spanning-tree edges and chords
// (non-tree edges). Chords are exactly the component's independent
// cycles; a component is a tree iff it has none.
type connectComp struct {
	tree   []graph.Edge
	chords []graph.Edge
}

// connectState is the upfront analysis of the input graph.
type connectState struct {
	comps    []*connectComp // edge-bearing components, chord-bearing first
	chords   int            // total chords across all components
	isolated int            // degree-0 node count
}

// newConnectState runs the single O(n + m) pass: a traversal forest
// over g, classifying each edge as tree edge or chord and grouping them
// by component. The traversal walks the CSR's sorted neighbor windows,
// so the tree/chord split is a pure function of the edge set and the
// same seed always produces the same connected graph.
func newConnectState(g *graph.CSR) *connectState {
	st := &connectState{}
	n := g.N()
	visited := make([]bool, n)
	parent := make([]int32, n)
	var withChords, trees []*connectComp
	queue := make([]int32, 0, 64)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		if g.Degree(root) == 0 {
			st.isolated++
			visited[root] = true
			continue
		}
		c := &connectComp{}
		visited[root] = true
		parent[root] = -1
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				switch {
				case !visited[v]:
					visited[v] = true
					parent[v] = u
					c.tree = append(c.tree, graph.Edge{U: int(u), V: int(v)}.Canon())
					queue = append(queue, v)
				case v != parent[u] && int(v) > int(u):
					// Non-tree edge. The parent check keeps the tree
					// edge to u's traversal parent out (in a simple
					// graph it is the only edge between u and its
					// parent), and the v > u check deduplicates the
					// two visits every non-tree edge gets — one from
					// each endpoint, both after the endpoints are
					// marked visited.
					c.chords = append(c.chords, graph.Edge{U: int(u), V: int(v)}.Canon())
				}
			}
		}
		st.chords += len(c.chords)
		if len(c.chords) > 0 {
			withChords = append(withChords, c)
		} else {
			trees = append(trees, c)
		}
	}
	st.comps = append(withChords, trees...)
	return st
}

// merge connects component b into the hub with one Viger–Latapy swap and
// folds b's edge lists into the hub's. One side of the swap donates a
// chord (guaranteed non-bridge: its cycle runs through spanning-tree
// edges that are never removed); the other side donates a chord too when
// it has one, otherwise any tree edge. Removing a chord keeps its
// component's spanning tree intact; removing a tree edge splits the tree
// into two parts, each tied to the other component by one of the new
// edges. In both cases the merged component stays connected, the merged
// spanning tree is exact, and the chord count drops by exactly one:
//
//	chord + chord:     both consumed, one new edge re-enters as a chord
//	chord + tree edge: chord consumed, both new edges become tree edges
func (st *connectState) merge(g *graph.CSR, rng *rand.Rand, hub, b *connectComp) {
	// e1 is the guaranteed chord; e2 comes from the other side.
	var e1, e2 graph.Edge
	bothChords := false
	switch {
	case len(hub.chords) > 0 && len(b.chords) > 0:
		e1 = takeAt(&hub.chords, rng.Intn(len(hub.chords)))
		e2 = takeAt(&b.chords, rng.Intn(len(b.chords)))
		bothChords = true
	case len(hub.chords) > 0:
		e1 = takeAt(&hub.chords, rng.Intn(len(hub.chords)))
		e2 = takeAt(&b.tree, rng.Intn(len(b.tree)))
	default:
		// Unreachable: chord-bearing components merge first and those
		// merges never shrink the hub's chord list, so once tree merges
		// begin the hub holds every remaining chord, and the upfront
		// feasibility check (one chord consumed per merge) keeps it
		// nonempty until the last merge completes.
		panic("generate: connect invariant violated: hub has no chords mid-merge")
	}
	u, v := e1.U, e1.V
	x, y := e2.U, e2.V
	if rng.Intn(2) == 0 {
		x, y = y, x
	}
	// Endpoints lie in different components, so all four are distinct
	// and neither (u,y) nor (x,v) can already exist.
	g.RemoveEdge(u, v)
	g.RemoveEdge(x, y)
	mustAdd(g, u, y)
	mustAdd(g, x, v)
	if bothChords {
		// The merged spanning tree (both trees plus one new edge) leaves
		// the other new edge closing a cycle across the two halves.
		hub.tree = append(hub.tree, graph.Edge{U: u, V: y}.Canon())
		hub.chords = append(hub.chords, graph.Edge{U: x, V: v}.Canon())
	} else {
		// The removed tree edge split its tree in two; the two new edges
		// reattach both halves, and no new chord appears.
		hub.tree = append(hub.tree, graph.Edge{U: u, V: y}.Canon(), graph.Edge{U: x, V: v}.Canon())
	}
	hub.tree = append(hub.tree, b.tree...)
	hub.chords = append(hub.chords, b.chords...)
	b.tree, b.chords = nil, nil
}

// takeAt removes and returns element i of *s by swapping with the last
// element — O(1), order not preserved (callers draw i at random anyway).
func takeAt(s *[]graph.Edge, i int) graph.Edge {
	out := (*s)[i]
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
	return out
}
