package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// path returns the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustEdge(t, g, i, i+1)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	mustEdge(t, g, 0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 0, 3)
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3", got)
	}
	want := []int{1, 2, 3}
	got := g.Neighbors(0)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Neighbors(0) = %v, want %v", got, want)
			break
		}
	}
	if g.AvgDegree() != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", g.AvgDegree())
	}
}

func TestRemoveEdgeSwapConsistency(t *testing.T) {
	// Removing from the middle must keep the edge-index map consistent.
	g := New(5)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 3, 4)
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) = false")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("double-remove succeeded")
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	// All remaining edges must still be found via EdgeAt and HasEdge.
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
			t.Errorf("edge %v at index %d not found via HasEdge", e, i)
		}
	}
	if g.HasEdge(1, 2) {
		t.Error("removed edge still present")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path(t, 4)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("mutating clone affected original")
	}
	mustEdge(t, g, 0, 3)
	if c.HasEdge(0, 3) {
		t.Error("mutating original affected clone")
	}
}

func TestCommonNeighborCount(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 0, 3)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 0, 4)
	if got := g.CommonNeighborCount(0, 1); got != 2 {
		t.Errorf("CommonNeighborCount(0,1) = %d, want 2", got)
	}
	if got := g.CommonNeighborCount(2, 3); got != 2 {
		t.Errorf("CommonNeighborCount(2,3) = %d, want 2", got)
	}
	if got := g.CommonNeighborCount(4, 1); got != 0 {
		t.Errorf("CommonNeighborCount(4,1) = %d, want 0", got)
	}
}

// randomGraph builds a random simple graph for property tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func TestCSRMatchesGraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		maxM := n * (n - 1) / 2
		m := rng.Intn(maxM + 1)
		g := randomGraph(rng, n, m)
		s := g.CSR()
		if s.N() != g.N() || s.M() != g.M() {
			return false
		}
		for u := 0; u < n; u++ {
			if s.Degree(u) != g.Degree(u) {
				return false
			}
			for _, v := range s.Neighbors(u) {
				if !g.HasEdge(u, int(v)) {
					return false
				}
			}
		}
		// HasEdge agreement on all pairs.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if s.HasEdge(u, v) != g.HasEdge(u, v) {
					return false
				}
			}
		}
		// Round-trip back to Graph.
		return s.Graph().Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCSRNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 900)
	s := g.CSR()
	for u := 0; u < s.N(); u++ {
		w := s.Neighbors(u)
		for i := 1; i < len(w); i++ {
			if w[i-1] >= w[i] {
				t.Fatalf("Neighbors(%d) not strictly sorted: %v", u, w)
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 3, 4)
	// 5, 6 isolated
	comp, sizes := Components(g.CSR())
	if len(sizes) != 4 {
		t.Fatalf("component count = %d, want 4", len(sizes))
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("nodes 0,1,2 not in one component")
	}
	if comp[3] != comp[4] {
		t.Error("nodes 3,4 not in one component")
	}
	if comp[5] == comp[6] {
		t.Error("isolated nodes share a component")
	}
}

func TestGiantComponent(t *testing.T) {
	g := New(8)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 4, 5)
	gcc, newToOld := GiantComponent(g.CSR())
	if gcc.N() != 4 || gcc.M() != 3 {
		t.Fatalf("GCC has n=%d m=%d, want 4,3", gcc.N(), gcc.M())
	}
	seen := map[int]bool{}
	for _, old := range newToOld {
		seen[old] = true
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !seen[want] {
			t.Errorf("GCC missing original node %d", want)
		}
	}
}

func TestGiantComponentEmpty(t *testing.T) {
	gcc, _ := GiantComponent(NewCSR(0))
	if gcc.N() != 0 {
		t.Errorf("GCC of empty graph has %d nodes", gcc.N())
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(NewCSR(0)) {
		t.Error("empty graph should be connected")
	}
	g := path(t, 5)
	if !IsConnected(g.CSR()) {
		t.Error("path should be connected")
	}
	g.RemoveEdge(2, 3)
	if IsConnected(g.CSR()) {
		t.Error("broken path should be disconnected")
	}
}

func TestBFSPath(t *testing.T) {
	g := path(t, 6)
	s := g.CSR()
	dist := make([]int32, s.N())
	queue := make([]int32, 0, s.N())
	reached := BFS(s, 0, dist, queue)
	if reached != 6 {
		t.Fatalf("reached = %d, want 6", reached)
	}
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	s := g.CSR()
	dist := make([]int32, s.N())
	queue := make([]int32, 0, s.N())
	reached := BFS(s, 0, dist, queue)
	if reached != 2 {
		t.Fatalf("reached = %d, want 2", reached)
	}
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes have dist %d,%d, want -1,-1", dist[2], dist[3])
	}
}

func TestEccentricity(t *testing.T) {
	g := path(t, 5)
	if got := Eccentricity(g.CSR(), 0); got != 4 {
		t.Errorf("Eccentricity(end) = %d, want 4", got)
	}
	if got := Eccentricity(g.CSR(), 2); got != 2 {
		t.Errorf("Eccentricity(middle) = %d, want 2", got)
	}
}

func TestReadWriteEdgeListRoundTrip(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 0, 4)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, labels, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is isolated so it does not survive the round trip; compare
	// against the graph with isolated nodes dropped.
	gd, _ := DropIsolated(g.CSR())
	if h.N() != gd.N() || h.M() != gd.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", h.N(), h.M(), gd.N(), gd.M())
	}
	if len(labels) != h.N() {
		t.Errorf("labels len = %d, want %d", len(labels), h.N())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"one field", "3\n"},
		{"non-integer", "a b\n"},
		{"negative", "-1 2\n"},
		{"self-loop", "4 4\n"},
		{"duplicate", "1 2\n2 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Errorf("input %q: want error, got nil", tc.in)
			}
		})
	}
}

func TestReadEdgeListCommentsAndLabels(t *testing.T) {
	in := "# header\n\n10 20\n20 30\n"
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 3,2", g.N(), g.M())
	}
	want := []int{10, 20, 30}
	for i, l := range labels {
		if l != want[i] {
			t.Errorf("labels[%d] = %d, want %d", i, l, want[i])
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "test", 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"test\"", "0 -- 1;", "0 -- 2;", "style=filled"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestMultigraphSimplify(t *testing.T) {
	mg := NewMultigraph(4)
	mg.AddEdge(0, 1)
	mg.AddEdge(1, 0) // parallel
	mg.AddEdge(2, 2) // self-loop
	mg.AddEdge(1, 2)
	g, bad := mg.Simplify()
	if bad.SelfLoops != 1 || bad.MultiEdges != 1 {
		t.Errorf("badness = %+v, want 1 self-loop and 1 multi-edge", bad)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
}

func TestMultigraphSimplifyToGCC(t *testing.T) {
	mg := NewMultigraph(6)
	mg.AddEdge(0, 1)
	mg.AddEdge(1, 2)
	mg.AddEdge(3, 4)
	// node 5 isolated
	gcc, newToOld, bad := mg.SimplifyToGCC()
	if gcc.N() != 3 {
		t.Fatalf("GCC n = %d, want 3", gcc.N())
	}
	if bad.SmallCCNodes != 3 { // nodes 3,4,5
		t.Errorf("SmallCCNodes = %d, want 3", bad.SmallCCNodes)
	}
	if bad.SmallCCEdges != 1 { // edge (3,4)
		t.Errorf("SmallCCEdges = %d, want 1", bad.SmallCCEdges)
	}
	if bad.ComponentCount != 3 {
		t.Errorf("ComponentCount = %d, want 3", bad.ComponentCount)
	}
	if len(newToOld) != 3 {
		t.Errorf("mapping len = %d, want 3", len(newToOld))
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 3, 4)
	sub, newToOld := Subgraph(g.CSR(), []int{1, 2, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d, want 3,2", sub.N(), sub.M())
	}
	if newToOld[0] != 1 || newToOld[2] != 3 {
		t.Errorf("mapping = %v, want [1 2 3]", newToOld)
	}
}

func TestBFSMatchesFloydWarshallProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := rng.Intn(n * (n - 1) / 2)
		g := randomGraph(rng, n, m)
		s := g.CSR()

		const inf = 1 << 29
		d := make([][]int, n)
		for i := range d {
			d[i] = make([]int, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
		}
		for i := 0; i < g.M(); i++ {
			e := g.EdgeAt(i)
			d[e.U][e.V] = 1
			d[e.V][e.U] = 1
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		dist := make([]int32, n)
		queue := make([]int32, 0, n)
		for src := 0; src < n; src++ {
			BFS(s, src, dist, queue)
			for v := 0; v < n; v++ {
				want := d[src][v]
				if want >= inf {
					want = -1
				}
				if int(dist[v]) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBridgesPath(t *testing.T) {
	// Every edge of a path is a bridge.
	g := path(t, 6)
	bs := Bridges(g.CSR())
	if len(bs) != 5 {
		t.Errorf("path bridges = %d, want 5", len(bs))
	}
}

func TestBridgesCycle(t *testing.T) {
	// No edge of a cycle is a bridge.
	g := New(6)
	for i := 0; i < 6; i++ {
		mustEdge(t, g, i, (i+1)%6)
	}
	if bs := Bridges(g.CSR()); len(bs) != 0 {
		t.Errorf("cycle bridges = %v, want none", bs)
	}
}

func TestBridgesBarbell(t *testing.T) {
	// Two triangles joined by one edge: exactly that edge is a bridge.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		mustEdge(t, g, e[0], e[1])
	}
	bs := Bridges(g.CSR())
	if len(bs) != 1 || bs[0] != (Edge{2, 3}) {
		t.Errorf("barbell bridges = %v, want [(2,3)]", bs)
	}
}

// bruteBridges removes each edge and checks whether its component splits.
func bruteBridges(g *Graph) map[Edge]bool {
	out := make(map[Edge]bool)
	base, _ := Components(g.CSR())
	baseComps := make(map[int32]bool)
	for _, c := range base {
		baseComps[c] = true
	}
	nBase := len(baseComps)
	for _, e := range g.Edges() {
		h := g.Clone()
		h.RemoveEdge(e.U, e.V)
		_, sizes := Components(h.CSR())
		if len(sizes) > nBase+countIsolatedDiff(g, h) {
			out[e] = true
		}
	}
	return out
}

// countIsolatedDiff counts extra size-1 components created purely by
// removing the edge (both endpoints degree-1 cases are still splits, so
// this returns 0; kept for clarity of the comparison above).
func countIsolatedDiff(g, h *Graph) int { return 0 }

func TestBridgesMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		m := rng.Intn(n * (n - 1) / 2)
		g := randomGraph(rng, n, m)
		want := bruteBridges(g)
		got := BridgeSet(g.CSR())
		if len(got) != len(want) {
			return false
		}
		for e := range want {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestModelBasedFuzz runs random interleaved add/remove operations and
// checks the Graph against a plain map-of-sets reference model after
// every operation batch.
func TestModelBasedFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := New(n)
		ref := make(map[Edge]bool)
		for op := 0; op < 300; op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			e := Edge{u, v}.Canon()
			switch rng.Intn(3) {
			case 0, 1: // add
				err := g.AddEdge(u, v)
				switch {
				case u == v:
					if err == nil {
						return false
					}
				case ref[e]:
					if err == nil {
						return false
					}
				default:
					if err != nil {
						return false
					}
					ref[e] = true
				}
			case 2: // remove
				ok := g.RemoveEdge(u, v)
				if ok != ref[e] {
					return false
				}
				delete(ref, e)
			}
		}
		// Final state agreement.
		if g.M() != len(ref) {
			return false
		}
		for e := range ref {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		deg := make(map[int]int)
		for e := range ref {
			deg[e.U]++
			deg[e.V]++
		}
		for u := 0; u < n; u++ {
			if g.Degree(u) != deg[u] {
				return false
			}
		}
		// Edge list integrity: every EdgeAt entry exists exactly once.
		seen := make(map[Edge]bool)
		for i := 0; i < g.M(); i++ {
			e := g.EdgeAt(i)
			if seen[e] || !ref[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
