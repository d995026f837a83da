package subgraphs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stats"
)

func build(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// censusOf builds a canonical census from class-keyed counts, dropping
// zero classes.
func censusOf(w map[WedgeKey]int64, t map[TriangleKey]int64) *Census {
	c := &Census{}
	for k, v := range w {
		if v != 0 {
			c.Wedges = append(c.Wedges, WedgeCount{k, v})
		}
	}
	for k, v := range t {
		if v != 0 {
			c.Triangles = append(c.Triangles, TriangleCount{k, v})
		}
	}
	slices.SortFunc(c.Wedges, func(a, b WedgeCount) int { return a.Compare(b.WedgeKey) })
	slices.SortFunc(c.Triangles, func(a, b TriangleCount) int { return a.Compare(b.TriangleKey) })
	return c
}

// countsOf is the inverse of censusOf.
func countsOf(c *Census) (map[WedgeKey]int64, map[TriangleKey]int64) {
	w := make(map[WedgeKey]int64, len(c.Wedges))
	for _, r := range c.Wedges {
		w[r.WedgeKey] += r.Count
	}
	t := make(map[TriangleKey]int64, len(c.Triangles))
	for _, r := range c.Triangles {
		t[r.TriangleKey] += r.Count
	}
	return w, t
}

// checkCanonical asserts the census layout invariant: keys strictly
// increasing in census order, no zero counts.
func checkCanonical(t *testing.T, c *Census) {
	t.Helper()
	for i, w := range c.Wedges {
		if w.Count == 0 || (i > 0 && c.Wedges[i-1].Compare(w.WedgeKey) >= 0) {
			t.Fatalf("wedge record %d %+v breaks the sorted nonzero layout", i, w)
		}
	}
	for i, tr := range c.Triangles {
		if tr.Count == 0 || (i > 0 && c.Triangles[i-1].Compare(tr.TriangleKey) >= 0) {
			t.Fatalf("triangle record %d %+v breaks the sorted nonzero layout", i, tr)
		}
	}
}

// bruteCensus enumerates all node triples.
func bruteCensus(g *graph.Graph) *Census {
	wedges, tris := map[WedgeKey]int64{}, map[TriangleKey]int64{}
	n := g.N()
	deg := g.DegreeSequence()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				ij := g.HasEdge(i, j)
				ik := g.HasEdge(i, k)
				jk := g.HasEdge(j, k)
				switch {
				case ij && ik && jk:
					tris[NewTriangleKey(deg[i], deg[j], deg[k])]++
				case ij && ik:
					wedges[NewWedgeKey(deg[j], deg[i], deg[k])]++
				case ij && jk:
					wedges[NewWedgeKey(deg[i], deg[j], deg[k])]++
				case ik && jk:
					wedges[NewWedgeKey(deg[i], deg[k], deg[j])]++
				}
			}
		}
	}
	return censusOf(wedges, tris)
}

func TestWedgeKeyCanonical(t *testing.T) {
	if NewWedgeKey(5, 2, 3) != (WedgeKey{3, 2, 5}) {
		t.Error("wedge key ends not sorted")
	}
	if NewWedgeKey(3, 2, 5) != NewWedgeKey(5, 2, 3) {
		t.Error("wedge keys of isomorphic wedges differ")
	}
}

func TestTriangleKeyCanonical(t *testing.T) {
	want := TriangleKey{1, 2, 3}
	perms := [][3]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	for _, p := range perms {
		if got := NewTriangleKey(p[0], p[1], p[2]); got != want {
			t.Errorf("NewTriangleKey(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestCountTriangleGraph(t *testing.T) {
	g := build(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	c := Count(g.CSR())
	if c.TotalWedges() != 0 {
		t.Errorf("K3 wedges = %d, want 0", c.TotalWedges())
	}
	if c.Triangle(TriangleKey{2, 2, 2}) != 1 || c.TotalTriangles() != 1 {
		t.Errorf("K3 triangles = %v", c.Triangles)
	}
}

func TestCountPath3(t *testing.T) {
	g := build(t, 3, [][2]int{{0, 1}, {1, 2}})
	c := Count(g.CSR())
	if c.Wedge(WedgeKey{1, 2, 1}) != 1 || c.TotalWedges() != 1 {
		t.Errorf("P3 wedges = %v", c.Wedges)
	}
	if c.TotalTriangles() != 0 {
		t.Errorf("P3 triangles = %v", c.Triangles)
	}
}

func TestCountStar(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := Count(g.CSR())
	if c.Wedge(WedgeKey{1, 3, 1}) != 3 || c.TotalWedges() != 3 {
		t.Errorf("K1,3 wedges = %v", c.Wedges)
	}
}

// TestCountPaperExample is the worked size-4 example from Section 3 of the
// paper: the "paw" graph with degrees 1,2,2,3, where P(2,3) = 2 edges, the
// 3K-distribution has 2 wedges of class (1,3,2) and one (2,2,3) triangle.
func TestCountPaperExample(t *testing.T) {
	// Triangle 0,1,2 plus pendant 3 attached to 2.
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := Count(g.CSR())
	if got := c.Wedge(WedgeKey{1, 3, 2}); got != 2 {
		t.Errorf("wedge class (1,3,2) = %d, want 2 (census: %v)", got, c.Wedges)
	}
	if got := c.Triangle(TriangleKey{2, 2, 3}); got != 1 {
		t.Errorf("triangle class (2,2,3) = %d, want 1 (census: %v)", got, c.Triangles)
	}
	if c.TotalWedges() != 2 || c.TotalTriangles() != 1 {
		t.Errorf("totals: wedges=%d triangles=%d, want 2,1", c.TotalWedges(), c.TotalTriangles())
	}
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
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

func TestCountMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := randomGraph(rng, n, m)
		return Count(g.CSR()).Equal(bruteCensus(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// countReference is the counter Count replaced: per-center neighbor-pair
// enumeration with a HasEdge probe per pair. It is kept as the
// differential oracle for the class-histogram counter on graphs large
// enough that brute-force triple enumeration is unaffordable.
func countReference(s *graph.CSR) *Census {
	wedges, tris := map[WedgeKey]int64{}, map[TriangleKey]int64{}
	n := s.N()
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = s.Degree(u)
	}
	for center := 0; center < n; center++ {
		nbrs := s.Neighbors(center)
		for i := 0; i < len(nbrs); i++ {
			a := int(nbrs[i])
			for j := i + 1; j < len(nbrs); j++ {
				b := int(nbrs[j])
				if s.HasEdge(a, b) {
					if center < a {
						tris[NewTriangleKey(deg[center], deg[a], deg[b])]++
					}
				} else {
					wedges[NewWedgeKey(deg[a], deg[center], deg[b])]++
				}
			}
		}
	}
	return censusOf(wedges, tris)
}

// hubGraph builds a graph whose top node degrees cross
// DefaultBitsetThreshold, exercising the bitset probe path of Count.
func hubGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	for v := 1; v < n/2; v++ {
		if !g.HasEdge(0, v) {
			if err := g.AddEdge(0, v); err != nil {
				panic(err)
			}
		}
	}
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

// cutoffPowerLaw is an erased configuration model over a γ = 2
// power-law degree sequence with maximum degree near the structural
// cutoff 3√n: stubs are shuffled and paired, loops and repeated pairs
// dropped. Its degree diversity is what used to push Count past its
// dense class-cube accumulators.
func cutoffPowerLaw(t *testing.T, n int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(float64(n))))
	if err != nil {
		t.Fatal(err)
	}
	var stubs []int
	for v, k := range pl.DegreeSequence(rng, n) {
		for ; k > 0; k-- {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.NewCSR(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		if u, v := stubs[i], stubs[i+1]; u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestCountMatchesReferenceHubGraph pins the counter against the old
// pair-enumeration counter on a hub-heavy graph (max degree well past
// the bitset threshold), and checks the emitted layout is strictly
// sorted with no zero counts.
func TestCountMatchesReferenceHubGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := hubGraph(rng, 400, 1400).CSR()
	if s.MaxDegree() < DefaultBitsetThreshold {
		t.Fatalf("max degree %d below bitset threshold %d; test graph too tame", s.MaxDegree(), DefaultBitsetThreshold)
	}
	checkMatchesReference(t, s)
}

// TestCountMatchesReferencePowerLaw is the same differential check on a
// cutoff power-law graph with more than 101 degree classes — the degree
// diversity that used to send Count down a packed-key map path.
func TestCountMatchesReferencePowerLaw(t *testing.T) {
	s := cutoffPowerLaw(t, 20000, 11)
	if _, classDeg := degreeClasses(s.DegreeSequence()); len(classDeg) <= 101 {
		t.Fatalf("power-law graph has %d degree classes; want > 101", len(classDeg))
	}
	checkMatchesReference(t, s)
}

func checkMatchesReference(t *testing.T, s *graph.CSR) {
	t.Helper()
	got, want := Count(s), countReference(s)
	checkCanonical(t, got)
	if got.TotalTriangles() == 0 {
		t.Fatal("no triangles; the debit path is untested")
	}
	if !got.Equal(want) {
		t.Errorf("census disagrees with reference: got %d wedges/%d triangles, want %d/%d",
			got.TotalWedges(), got.TotalTriangles(), want.TotalWedges(), want.TotalTriangles())
	}
}

// TestDeltaMatchesRecountProperty verifies the incremental delta machinery
// against full recounts across random degree-preserving double-edge swaps:
// the foundation of all 3K rewiring.
func TestDeltaMatchesRecountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		m := 4 + rng.Intn(n*(n-1)/2-3)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		before := Count(g.CSR())

		// Try to find a valid degree-preserving swap.
		for attempt := 0; attempt < 200; attempt++ {
			e1 := g.EdgeAt(rng.Intn(g.M()))
			e2 := g.EdgeAt(rng.Intn(g.M()))
			u, v, x, y := e1.U, e1.V, e2.U, e2.V
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			// Swap to (u,y) and (x,v).
			if u == y || x == v || u == x || v == y {
				continue
			}
			if g.HasEdge(u, y) || g.HasEdge(x, v) {
				continue
			}
			d := NewDelta()
			d.RemoveEdge(g, deg, u, v)
			g.RemoveEdge(u, v)
			d.RemoveEdge(g, deg, x, y)
			g.RemoveEdge(x, y)
			d.AddEdge(g, deg, u, y)
			g.AddEdge(u, y)
			d.AddEdge(g, deg, x, v)
			g.AddEdge(x, v)

			after := Count(g.CSR())
			return d.ApplyTo(before).Equal(after)
		}
		return true // no valid swap found; vacuously fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaIsZeroAndReset(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	deg := g.DegreeSequence()
	d := NewDelta()
	if !d.IsZero() {
		t.Error("fresh delta not zero")
	}
	d.RemoveEdge(g, deg, 1, 2)
	if d.IsZero() {
		t.Error("delta after removal is zero")
	}
	d.Reset()
	if !d.IsZero() {
		t.Error("reset delta not zero")
	}
}

// TestDeltaAddRemoveCancel checks that removing and re-adding the same edge
// yields a zero delta.
func TestDeltaAddRemoveCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 15, 40)
	deg := g.DegreeSequence()
	d := NewDelta()
	e := g.EdgeAt(0)
	d.RemoveEdge(g, deg, e.U, e.V)
	g.RemoveEdge(e.U, e.V)
	d.AddEdge(g, deg, e.U, e.V)
	g.AddEdge(e.U, e.V)
	if !d.IsZero() {
		t.Errorf("remove+add delta not zero: wedges=%v triangles=%v", d.Wedges, d.Triangles)
	}
}

func TestCensusClone(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := Count(g.CSR())
	cl := c.Clone()
	if !c.Equal(cl) {
		t.Fatal("clone not equal")
	}
	cl.Wedges[0].Count++
	if c.Equal(cl) {
		t.Error("mutating clone affected original comparison")
	}
}

func TestSize4CensusPaw(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := CountSize4(g.CSR())
	want := Size4Census{Path4: 2, Claw: 1, Cycle4: 0, Paw: 1, Diamond: 0, K4: 0}
	if c != want {
		t.Errorf("paw census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusK4(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	c := CountSize4(g.CSR())
	// K4 contains: 4 claws (one per center), 12 P4s (4!/2), 3 C4s,
	// 12 paws (4 triangles × 3 pendant choices... each triangle has 3
	// vertices each with degree 3 → (3-2)*3 = 3 per triangle × 4 = 12),
	// 6 diamonds, 1 K4.
	want := Size4Census{Path4: 12, Claw: 4, Cycle4: 3, Paw: 12, Diamond: 6, K4: 1}
	if c != want {
		t.Errorf("K4 census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusCycle(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	c := CountSize4(g.CSR())
	want := Size4Census{Path4: 4, Claw: 0, Cycle4: 1, Paw: 0, Diamond: 0, K4: 0}
	if c != want {
		t.Errorf("C4 census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusStar(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := CountSize4(g.CSR())
	want := Size4Census{Path4: 0, Claw: 1}
	if c != want {
		t.Errorf("K1,3 census = %+v, want %+v", c, want)
	}
}
