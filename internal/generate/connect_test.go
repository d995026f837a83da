package generate

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// connectViaSwapsQuadratic is the pre-rewrite reference implementation of
// ConnectViaSwaps: every merge recomputes the component labeling and
// the bridge set, and scans the edge list twice — O(m) work
// per merged component, O(m·c) total. It is kept here as the behavioral
// oracle for the differential tests below and as the baseline of
// BenchmarkConnectViaSwaps, which demonstrates the rewrite's near-linear
// scaling in the component count.
func connectViaSwapsQuadratic(g *graph.CSR, rng *rand.Rand) (isolated int, err error) {
	if rng == nil {
		return 0, fmt.Errorf("generate: ConnectViaSwaps requires rng")
	}
	for {
		comp, sizes := graph.Components(g)
		isolated = 0
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) == 0 {
				isolated++
			}
		}
		if len(sizes)-isolated <= 1 {
			return isolated, nil
		}
		bridges := graph.BridgeSet(g)
		var cycleEdges []graph.Edge
		for _, e := range g.Edges() {
			if !bridges[e] {
				cycleEdges = append(cycleEdges, e)
			}
		}
		if len(cycleEdges) == 0 {
			return isolated, fmt.Errorf(
				"generate: cannot connect: %d components but no cycles (m < n-1 over non-isolated nodes)",
				len(sizes)-isolated)
		}
		e1 := cycleEdges[rng.Intn(len(cycleEdges))]
		var otherEdges []graph.Edge
		for _, e := range g.Edges() {
			if comp[e.U] != comp[e1.U] {
				otherEdges = append(otherEdges, e)
			}
		}
		if len(otherEdges) == 0 {
			return isolated, fmt.Errorf("generate: internal error: no cross-component edge")
		}
		e2 := otherEdges[rng.Intn(len(otherEdges))]
		u, v := e1.U, e1.V
		x, y := e2.U, e2.V
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		g.RemoveEdge(u, v)
		g.RemoveEdge(x, y)
		mustAdd(g, u, y)
		mustAdd(g, x, v)
	}
}

// connectInput builds a random multi-component test graph: nc components
// (a mix of trees and trees-with-chords), each 3..10 nodes, plus a few
// isolated nodes. It returns the graph and the number of chords added
// (the graph's independent-cycle count), which decides feasibility.
func connectInput(rng *rand.Rand, nc int, chordsPerComp func(i int) int) (*graph.CSR, int, int) {
	const maxSize = 10
	isolated := rng.Intn(4)
	g := graph.NewCSR(nc*maxSize + isolated)
	totalChords := 0
	for c := 0; c < nc; c++ {
		base := c * maxSize
		size := 3 + rng.Intn(maxSize-2)
		for i := 1; i < size; i++ {
			if err := g.AddEdge(base+i, base+rng.Intn(i)); err != nil {
				panic(err)
			}
		}
		want := chordsPerComp(c)
		if cap := size*(size-1)/2 - (size - 1); want > cap {
			want = cap
		}
		for added := 0; added < want; {
			a, b := base+rng.Intn(size), base+rng.Intn(size)
			if a == b || g.HasEdge(a, b) {
				continue
			}
			if err := g.AddEdge(a, b); err != nil {
				panic(err)
			}
			added++
		}
		totalChords += want
	}
	trueIsolated := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) == 0 {
			trueIsolated++
		}
	}
	return g, totalChords, trueIsolated
}

// edgeBearingComponents counts components with at least one edge.
func edgeBearingComponents(g *graph.CSR) int {
	_, sizes := graph.Components(g)
	n := 0
	for _, sz := range sizes {
		if sz > 1 {
			n++
		}
	}
	return n
}

// TestConnectViaSwapsPropertyRandomMix is the rewrite's main property
// test: for random forests+cycles inputs the degree sequence is
// unchanged, all edge-bearing components end up merged into one, the
// isolated count is reported exactly, and forest-heavy infeasible inputs
// error without mutating the graph. Run in CI under -race.
func TestConnectViaSwapsPropertyRandomMix(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		nc := 2 + rng.Intn(8)
		// Random chord budget: sometimes plentiful, sometimes scarce,
		// sometimes zero (a forest) — the three feasibility regimes.
		regime := rng.Intn(3)
		g, chords, isolated := connectInput(rng, nc, func(i int) int {
			switch regime {
			case 0:
				return rng.Intn(4) // usually feasible
			case 1:
				if i == 0 {
					return nc // one rich component funds everything
				}
				return 0
			default:
				return 0 // forest: infeasible whenever nc > 1
			}
		})
		feasible := chords >= nc-1
		degBefore := g.DegreeSequence()
		before := g.Clone()
		gotIso, err := ConnectViaSwaps(g, rng)
		if feasible != (err == nil) {
			t.Logf("seed %d: chords=%d nc=%d feasible=%v err=%v", seed, chords, nc, feasible, err)
			return false
		}
		if err != nil {
			// Infeasibility is detected up front: g must be untouched.
			return g.Equal(before)
		}
		if gotIso != isolated {
			t.Logf("seed %d: isolated %d, want %d", seed, gotIso, isolated)
			return false
		}
		for u, d := range g.DegreeSequence() {
			if d != degBefore[u] {
				t.Logf("seed %d: degree of %d changed %d → %d", seed, u, degBefore[u], d)
				return false
			}
		}
		if g.M() != before.M() {
			return false
		}
		return edgeBearingComponents(g) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestConnectViaSwapsMatchesQuadraticSemantics differentially checks the
// rewrite against the pre-rewrite reference: identical feasibility
// verdicts and isolated counts on the same inputs (the RNG streams — and
// hence the exact connected graphs — intentionally differ; see
// CHANGES.md for the stream break).
func TestConnectViaSwapsMatchesQuadraticSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		nc := 1 + rng.Intn(6)
		g, _, _ := connectInput(rng, nc, func(i int) int { return rng.Intn(3) })
		gOld := g.Clone()
		isoNew, errNew := ConnectViaSwaps(g, newRng(seed+1))
		isoOld, errOld := connectViaSwapsQuadratic(gOld, newRng(seed+1))
		if (errNew == nil) != (errOld == nil) {
			t.Logf("seed %d: new err=%v old err=%v", seed, errNew, errOld)
			return false
		}
		if errNew == nil && isoNew != isoOld {
			t.Logf("seed %d: isolated new=%d old=%d", seed, isoNew, isoOld)
			return false
		}
		if errNew == nil {
			return edgeBearingComponents(g) <= 1 && edgeBearingComponents(gOld) <= 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestConnectViaSwapsSingleEdgeComponents exercises the smallest
// edge-bearing components (one edge, two nodes — pure trees) hanging off
// one cycle-rich hub, the shape pseudograph simplification produces.
func TestConnectViaSwapsSingleEdgeComponents(t *testing.T) {
	rng := newRng(40)
	g := graph.NewCSR(30)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Three chords fund three tree merges.
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(10+2*i, 11+2*i); err != nil {
			t.Fatal(err)
		}
	}
	degBefore := g.DegreeSequence()
	iso, err := ConnectViaSwaps(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	if iso != 30-4-6 {
		t.Errorf("isolated = %d, want %d", iso, 30-4-6)
	}
	for u, d := range g.DegreeSequence() {
		if d != degBefore[u] {
			t.Errorf("degree of %d changed: %d → %d", u, degBefore[u], d)
		}
	}
	if edgeBearingComponents(g) != 1 {
		t.Errorf("still %d edge-bearing components", edgeBearingComponents(g))
	}
}

// TestConnectViaSwapsBarelyFeasible pins the boundary case: exactly c−1
// chords for c components must succeed, one fewer must fail untouched.
func TestConnectViaSwapsBarelyFeasible(t *testing.T) {
	build := func(chords int) *graph.CSR {
		g := graph.NewCSR(20)
		// Component 0: path 0-1-2-3 plus `chords` extra edges.
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 3}}[:chords] {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		// Two tree components.
		for _, e := range [][2]int{{10, 11}, {11, 12}, {15, 16}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	g := build(2) // 3 components, 2 chords: exactly feasible
	if _, err := ConnectViaSwaps(g, newRng(41)); err != nil {
		t.Fatalf("barely feasible input rejected: %v", err)
	}
	if edgeBearingComponents(g) != 1 {
		t.Errorf("%d edge-bearing components remain", edgeBearingComponents(g))
	}
	g = build(1) // 3 components, 1 chord: infeasible
	before := g.Clone()
	if _, err := ConnectViaSwaps(g, newRng(42)); err == nil {
		t.Error("infeasible input accepted")
	}
	if !g.Equal(before) {
		t.Error("infeasible input was mutated")
	}
}

// TestConnectViaSwapsDeterministic: the same input and seed must yield
// the identical connected graph on every run. This is a regression
// guard for the upfront spanning-forest pass: traversing adjacency maps
// (randomized iteration order) instead of the sorted CSR windows would
// leak map order into the tree/chord split and break the repository's
// determinism contract.
func TestConnectViaSwapsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		g, _, _ := connectInput(rng, 2+rng.Intn(5), func(i int) int { return 1 + rng.Intn(2) })
		a, b := g.Clone(), g.Clone()
		isoA, errA := ConnectViaSwaps(a, newRng(seed*3+1))
		isoB, errB := ConnectViaSwaps(b, newRng(seed*3+1))
		if (errA == nil) != (errB == nil) || isoA != isoB {
			return false
		}
		return errA != nil || a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// benchConnectInput builds nc ring components of ringSize nodes each —
// every component carries exactly one chord, so connecting is feasible
// and the work scales purely with the component count.
func benchConnectInput(nc, ringSize int) *graph.CSR {
	g := graph.NewCSR(nc * ringSize)
	for c := 0; c < nc; c++ {
		base := c * ringSize
		for i := 0; i < ringSize; i++ {
			if err := g.AddEdge(base+i, base+(i+1)%ringSize); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// BenchmarkConnectViaSwaps compares the near-linear rewrite against the
// quadratic reference at a fixed total size (m constant) and growing
// component count c. The rewrite's per-op cost stays flat in c while the
// reference grows linearly in c (O(m·c) total vs O(n+m+c)).
func BenchmarkConnectViaSwaps(b *testing.B) {
	const totalNodes = 1 << 14
	for _, nc := range []int{4, 32, 256, 2048} {
		ringSize := totalNodes / nc
		for _, impl := range []struct {
			name string
			fn   func(*graph.CSR, *rand.Rand) (int, error)
		}{
			{"new", ConnectViaSwaps},
			{"quadratic", connectViaSwapsQuadratic},
		} {
			b.Run(fmt.Sprintf("%s/components=%d", impl.name, nc), func(b *testing.B) {
				src := benchConnectInput(nc, ringSize)
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := src.Clone()
					b.StartTimer()
					if _, err := impl.fn(g, rng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
