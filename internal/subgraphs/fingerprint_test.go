package subgraphs

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// connectedCSR is a random spanning tree on n nodes plus up to extra
// random non-tree edges.
func connectedCSR(rng *rand.Rand, n, extra int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	extra = min(extra, n*(n-1)/2-g.M())
	for added := 0; added < extra; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
		added++
	}
	return g
}

// denseCoreCSR is a K10 core with a 20-node sparse periphery.
func denseCoreCSR(rng *rand.Rand) *graph.CSR {
	g := graph.NewCSR(30)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if err := g.AddEdge(i, j); err != nil {
				panic(err)
			}
		}
	}
	for i := 10; i < 30; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	return g
}

// freshFingerprints recounts every node's neighbor-class fingerprint
// from the graph.
func freshFingerprints(tr *Tracker, g *graph.CSR) []uint64 {
	fp := make([]uint64, g.N())
	for u := range fp {
		for _, w := range g.Neighbors(u) {
			fp[u] += classMix(tr.cls[w])
		}
	}
	return fp
}

// TestSwapKeepsCensusFingerprintExact is the differential check of the
// fingerprint pre-check: on the rewiring families (sparse, leaf-heavy,
// dense core with periphery, near-complete) and a γ = 2 power-law graph
// with more than 101 degree classes, it draws random structurally valid
// 2K-preserving swaps and asserts that
//
//   - a fingerprint reject always comes with a nonzero SwapDeltaJDD
//     (the pre-check never rejects a census-preserving swap), and
//   - SwapKeepsCensus agrees with SwapDeltaJDD + IsZero on every swap.
//
// Every valid swap is then applied with probability 1/2 (graph plus
// ApplySwap), and the maintained fingerprints must equal a fresh
// recount after each one.
func TestSwapKeepsCensusFingerprintExact(t *testing.T) {
	families := []struct {
		name      string
		g         *graph.CSR
		proposals int
	}{
		{"sparse", connectedCSR(rand.New(rand.NewSource(11)), 40, 30), 20000},
		{"leafy-tree", connectedCSR(rand.New(rand.NewSource(12)), 50, 3), 20000},
		{"dense-core", denseCoreCSR(rand.New(rand.NewSource(13))), 20000},
		{"near-complete", connectedCSR(rand.New(rand.NewSource(14)), 12, 40), 20000},
		{"powerlaw-20000", cutoffPowerLaw(t, 20000, 11), 60000},
	}
	if _, classDeg := degreeClasses(families[4].g.DegreeSequence()); len(classDeg) <= 101 {
		t.Fatalf("power-law graph has %d degree classes; want > 101", len(classDeg))
	}
	const maxApplied = 300 // bounds the O(m) fingerprint recounts
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.g
			deg := g.DegreeSequence()
			tr := NewTracker(g, deg)
			keep, walk := tr.NewDelta(), tr.NewDelta()
			rng := rand.New(rand.NewSource(7))
			var fpRejects, kept, changed, applied int
			for p := 0; p < fam.proposals; p++ {
				e1, e2 := g.EdgeAt(rng.Intn(g.M())), g.EdgeAt(rng.Intn(g.M()))
				u, v, x, y := e1.U, e1.V, e2.U, e2.V
				if rng.Intn(2) == 0 {
					x, y = y, x
				}
				if u == x || u == y || v == x || v == y ||
					(deg[v] != deg[y] && deg[u] != deg[x]) ||
					g.HasEdge(u, y) || g.HasEdge(x, v) {
					continue
				}
				tr.SwapDeltaJDD(walk, u, v, x, y)
				zero := walk.IsZero()
				if tr.fingerprintRejects(u, v, x, y) {
					fpRejects++
					if zero {
						t.Fatalf("proposal %d: fingerprint rejected census-preserving swap (%d,%d),(%d,%d)",
							p, u, v, x, y)
					}
				}
				if got := tr.SwapKeepsCensus(keep, u, v, x, y); got != zero {
					t.Fatalf("proposal %d: SwapKeepsCensus = %v, SwapDeltaJDD zero = %v", p, got, zero)
				}
				if zero {
					kept++
				} else {
					changed++
				}
				if applied < maxApplied && rng.Intn(2) == 0 {
					g.RemoveEdge(u, v)
					g.RemoveEdge(x, y)
					mustAddCSR(t, g, u, y)
					mustAddCSR(t, g, x, v)
					tr.ApplySwap(u, v, x, y)
					applied++
					fresh := freshFingerprints(tr, g)
					for node, want := range fresh {
						if tr.fp[node] != want {
							t.Fatalf("after swap %d: fp[%d] = %#x, recount %#x", applied, node, tr.fp[node], want)
						}
					}
				}
			}
			t.Logf("fingerprint rejects %d, census-changing %d, census-preserving %d, applied %d",
				fpRejects, changed, kept, applied)
			if fpRejects == 0 || applied == 0 {
				t.Fatalf("vacuous: %d fingerprint rejects, %d applied swaps", fpRejects, applied)
			}
		})
	}
}
