package generate

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/subgraphs"
)

// Graph families for the differential suite, chosen to stress distinct
// rewiring regimes: plain sparse connected graphs, degree-1-heavy trees
// (the paper's isomorphism-prone (1,k) swaps), a dense core with sparse
// periphery (swaps whose four edges overlap heavily), and a near-complete
// small graph (duplicate-edge rejections dominate).
var diffFamilies = []struct {
	name  string
	build func(rng *rand.Rand) *graph.CSR
}{
	{"sparse", func(rng *rand.Rand) *graph.CSR { return connectedRandom(rng, 40, 30) }},
	{"leafy-tree", func(rng *rand.Rand) *graph.CSR { return connectedRandom(rng, 50, 3) }},
	{"dense-core", func(rng *rand.Rand) *graph.CSR {
		// K10 core plus a 20-node sparse periphery hanging off it.
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
	}},
	{"near-complete", func(rng *rand.Rand) *graph.CSR {
		g := connectedRandom(rng, 12, 40)
		return g
	}},
}

// TestRewireDifferentialCensus is the pinning harness of the dense
// census-delta machinery: it runs the Rewirer with move recording, then
// replays the accepted-move log on a pristine clone maintaining the
// census incrementally with the Tracker (SwapDelta + Drain) and
// recounting it from scratch with subgraphs.Count after every move,
// asserting exact equality throughout.
// Depth 3 additionally asserts the census never changes at all, and the
// replayed graph must equal the Rewirer's final graph edge for edge.
func TestRewireDifferentialCensus(t *testing.T) {
	defer parallel.SetWorkers(0)
	const (
		wantMoves   = 200
		maxAttempts = 60000
	)
	acceptedByDepth := map[int]int{}
	for _, fam := range diffFamilies {
		for _, depth := range []int{1, 2, 3} {
			for _, seed := range []int64{11, 42} {
				for _, workers := range []int{1, 4} {
					parallel.SetWorkers(workers)
					orig := fam.build(newRng(seed))
					work := orig.Clone()
					r, err := NewRewirer(work, depth, newRng(seed*31))
					if err != nil {
						t.Fatalf("%s/d%d: %v", fam.name, depth, err)
					}
					r.RecordMoves = true
					for att := 0; att < maxAttempts && r.Stats.Accepted < wantMoves; att++ {
						if _, err := r.Step(); err != nil {
							t.Fatalf("%s/d%d: Step: %v", fam.name, depth, err)
						}
					}
					if got, want := r.Stats.Attempts, r.Stats.Accepted+r.Stats.Rejected.Total(); got != want {
						t.Fatalf("%s/d%d: attempts invariant broken: %d != %d", fam.name, depth, got, want)
					}
					acceptedByDepth[depth] += r.Stats.Accepted

					// Replay on a pristine clone: read-only tracker delta, then
					// the mutation and the tracker commit.
					replay := orig.Clone()
					tracker := subgraphs.NewTracker(replay, replay.DegreeSequence())
					td := tracker.NewDelta()
					curW, curT := censusMaps(subgraphs.Count(replay))
					baseW, baseT := maps.Clone(curW), maps.Clone(curT)
					var recW []subgraphs.WedgeCount
					var recT []subgraphs.TriangleCount
					for i, m := range r.AcceptedMoves() {
						tracker.SwapDelta(td, m.U, m.V, m.X, m.Y)
						recW, recT = td.Drain(recW[:0], recT[:0])
						for _, rec := range recW {
							addCount(curW, rec.WedgeKey, rec.Count)
						}
						for _, rec := range recT {
							addCount(curT, rec.TriangleKey, rec.Count)
						}
						replay.RemoveEdge(m.U, m.V)
						replay.RemoveEdge(m.X, m.Y)
						mustAdd(replay, m.U, m.Y)
						mustAdd(replay, m.X, m.V)
						tracker.ApplySwap(m.U, m.V, m.X, m.Y)

						if freshW, freshT := censusMaps(subgraphs.Count(replay)); !maps.Equal(curW, freshW) || !maps.Equal(curT, freshT) {
							t.Fatalf("%s/d%d seed=%d w=%d: incremental census != recount after move %d",
								fam.name, depth, seed, workers, i)
						}
						if depth == 3 && (!maps.Equal(curW, baseW) || !maps.Equal(curT, baseT)) {
							t.Fatalf("%s/d%d seed=%d w=%d: depth-3 move %d changed the census",
								fam.name, depth, seed, workers, i)
						}
					}
					if !replay.Equal(work) {
						t.Fatalf("%s/d%d seed=%d w=%d: replayed graph differs from rewired graph",
							fam.name, depth, seed, workers)
					}
				}
			}
		}
	}
	for _, depth := range []int{1, 2, 3} {
		if acceptedByDepth[depth] == 0 {
			t.Fatalf("differential suite accepted zero moves at depth %d — vacuous", depth)
		}
	}
}
