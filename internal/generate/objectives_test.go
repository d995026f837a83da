package generate

import (
	"math"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/subgraphs"
)

// TestObjectiveDeltaMatchesRecount checks every objective's move score
// against a from-scratch recomputation: on the differential-suite
// families, at the objective's rewiring depth, Delta(g, m) must equal the
// metric after m is applied minus the metric before it. Every other
// scored move is kept (applied and committed), so the chain also checks
// that Commit keeps the objective's state in step with the graph and
// that a scored-but-dropped move leaves no trace. D1, D2, D3, S and S2
// are integer-valued and must match exactly; C̄ within 1e-12.
func TestObjectiveDeltaMatchesRecount(t *testing.T) {
	extract := func(g *graph.CSR, d int) *dk.Profile {
		p, err := dk.Extract(g, d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name   string
		depth  int
		tol    float64
		obj    func(target *dk.Profile) Objective
		metric func(g *graph.CSR, target *dk.Profile) float64
	}{
		{"D1", 0, 0,
			func(p *dk.Profile) Objective { return NewDegreeDistObjective(p.Degrees) },
			func(g *graph.CSR, p *dk.Profile) float64 { return dk.D1(extract(g, 1).Degrees, p.Degrees) }},
		{"D2", 1, 0,
			func(p *dk.Profile) Objective { return NewJDDObjective(p.Joint) },
			func(g *graph.CSR, p *dk.Profile) float64 { return dk.D2(extract(g, 2).Joint, p.Joint) }},
		{"D3", 2, 0,
			func(p *dk.Profile) Objective { return NewCensusObjective(p.Census) },
			func(g *graph.CSR, p *dk.Profile) float64 { return dk.D3(subgraphs.Count(g), p.Census) }},
		{"S", 1, 0,
			func(*dk.Profile) Objective { return &LikelihoodObjective{} },
			func(g *graph.CSR, _ *dk.Profile) float64 { return metrics.LikelihoodS(g) }},
		{"S2", 2, 0,
			func(*dk.Profile) Objective { return &S2Objective{} },
			func(g *graph.CSR, _ *dk.Profile) float64 { return metrics.S2(g) }},
		{"Cbar", 2, 1e-12,
			func(*dk.Profile) Objective { return &ClusteringObjective{} },
			func(g *graph.CSR, _ *dk.Profile) float64 { return metrics.MeanClustering(g) }},
	}
	const movesPerRun = 60
	for _, tc := range cases {
		scored := 0
		for _, fam := range diffFamilies {
			for _, seed := range []int64{5, 19} {
				g := fam.build(newRng(seed))
				target := extract(fam.build(newRng(seed+1000)), 3)
				obj := tc.obj(target)
				if err := obj.Init(g); err != nil {
					t.Fatalf("%s/%s: Init: %v", tc.name, fam.name, err)
				}
				r, err := NewRewirer(g, tc.depth, newRng(seed*13))
				if err != nil {
					t.Fatal(err)
				}
				n := 0 // moves scored in this run
				for att := 0; att < 100*movesPerRun && n < movesPerRun; att++ {
					m, rej := r.propose(r.Rng)
					if rej != rejectNone {
						continue
					}
					n++
					before := tc.metric(g, target)
					got := obj.Delta(g, m)
					r.apply(m)
					want := tc.metric(g, target) - before
					if math.Abs(got-want) > tc.tol {
						t.Fatalf("%s/%s seed=%d move %d %+v: Delta = %v, recount difference = %v",
							tc.name, fam.name, seed, n, m, got, want)
					}
					if n%2 == 0 {
						r.revert(m) // dropped, as after an objective rejection
						continue
					}
					obj.Commit(m)
				}
				scored += n
			}
		}
		if scored < 100 {
			t.Fatalf("%s: only %d moves scored — vacuous", tc.name, scored)
		}
	}
}
