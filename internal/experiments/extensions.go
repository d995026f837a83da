package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/generate"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/subgraphs"
)

// Size4 is an extension experiment supporting the paper's §6 claim that
// d = 3 "captures all graph properties proposed in the literature": it
// counts the six connected size-4 subgraph classes (the building blocks
// of the 4K-distribution) in dK-random graphs versus the original. If the
// 3K column matches the original while lower depths diverge, depth 3 is
// already constraining size-4 structure — evidence that the series has
// converged for practical purposes.
func (l *Lab) Size4() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(sk, 10100)
	if err != nil {
		return nil, err
	}
	vars = append(vars, namedGraph{"original", gccOf(sk)})
	header := []string{"graph", "path4", "claw", "cycle4", "paw", "diamond", "K4"}
	rows := make([][]string, 0, len(vars))
	for _, v := range vars {
		c := subgraphs.CountSize4(v.g)
		rows = append(rows, []string{
			v.name, fi(c.Path4), fi(c.Claw), fi(c.Cycle4), fi(c.Paw), fi(c.Diamond), fi(c.K4),
		})
	}
	return &Table{
		ID:     "size4",
		Title:  "Size-4 subgraph census (4K building blocks) of dK-random vs original",
		Header: header,
		Rows:   rows,
	}, nil
}

// AppSim is an extension experiment evaluating the introduction's
// motivating applications on dK-random ensembles: targeted-attack
// robustness, SI worm spreading speed, and degree-greedy routing. The
// reproduction claim is behavioral: protocol outcomes on 2K/3K ensembles
// track the original while 0K/1K mislead.
func (l *Lab) AppSim() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(sk, 11100)
	if err != nil {
		return nil, err
	}
	vars = append(vars, namedGraph{"original", gccOf(sk)})
	rows := make([][]string, 0, len(vars))
	for _, v := range vars {
		atk, err := netsim.Robustness(v.g, []float64{0.05}, true, nil)
		if err != nil {
			return nil, fmt.Errorf("appsim %s: %w", v.name, err)
		}
		rng := rand.New(rand.NewSource(77))
		worm, err := netsim.WormSpread(v.g, 0.5, 200, rng)
		if err != nil {
			return nil, fmt.Errorf("appsim %s: %w", v.name, err)
		}
		route, err := netsim.GreedyDegreeRouting(v.g, 300, 0, rng)
		if err != nil {
			return nil, fmt.Errorf("appsim %s: %w", v.name, err)
		}
		rows = append(rows, []string{
			v.name,
			f(atk[0].GCCFrac),
			fmt.Sprintf("%d", worm.RoundsTo(0.9)),
			f(route.SuccessRate),
			f(route.AvgStretch),
		})
	}
	return &Table{
		ID:     "appsim",
		Title:  "Protocol behavior on dK-random ensembles (attack 5% hubs; SI worm beta=0.5; greedy routing)",
		Header: []string{"graph", "GCC after attack", "worm rounds to 90%", "routing success", "routing stretch"},
		Rows:   rows,
	}, nil
}

// SExplore reproduces the 1K-space exploration the paper describes as
// "the core of recent work that led the authors of [19] to conclude that
// d = 1 was not constraining enough": drive the likelihood S = Σ d_u·d_v
// to its extremes under degree-preserving rewiring and watch every other
// metric swing, normalized as S/S_max like Li et al.'s s-metric.
func (l *Lab) SExplore() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	budget := 40 * sk.M()
	type variant struct {
		name string
		max  bool
	}
	cols := make([]metricsSummaryNamed, 0, 3)
	for vi, v := range []variant{{"min S", false}, {"max S", true}} {
		rng := l.Rng(12000 + int64(vi))
		res, err := generate.Explore(sk, generate.MetricLikelihood, generate.ExploreOptions{
			Rng:         rng,
			Maximize:    v.max,
			MaxAttempts: budget,
			Patience:    budget / 2,
		})
		if err != nil {
			return nil, fmt.Errorf("sexplore %s: %w", v.name, err)
		}
		sum, err := summarizeGCC(res.FinalGraph, false, rng)
		if err != nil {
			return nil, err
		}
		cols = append(cols, metricsSummaryNamed{v.name, sum})
	}
	orig, err := summarizeGCC(sk, false, l.Rng(12099))
	if err != nil {
		return nil, err
	}
	cols = append(cols, metricsSummaryNamed{"original", orig})
	sMaxGreedy := metrics.SMaxGreedy(gccOf(sk).DegreeSequence())
	rows := [][]string{}
	addRow := func(name string, pick func(s metrics.Summary) float64) {
		row := []string{name}
		for _, c := range cols {
			row = append(row, f(pick(c.sum)))
		}
		rows = append(rows, row)
	}
	addRow("S/Smax", func(s metrics.Summary) float64 { return s.S / sMaxGreedy })
	addRow("r", func(s metrics.Summary) float64 { return s.R })
	addRow("cbar", func(s metrics.Summary) float64 { return s.CBar })
	addRow("dbar", func(s metrics.Summary) float64 { return s.DBar })
	return &Table{
		ID:     "sexplore",
		Title:  "1K-space exploration: likelihood S extremes under fixed degree distribution",
		Header: []string{"metric", "min S", "max S", "original"},
		Rows:   rows,
	}, nil
}

type metricsSummaryNamed struct {
	name string
	sum  metrics.Summary
}
