// Package core is the public face of the dK-series library: it ties
// together extraction of dK-distributions (internal/dk), every graph
// construction approach of the paper (internal/generate), and the metric
// suite (internal/metrics) behind a small orchestration API mirroring the
// paper's workflow:
//
//	profile, _ := core.Extract(g, 2)              // measure dK-distribution
//	synth, _   := core.Generate(profile, 2, core.MethodPseudograph, opt)
//	random, _  := core.Randomize(g, 2, opt)       // dK-randomize an input
//	report, _  := core.Compare(g, synth, opt)     // metric side-by-side
//
// Depth d selects the dK-series member: 0 (average degree), 1 (degree
// distribution), 2 (joint degree distribution), 3 (wedge/triangle
// distributions).
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Method selects a construction algorithm family (Section 4.1).
type Method int

// Construction methods. Not every (method, depth) pair exists: the paper
// proves no pseudograph/matching generalization beyond d = 2 and
// randomizing rewiring needs an original graph, not just a distribution.
const (
	// MethodStochastic connects node pairs independently with
	// depth-specific probabilities (supported for d = 0, 1, 2).
	MethodStochastic Method = iota
	// MethodPseudograph is the configuration model family
	// (d = 1, 2); the result is the giant connected component per the
	// paper's recipe.
	MethodPseudograph
	// MethodMatching is loop-avoiding stub matching (d = 1, 2),
	// realizing the target distribution exactly.
	MethodMatching
	// MethodTargeting bootstraps a (d−1)K graph and applies dK-targeting
	// (d−1)K-preserving rewiring (d = 1, 2, 3).
	MethodTargeting
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodStochastic:
		return "stochastic"
	case MethodPseudograph:
		return "pseudograph"
	case MethodMatching:
		return "matching"
	case MethodTargeting:
		return "targeting"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures generation.
type Options struct {
	// Rng drives all randomness (required).
	Rng *rand.Rand
	// Target tunes targeting-rewire runs; zero values use defaults.
	Target generate.TargetOptions
}

// Extract computes the dK-distributions of g up to depth d (0..3).
func Extract(g *graph.CSR, d int) (*dk.Profile, error) {
	return dk.Extract(g, d)
}

// Generate constructs a random graph with property P_d of the profile,
// using the requested method. The profile must have been extracted to
// depth >= d.
func Generate(p *dk.Profile, d int, method Method, opt Options) (*graph.CSR, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("core: Options.Rng is required")
	}
	if p.D < d {
		return nil, fmt.Errorf("core: profile depth %d < requested %d", p.D, d)
	}
	gopt := generate.Options{Rng: opt.Rng}
	switch {
	case d == 0:
		return generate.Stochastic0K(p.N, p.AvgDegree, gopt)
	case d == 1 && method == MethodStochastic:
		return generate.Stochastic1K(p.Degrees, gopt)
	case d == 1 && method == MethodPseudograph:
		res, err := generate.Pseudograph1K(p.Degrees, gopt)
		if err != nil {
			return nil, err
		}
		return res.GCC, nil
	case d == 1 && method == MethodMatching:
		return generate.Matching1K(p.Degrees, gopt)
	case d == 1 && method == MethodTargeting:
		start, err := generate.Stochastic0K(p.N, p.AvgDegree, gopt)
		if err != nil {
			return nil, err
		}
		return runTargeting(start, p, 1, opt)
	case d == 2 && method == MethodStochastic:
		return generate.Stochastic2K(p.Joint, gopt)
	case d == 2 && method == MethodPseudograph:
		res, err := generate.Pseudograph2K(p.Joint, gopt)
		if err != nil {
			return nil, err
		}
		return res.GCC, nil
	case d == 2 && method == MethodMatching:
		return generate.Matching2K(p.Joint, gopt)
	case d == 2 && method == MethodTargeting:
		// Paper §5.1: bootstrap a 1K-random graph, then apply 2K-targeting
		// 1K-preserving rewiring. Matching realizes the degree sequence
		// exactly (pseudograph GCC extraction loses leaf-heavy graphs'
		// nodes, leaving the JDD target unreachable); fall back to the
		// full simplified pseudograph when matching deadlocks.
		start, err := generate.Matching1K(p.Degrees, gopt)
		if err != nil {
			res, err2 := generate.Pseudograph1K(p.Degrees, gopt)
			if err2 != nil {
				return nil, err
			}
			start = res.Full
		}
		return runTargeting(start, p, 2, opt)
	case d == 3 && method == MethodTargeting:
		// Paper §5.1: 2K-random bootstrap, then 3K-targeting
		// 2K-preserving rewiring. Matching realizes the JDD exactly.
		start, err := generate.Matching2K(p.Joint, gopt)
		if err != nil {
			res, err2 := generate.Pseudograph2K(p.Joint, gopt)
			if err2 != nil {
				return nil, err
			}
			start = res.Full
		}
		return runTargeting(start, p, 3, opt)
	case d == 3:
		return nil, fmt.Errorf("core: d=3 generation from a distribution supports only MethodTargeting (the paper found no pseudograph/matching generalization past d=2); to 3K-randomize an existing graph use Randomize")
	default:
		return nil, fmt.Errorf("core: unsupported (depth=%d, method=%s)", d, method)
	}
}

func runTargeting(start *graph.CSR, p *dk.Profile, d int, opt Options) (*graph.CSR, error) {
	topt := opt.Target
	topt.Rng = opt.Rng
	topt.StopAtZero = true
	res, err := generate.TargetRewire(start, p, d, topt)
	if err != nil {
		return nil, err
	}
	return res.FinalGraph, nil
}

// Randomize returns a dK-random counterpart of g: a graph with the same
// dK-distribution at depth d but otherwise maximally random, produced by
// dK-preserving randomizing rewiring (the paper's default in Section 5.2).
func Randomize(g *graph.CSR, d int, opt Options) (*graph.CSR, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("core: Options.Rng is required")
	}
	out, _, err := generate.Randomize(g, d, generate.RandomizeOptions{Rng: opt.Rng})
	return out, err
}

// Distance returns D_d between the dK-distributions of two profiles.
func Distance(a, b *dk.Profile, d int) (float64, error) {
	return dk.Distance(a, b, d)
}

// ComparisonReport pairs metric summaries of two graphs (computed on
// their giant connected components, as in the paper's tables).
type ComparisonReport struct {
	A, B metrics.Summary
}

// Compare computes the scalar metric suite for both graphs' GCCs.
func Compare(a, b *graph.CSR, opt Options) (*ComparisonReport, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("core: Options.Rng is required")
	}
	ga, _ := graph.GiantComponent(a)
	gb, _ := graph.GiantComponent(b)
	sa, err := metrics.Summarize(ga, metrics.SummaryOptions{Spectral: true, Rng: opt.Rng})
	if err != nil {
		return nil, err
	}
	sb, err := metrics.Summarize(gb, metrics.SummaryOptions{Spectral: true, Rng: opt.Rng})
	if err != nil {
		return nil, err
	}
	return &ComparisonReport{A: sa, B: sb}, nil
}
