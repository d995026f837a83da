// Package scenario turns the protocol studies of internal/netsim into a
// deterministic, parallel pipeline citizen. The paper's application
// claim (Section 1, Section 5) is behavioral: dK-random graphs of
// sufficient depth should be drop-in replacements for a measured
// topology under failure/attack percolation, worm spreading, and
// degree-greedy routing. This package runs a typed scenario spec against
// an ensemble — the measured graph plus its dK-random replicas — and
// reduces the (graph × trial) fan-out into comparison curves: the
// measured graph's trial-mean curve, the ensemble's mean/min/max band,
// and a divergence summary (max over x of |measured − ensemble mean|).
//
// Determinism contract: curves are a pure function of (graphs, spec,
// seed). Every (graph, trial) task derives its own rand.Rand from
// parallel.SubSeed and writes into its own slot of a pre-sized slice;
// the reduction then runs sequentially in index order, so results are
// bit-identical at any worker count.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/pkg/dkapi"
)

// Spec bounds. They cap the work one netsim step can request; requests
// beyond them fail validation (HTTP 400), mirroring pipeline.Limits.
const (
	MaxScenarios = 16   // scenarios per netsim step
	MaxFracs     = 128  // removal fractions per robustness scenario
	MaxTrials    = 128  // independent trials per graph
	MaxRounds    = 1024 // epidemic rounds
	MaxPairs     = 4096 // routing source–target pairs per trial
	MaxTTL       = 1 << 20
)

// Defaults applied by withDefaults for knobs left zero.
const (
	DefaultTrials = 1
	DefaultRounds = 32
	DefaultPairs  = 32
)

// ErrInvalidSpec marks scenario-spec validation failures; the wire
// surface maps it (via pipeline.Validate) to 400 bad_request.
var ErrInvalidSpec = errors.New("invalid scenario spec")

// invalidf builds a typed validation error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInvalidSpec)
}

// ValidateSpecs checks the scenario list of a netsim step. It is pure —
// no graph access — so the service rejects malformed requests
// synchronously and recovery can re-validate journaled specs.
func ValidateSpecs(specs []dkapi.ScenarioSpec) error {
	if len(specs) == 0 {
		return invalidf("netsim requires at least one scenario")
	}
	if len(specs) > MaxScenarios {
		return invalidf("%d scenarios; the limit is %d", len(specs), MaxScenarios)
	}
	for i, sp := range specs {
		if err := validateSpec(sp); err != nil {
			return fmt.Errorf("scenario %d (%s): %w", i, sp.Kind, err)
		}
	}
	return nil
}

// validateSpec checks one spec: the kind's required knobs are in range
// and knobs of other kinds are left zero, so a typo'd field fails loudly
// instead of being silently ignored.
func validateSpec(sp dkapi.ScenarioSpec) error {
	if sp.Trials < 0 || sp.Trials > MaxTrials {
		return invalidf("trials=%d outside 0..%d (0 selects the default %d)", sp.Trials, MaxTrials, DefaultTrials)
	}
	forbid := func(name string, set bool) error {
		if set {
			return invalidf("%s does not apply to kind %q", name, sp.Kind)
		}
		return nil
	}
	switch sp.Kind {
	case dkapi.ScenarioRobustness:
		if len(sp.Fracs) == 0 {
			return invalidf("fracs is required")
		}
		if len(sp.Fracs) > MaxFracs {
			return invalidf("%d fracs; the limit is %d", len(sp.Fracs), MaxFracs)
		}
		for _, f := range sp.Fracs {
			if f < 0 || f > 1 || f != f {
				return invalidf("removal fraction %v outside [0,1]", f)
			}
		}
		for _, c := range []struct {
			name string
			set  bool
		}{{"beta", sp.Beta != 0}, {"rounds", sp.Rounds != 0}, {"pairs", sp.Pairs != 0}, {"ttl", sp.TTL != 0}} {
			if err := forbid(c.name, c.set); err != nil {
				return err
			}
		}
	case dkapi.ScenarioEpidemic:
		if sp.Beta <= 0 || sp.Beta > 1 || sp.Beta != sp.Beta {
			return invalidf("beta %v outside (0,1]", sp.Beta)
		}
		if sp.Rounds < 0 || sp.Rounds > MaxRounds {
			return invalidf("rounds=%d outside 0..%d (0 selects the default %d)", sp.Rounds, MaxRounds, DefaultRounds)
		}
		for _, c := range []struct {
			name string
			set  bool
		}{{"fracs", len(sp.Fracs) > 0}, {"targeted", sp.Targeted}, {"pairs", sp.Pairs != 0}, {"ttl", sp.TTL != 0}} {
			if err := forbid(c.name, c.set); err != nil {
				return err
			}
		}
	case dkapi.ScenarioRouting:
		if sp.Pairs < 0 || sp.Pairs > MaxPairs {
			return invalidf("pairs=%d outside 0..%d (0 selects the default %d)", sp.Pairs, MaxPairs, DefaultPairs)
		}
		if sp.TTL < 0 || sp.TTL > MaxTTL {
			return invalidf("ttl=%d outside 0..%d (0 selects the default 4n)", sp.TTL, MaxTTL)
		}
		for _, c := range []struct {
			name string
			set  bool
		}{{"fracs", len(sp.Fracs) > 0}, {"targeted", sp.Targeted}, {"beta", sp.Beta != 0}, {"rounds", sp.Rounds != 0}} {
			if err := forbid(c.name, c.set); err != nil {
				return err
			}
		}
	case "":
		return invalidf("kind is required")
	default:
		return invalidf("unknown kind %q (want robustness|epidemic|routing)", sp.Kind)
	}
	return nil
}

// withDefaults fills the zero knobs of a validated spec.
func withDefaults(sp dkapi.ScenarioSpec) dkapi.ScenarioSpec {
	if sp.Trials == 0 {
		sp.Trials = DefaultTrials
	}
	if sp.Kind == dkapi.ScenarioEpidemic && sp.Rounds == 0 {
		sp.Rounds = DefaultRounds
	}
	if sp.Kind == dkapi.ScenarioRouting && sp.Pairs == 0 {
		sp.Pairs = DefaultPairs
	}
	return sp
}

// Run executes one scenario over the measured graph and its replica
// ensemble and reduces the fan-out into comparison curves. seed is the
// scenario's own seed stream (the caller derives one per scenario from
// the step seed); sp must have passed validateSpec.
func Run(measured *graph.CSR, ensemble []*graph.CSR, sp dkapi.ScenarioSpec, seed int64) (dkapi.ScenarioCurves, error) {
	sp = withDefaults(sp)
	graphs := make([]*graph.CSR, 0, 1+len(ensemble))
	graphs = append(graphs, measured)
	graphs = append(graphs, ensemble...)
	trials := sp.Trials
	nTasks := len(graphs) * trials
	curves := make([][]dkapi.CurvePoint, nTasks)
	err := parallel.ForErr(nTasks, func(i int) error {
		rng := rand.New(rand.NewSource(parallel.SubSeed(seed, i)))
		c, err := runTrial(graphs[i/trials], sp, rng)
		curves[i] = c
		return err
	})
	if err != nil {
		return dkapi.ScenarioCurves{}, err
	}
	// Reduce sequentially, in index order: per-graph trial means first,
	// then the ensemble band over the replica means.
	per := make([][]dkapi.CurvePoint, len(graphs))
	for gi := range graphs {
		per[gi] = meanCurve(curves[gi*trials : (gi+1)*trials])
	}
	res := dkapi.ScenarioCurves{Kind: sp.Kind, Trials: trials, Measured: per[0]}
	if len(graphs) > 1 {
		res.Ensemble = band(per[1:])
		div := divergence(per[0], res.Ensemble)
		res.Divergence = &div
	}
	return res, nil
}

// runTrial runs one (graph, trial) task and returns its curve on the
// scenario's fixed x grid.
func runTrial(s *graph.CSR, sp dkapi.ScenarioSpec, rng *rand.Rand) ([]dkapi.CurvePoint, error) {
	switch sp.Kind {
	case dkapi.ScenarioRobustness:
		pts, err := netsim.Robustness(s, sp.Fracs, sp.Targeted, rng)
		if err != nil {
			return nil, err
		}
		out := make([]dkapi.CurvePoint, len(pts))
		for i, p := range pts {
			out[i] = dkapi.CurvePoint{X: p.RemovedFrac, Y: p.GCCFrac}
		}
		return out, nil
	case dkapi.ScenarioEpidemic:
		res, err := netsim.WormSpread(s, sp.Beta, sp.Rounds, rng)
		if err != nil {
			return nil, err
		}
		// Fix the grid to rounds+1 points so curves from graphs that
		// saturate early still align for the band reduction: coverage
		// holds at its final value after the epidemic stops.
		out := make([]dkapi.CurvePoint, sp.Rounds+1)
		last := 0.0
		for i := range out {
			if i < len(res.Coverage) {
				last = res.Coverage[i]
			}
			out[i] = dkapi.CurvePoint{X: float64(i), Y: last}
		}
		return out, nil
	case dkapi.ScenarioRouting:
		res, err := netsim.GreedyDegreeRouting(s, sp.Pairs, sp.TTL, rng)
		if err != nil {
			return nil, err
		}
		return []dkapi.CurvePoint{{X: 0, Y: res.SuccessRate}, {X: 1, Y: res.AvgStretch}}, nil
	default:
		return nil, invalidf("unknown kind %q", sp.Kind)
	}
}

// meanCurve averages trial curves pointwise. All trials of one scenario
// share the x grid, so the mean is taken y-wise at each index, summing
// in trial order for bit-stable floats.
func meanCurve(trials [][]dkapi.CurvePoint) []dkapi.CurvePoint {
	out := make([]dkapi.CurvePoint, len(trials[0]))
	copy(out, trials[0])
	for _, t := range trials[1:] {
		for i := range out {
			out[i].Y += t[i].Y
		}
	}
	inv := 1 / float64(len(trials))
	for i := range out {
		out[i].Y *= inv
	}
	return out
}

// band folds the per-replica mean curves into mean/min/max at each x,
// summing in replica order.
func band(replicas [][]dkapi.CurvePoint) []dkapi.BandPoint {
	out := make([]dkapi.BandPoint, len(replicas[0]))
	for i, p := range replicas[0] {
		out[i] = dkapi.BandPoint{X: p.X, Mean: p.Y, Min: p.Y, Max: p.Y}
	}
	for _, r := range replicas[1:] {
		for i := range out {
			y := r[i].Y
			out[i].Mean += y
			if y < out[i].Min {
				out[i].Min = y
			}
			if y > out[i].Max {
				out[i].Max = y
			}
		}
	}
	inv := 1 / float64(len(replicas))
	for i := range out {
		out[i].Mean *= inv
	}
	return out
}

// divergence is the scenario summary: the maximum pointwise distance
// between the measured curve and the ensemble mean.
func divergence(measured []dkapi.CurvePoint, ensemble []dkapi.BandPoint) float64 {
	max := 0.0
	for i := range measured {
		d := measured[i].Y - ensemble[i].Mean
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
