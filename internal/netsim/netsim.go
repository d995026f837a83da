// Package netsim implements the protocol-level studies the paper's
// introduction motivates as consumers of realistic topologies: robustness
// to random failures and targeted attacks, worm/epidemic spreading speed,
// and degree-greedy routing efficiency. The experiments and examples use
// it to show, in application terms, the paper's claim that dK-random
// graphs of sufficient depth are drop-in replacements for measured
// topologies.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// ErrInvalid marks parameter-validation failures. Callers (the scenario
// subsystem, the HTTP surface) match it with errors.Is to classify the
// failure as a client error (400) rather than an internal fault.
var ErrInvalid = errors.New("invalid parameter")

// invalidf builds a typed validation error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("netsim: %s: %w", fmt.Sprintf(format, args...), ErrInvalid)
}

// RobustnessPoint is one sample of a percolation curve.
type RobustnessPoint struct {
	RemovedFrac float64 // fraction of nodes removed
	GCCFrac     float64 // giant-component share of the surviving nodes
}

// Robustness removes increasing fractions of nodes — uniformly at random,
// or highest-degree-first when targeted is true (the attack model of
// Albert et al. that the paper's robustness citations build on) — and
// reports the giant-component share among all original nodes.
func Robustness(s *graph.CSR, fracs []float64, targeted bool, rng *rand.Rand) ([]RobustnessPoint, error) {
	n := s.N()
	if n == 0 {
		return nil, invalidf("empty graph")
	}
	for _, frac := range fracs {
		if frac < 0 || frac > 1 {
			return nil, invalidf("removal fraction %v outside [0,1]", frac)
		}
	}
	// Removal order: random permutation or degree-descending.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if targeted {
		sort.SliceStable(order, func(a, b int) bool {
			return s.Degree(order[a]) > s.Degree(order[b])
		})
	} else {
		if rng == nil {
			return nil, invalidf("random failures require rng")
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	out := make([]RobustnessPoint, 0, len(fracs))
	removed := make([]bool, n)
	cut := 0
	for _, frac := range fracs {
		want := int(frac * float64(n))
		for cut < want && cut < n {
			removed[order[cut]] = true
			cut++
		}
		out = append(out, RobustnessPoint{frac, gccFracUnder(s, removed)})
	}
	return out, nil
}

// gccFracUnder computes the largest connected component among nodes not
// marked removed, as a fraction of the total node count.
func gccFracUnder(s *graph.CSR, removed []bool) float64 {
	n := s.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	best := 0
	queue := make([]int32, 0, n)
	next := int32(0)
	for root := 0; root < n; root++ {
		if removed[root] || comp[root] >= 0 {
			continue
		}
		id := next
		next++
		size := 1
		comp[root] = id
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range s.Neighbors(int(u)) {
				if !removed[v] && comp[v] < 0 {
					comp[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return float64(best) / float64(n)
}

// WormResult traces an SI ("susceptible-infected") epidemic: Coverage[r]
// is the infected fraction after round r (Coverage[0] is the seed).
type WormResult struct {
	Coverage []float64
}

// RoundsTo returns the first round at which coverage reaches the target
// fraction, or -1 if it never does.
func (w WormResult) RoundsTo(frac float64) int {
	for r, c := range w.Coverage {
		if c >= frac {
			return r
		}
	}
	return -1
}

// WormSpread runs a synchronous SI epidemic from a random seed: each
// round, every infected node infects each susceptible neighbor
// independently with probability beta. It stops when no new infections
// occur or maxRounds is reached. This is the "speed of worms spreading"
// experiment the paper ties to the distance distribution. beta must lie
// in (0,1]: a zero rate never spreads yet keeps every frontier node
// "infectious", so the loop would spin until maxRounds for nothing.
func WormSpread(s *graph.CSR, beta float64, maxRounds int, rng *rand.Rand) (WormResult, error) {
	n := s.N()
	if n == 0 {
		return WormResult{}, invalidf("empty graph")
	}
	if rng == nil {
		return WormResult{}, invalidf("rng required")
	}
	if beta <= 0 || beta > 1 {
		return WormResult{}, invalidf("beta %v outside (0,1]", beta)
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	infected := make([]bool, n)
	frontier := []int32{int32(rng.Intn(n))}
	infected[frontier[0]] = true
	count := 1
	res := WormResult{Coverage: []float64{1 / float64(n)}}
	for round := 0; round < maxRounds && len(frontier) > 0; round++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range s.Neighbors(int(u)) {
				if infected[v] {
					continue
				}
				if beta >= 1 || rng.Float64() < beta {
					infected[v] = true
					count++
					next = append(next, v)
				}
			}
		}
		// Nodes that failed to infect some neighbors stay infectious:
		// carry them while they still have susceptible neighbors.
		if beta < 1 {
			for _, u := range frontier {
				for _, v := range s.Neighbors(int(u)) {
					if !infected[v] {
						next = append(next, u)
						break
					}
				}
			}
		}
		frontier = next
		res.Coverage = append(res.Coverage, float64(count)/float64(n))
		if count == n {
			break
		}
	}
	return res, nil
}

// RoutingResult summarizes a greedy-routing trial set.
type RoutingResult struct {
	SuccessRate float64 // fraction of trials that reached the target
	AvgStretch  float64 // mean (greedy hops / shortest hops) over successes
}

// GreedyDegreeRouting measures degree-greedy routing (forward to the
// highest-degree not-yet-visited neighbor, following the
// high-degree-first strategies the paper's searching/routing citations
// study) over random source–target pairs. TTL bounds each walk; ttl <= 0
// selects the default bound of 4n hops. Graphs with fewer than two nodes
// have no source–target pairs and yield the zero result rather than an
// error, so degenerate ensemble members produce well-defined curves.
func GreedyDegreeRouting(s *graph.CSR, trials, ttl int, rng *rand.Rand) (RoutingResult, error) {
	n := s.N()
	if trials <= 0 {
		return RoutingResult{}, invalidf("trials %d must be positive", trials)
	}
	if n < 2 {
		return RoutingResult{}, nil
	}
	if rng == nil {
		return RoutingResult{}, invalidf("rng required")
	}
	if ttl <= 0 {
		ttl = 4 * n
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	visited := make([]int, n) // trial stamp
	success := 0
	var stretchSum float64
	for trial := 1; trial <= trials; trial++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		// Shortest distance for the stretch denominator (BFS from dst so
		// greedy can also terminate on reaching dst's component check).
		graph.BFS(s, dst, dist, queue)
		if dist[src] < 0 {
			continue // unreachable: not counted as a trial failure
		}
		cur := src
		hops := 0
		ok := false
		for hops < ttl {
			if cur == dst {
				ok = true
				break
			}
			visited[cur] = trial
			// Move to the highest-degree unvisited neighbor; if the
			// target is adjacent, take it.
			bestN, bestDeg := -1, -1
			direct := false
			for _, v32 := range s.Neighbors(cur) {
				v := int(v32)
				if v == dst {
					direct = true
					break
				}
				if visited[v] != trial && s.Degree(v) > bestDeg {
					bestN, bestDeg = v, s.Degree(v)
				}
			}
			if direct {
				cur = dst
				hops++
				continue
			}
			if bestN < 0 {
				break // dead end
			}
			cur = bestN
			hops++
		}
		if ok {
			success++
			stretchSum += float64(hops) / float64(dist[src])
		}
	}
	res := RoutingResult{}
	if trials > 0 {
		res.SuccessRate = float64(success) / float64(trials)
	}
	if success > 0 {
		res.AvgStretch = stretchSum / float64(success)
	}
	return res, nil
}
