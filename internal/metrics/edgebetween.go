package metrics

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// EdgeBetweenness computes edge betweenness centrality — the paper's
// "link value" analogue — with the edge variant of Brandes' algorithm:
// for each edge, the sum over node pairs of the fraction of shortest
// paths crossing it. Each unordered pair is counted once. The result maps
// canonical edges to values.
//
// The per-source passes fan out over the worker pool; each fixed chunk of
// sources accumulates into its own map and the maps are merged in chunk
// order, so every edge's value is summed in a worker-count-independent
// order and the result is bit-identical at any parallelism level.
func EdgeBetweenness(s *graph.CSR) map[graph.Edge]float64 {
	n := s.N()
	out := make(map[graph.Edge]float64, s.M())
	scratch := make([]*brandesScratch, parallel.Workers())
	parallel.OrderedReduce(n, accumChunks, func(worker, lo, hi int) map[graph.Edge]float64 {
		if scratch[worker] == nil {
			scratch[worker] = newBrandesScratch(n)
		}
		sc := scratch[worker]
		part := make(map[graph.Edge]float64)
		for src := lo; src < hi; src++ {
			sc.forward(s, src)
			// Dependency accumulation in reverse BFS order, attributing
			// each contribution to the edge it crosses.
			for i := len(sc.stack) - 1; i > 0; i-- {
				w := sc.stack[i]
				coeff := (1 + sc.delta[w]) / sc.sigma[w]
				dw := sc.dist[w]
				for _, v := range s.Neighbors(int(w)) {
					if sc.dist[v] == dw-1 {
						contrib := sc.sigma[v] * coeff
						sc.delta[v] += contrib
						e := graph.Edge{U: int(v), V: int(w)}.Canon()
						part[e] += contrib
					}
				}
			}
		}
		return part
	}, func(part map[graph.Edge]float64) {
		for e, v := range part {
			out[e] += v
		}
	})
	// Each unordered pair contributed twice (once per endpoint as
	// source).
	for e := range out {
		out[e] /= 2
	}
	return out
}

// DegreeCorrelationAtDistance returns the Pearson correlation of the
// degrees of node pairs at exactly hop-distance d — the first of the two
// "extreme metrics" of Section 4.3 (at d = 1 it is the assortativity
// coefficient computed over edges; at d = 2 it summarizes the same
// information as S2). Returns 0 when fewer than two pairs exist or the
// degree variance vanishes. The per-source BFS sweep is parallelized with
// chunk-ordered partial sums, so it is deterministic at any worker count.
func DegreeCorrelationAtDistance(s *graph.CSR, d int) float64 {
	if d < 1 {
		return 0
	}
	n := s.N()
	type sums struct{ cnt, sumX, sumY, sumXY, sumX2, sumY2 float64 }
	var t sums
	scratch := make([]*bfsScratch, parallel.Workers())
	parallel.OrderedReduce(n, accumChunks,
		func(worker, lo, hi int) sums {
			sc := bfsScratchFor(scratch, worker, n)
			var p sums
			for src := lo; src < hi; src++ {
				graph.BFS(s, src, sc.dist, sc.queue)
				dx := float64(s.Degree(src))
				for v := src + 1; v < n; v++ {
					if int(sc.dist[v]) != d {
						continue
					}
					dy := float64(s.Degree(v))
					p.cnt++
					p.sumX += dx
					p.sumY += dy
					p.sumXY += dx * dy
					p.sumX2 += dx * dx
					p.sumY2 += dy * dy
				}
			}
			return p
		},
		func(p sums) {
			t.cnt += p.cnt
			t.sumX += p.sumX
			t.sumY += p.sumY
			t.sumXY += p.sumXY
			t.sumX2 += p.sumX2
			t.sumY2 += p.sumY2
		})
	if t.cnt < 2 {
		return 0
	}
	// Symmetrize: each unordered pair contributes (dx,dy) once here, but
	// correlation over unordered pairs should be orientation-free; use
	// the symmetric sums.
	sx := (t.sumX + t.sumY) / 2
	sxx := (t.sumX2 + t.sumY2) / 2
	num := t.sumXY/t.cnt - (sx/t.cnt)*(sx/t.cnt)
	den := sxx/t.cnt - (sx/t.cnt)*(sx/t.cnt)
	if den == 0 {
		return 0
	}
	return num / den
}
