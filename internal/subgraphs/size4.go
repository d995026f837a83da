package subgraphs

import "repro/internal/graph"

// Size4Census counts the six connected non-isomorphic graphs on four
// nodes (OEIS A001349: 1, 1, 2, 6, ...), the building blocks of the
// paper's 4K-distribution. Counts are of subgraphs (not necessarily
// induced), the convention under which the closed-form identities below
// hold; the package documentation for Count describes the induced
// convention used at d = 3.
//
// The six classes, in the paper's numbering of "all non-isomorphic graphs
// of size 4 numbered by 1..6":
//
//	Path4    a–b–c–d            (path on 4 nodes)
//	Claw     K1,3               (star)
//	Cycle4   a–b–c–d–a          (4-cycle)
//	Paw      triangle + pendant edge
//	Diamond  K4 minus one edge
//	K4       complete graph on 4 nodes
type Size4Census struct {
	Path4   int64
	Claw    int64
	Cycle4  int64
	Paw     int64
	Diamond int64
	K4      int64
}

// CountSize4 computes the size-4 subgraph census of s.
//
// It uses standard counting identities driven by one wedge enumeration
// (for co-degrees) and one triangle enumeration:
//
//	claws    = Σ_v C(d_v, 3)
//	paths4   = Σ_{(u,v)∈E} (d_u−1)(d_v−1) − 3·triangles
//	cycles4  = (1/2) Σ_{u<v} C(codeg(u,v), 2)
//	paws     = Σ_triangles Σ_{v∈T} (d_v − 2)
//	diamonds = Σ_{(u,v)∈E} C(codeg(u,v), 2) restricted to adjacent pairs... see code
//	k4       = per-edge common-neighbor pair adjacency check / 6
//
// Co-degree accumulation costs O(Σ_c deg(c)²) memory-light passes; this is
// a diagnostic intended for small and mid-sized graphs.
func CountSize4(s *graph.CSR) Size4Census {
	var c Size4Census
	n := s.N()
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = s.Degree(u)
	}

	// Claws: choose 3 neighbors of a center.
	for v := 0; v < n; v++ {
		d := int64(deg[v])
		c.Claw += d * (d - 1) * (d - 2) / 6
	}

	// Triangles (plain count) and paws.
	var triangles int64
	for u := 0; u < n; u++ {
		nu := s.Neighbors(u)
		for _, v32 := range nu {
			v := int(v32)
			if v <= u {
				continue
			}
			for _, w32 := range s.Neighbors(v) {
				w := int(w32)
				if w <= v {
					continue
				}
				if s.HasEdge(u, w) {
					triangles++
					c.Paw += int64(deg[u]-2) + int64(deg[v]-2) + int64(deg[w]-2)
				}
			}
		}
	}

	// Paths on 4 nodes.
	for u := 0; u < n; u++ {
		for _, v32 := range s.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			c.Path4 += int64(deg[u]-1) * int64(deg[v]-1)
		}
	}
	c.Path4 -= 3 * triangles

	// Co-degree based counts: cycles4, diamonds, K4.
	// codeg(a,b) accumulated by enumerating wedges a–c–b.
	codeg := make(map[[2]int32]int32)
	for center := 0; center < n; center++ {
		nbrs := s.Neighbors(center)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				key := [2]int32{nbrs[i], nbrs[j]}
				codeg[key]++
			}
		}
	}
	for key, cd := range codeg {
		pairs := int64(cd) * int64(cd-1) / 2
		c.Cycle4 += pairs
		if s.HasEdge(int(key[0]), int(key[1])) {
			c.Diamond += pairs
		}
	}
	c.Cycle4 /= 2

	// K4: for each edge, pairs of common neighbors that are themselves
	// adjacent; every K4 is found once per its 6 edges.
	var k4 int64
	common := make([]int32, 0, 64)
	for u := 0; u < n; u++ {
		for _, v32 := range s.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			common = common[:0]
			for _, w := range s.Neighbors(u) {
				if int(w) != v && s.HasEdge(v, int(w)) {
					common = append(common, w)
				}
			}
			for i := 0; i < len(common); i++ {
				for j := i + 1; j < len(common); j++ {
					if s.HasEdge(int(common[i]), int(common[j])) {
						k4++
					}
				}
			}
		}
	}
	c.K4 = k4 / 6

	// A diamond was counted once per its central (shared) edge, but the
	// C(codeg,2) sum over adjacent pairs also counts each K4 once per each
	// of its 6 edges with each of its C(2,2)=1 opposite pairs... K4
	// contains diamonds as subgraphs: keep the non-induced convention, so
	// no correction is applied. Diamond here = pairs of triangles sharing
	// an edge.
	return c
}
