package subgraphs

import "repro/internal/graph"

// Delta is the map-keyed census delta, kept as the independent reference
// the dense Tracker is tested against. It accumulates signed census
// changes from a sequence of edge insertions and removals performed at
// fixed node degrees on a map-adjacency graph: a degree-preserving
// double-edge swap applies four single-edge changes whose deltas telescope
// to exactly (census after − census before).
//
// The degree slice passed to the mutation methods must be the (constant)
// degree sequence of the graph before and after the whole swap; the
// intermediate graph states have different instantaneous degrees, but the
// census keys of the initial and final graphs both use deg, so the
// telescoped sum is exact.
type Delta struct {
	Wedges    map[WedgeKey]int64
	Triangles map[TriangleKey]int64
}

// NewDelta returns an empty delta.
func NewDelta() *Delta {
	return &Delta{
		Wedges:    make(map[WedgeKey]int64),
		Triangles: make(map[TriangleKey]int64),
	}
}

// Reset clears the delta for reuse.
func (d *Delta) Reset() {
	clear(d.Wedges)
	clear(d.Triangles)
}

// IsZero reports whether every accumulated count change is zero — i.e.
// whether the edge changes recorded so far preserve the 3K-distribution.
func (d *Delta) IsZero() bool {
	for _, v := range d.Wedges {
		if v != 0 {
			return false
		}
	}
	for _, v := range d.Triangles {
		if v != 0 {
			return false
		}
	}
	return true
}

func (d *Delta) addWedge(kEnd1, kCenter, kEnd2 int, sign int64) {
	addCount(d.Wedges, NewWedgeKey(kEnd1, kCenter, kEnd2), sign)
}

func (d *Delta) addTriangle(a, b, c int, sign int64) {
	addCount(d.Triangles, NewTriangleKey(a, b, c), sign)
}

// RemoveEdge records the census change caused by deleting edge (u,v) from
// g. It must be called while the edge is still present; the caller then
// performs g.RemoveEdge(u, v).
func (d *Delta) RemoveEdge(g *graph.Graph, deg []int, u, v int) {
	d.edgeChange(g, deg, u, v, -1)
}

// AddEdge records the census change caused by inserting edge (u,v) into g.
// It must be called while the edge is still absent; the caller then
// performs g.AddEdge(u, v).
func (d *Delta) AddEdge(g *graph.Graph, deg []int, u, v int) {
	d.edgeChange(g, deg, u, v, +1)
}

// edgeChange enumerates the wedges and triangles whose existence toggles
// with edge (u,v): triangles through each common neighbor w (which trade
// places with the u–w–v wedge centered at w), wedges centered at u ending
// at v, and wedges centered at v ending at u.
func (d *Delta) edgeChange(g *graph.Graph, deg []int, u, v int, sign int64) {
	du, dv := deg[u], deg[v]
	g.VisitNeighbors(u, func(w int) bool {
		if w == v {
			return true
		}
		if g.HasEdge(w, v) {
			// Common neighbor: triangle {u,v,w} toggles on, wedge u–w–v
			// (centered at w) toggles off, or vice versa.
			d.addTriangle(du, dv, deg[w], sign)
			d.addWedge(du, deg[w], dv, -sign)
		} else {
			// Wedge v–u–w centered at u.
			d.addWedge(dv, du, deg[w], sign)
		}
		return true
	})
	g.VisitNeighbors(v, func(w int) bool {
		if w == u || g.HasEdge(w, u) {
			return true // common neighbors already handled from u's side
		}
		// Wedge u–v–w centered at v.
		d.addWedge(du, dv, deg[w], sign)
		return true
	})
}

// ApplyTo returns census c with the delta folded in.
func (d *Delta) ApplyTo(c *Census) *Census {
	w, t := countsOf(c)
	for k, v := range d.Wedges {
		addCount(w, k, v)
	}
	for k, v := range d.Triangles {
		addCount(t, k, v)
	}
	return censusOf(w, t)
}
