package generate

import (
	"fmt"
	"slices"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// Objective scores candidate rewiring moves incrementally. The Rewirer
// calls Delta with the graph as it stands before the move — Delta is
// read-only — and, if the move is kept, Commit with the same move once it
// has been applied. Objectives must be cheap: they are evaluated once per
// structurally valid proposal.
type Objective interface {
	Init(g *graph.CSR) error
	Delta(g *graph.CSR, m Move) float64
	Commit(m Move)
}

// addCounts folds the pending count changes into counts, dropping
// classes that return to zero.
func addCounts[K comparable, V int | int64](counts, pending map[K]V) {
	for k, v := range pending {
		addCount(counts, k, v)
	}
}

// addCount adds v to counts[k], dropping the class if it returns to zero.
func addCount[K comparable, V int | int64](counts map[K]V, k K, v V) {
	if nv := counts[k] + v; nv == 0 {
		delete(counts, k)
	} else {
		counts[k] = nv
	}
}

// sqDist is Σ_k (current(k) − target(k))² over the union of both
// class sets.
func sqDist[K comparable, V int | int64](current, target map[K]V) float64 {
	var sum float64
	for k, c := range current {
		d := float64(c - target[k])
		sum += d * d
	}
	for k, t := range target {
		if _, seen := current[k]; !seen {
			sum += float64(t) * float64(t)
		}
	}
	return sum
}

// --- D1: degree-distribution distance (1K-targeting, 0K-preserving) ---

// DegreeDistObjective tracks D1 = Σ_k (n_cur(k) − n_tgt(k))² under moves
// that change node degrees (depth-0 rewiring).
type DegreeDistObjective struct {
	target  map[int]int
	current map[int]int
	pending map[int]int // degree class → count delta of the candidate
	delta   float64
}

// NewDegreeDistObjective targets the given degree distribution.
func NewDegreeDistObjective(target *dk.DegreeDist) *DegreeDistObjective {
	return &DegreeDistObjective{target: target.Count}
}

// Init snapshots g's degree distribution.
func (o *DegreeDistObjective) Init(g *graph.CSR) error {
	o.current = make(map[int]int)
	for u := 0; u < g.N(); u++ {
		o.current[g.Degree(u)]++
	}
	o.pending = make(map[int]int)
	return nil
}

func (o *DegreeDistObjective) moveNode(from, to int) {
	o.bump(from, -1)
	o.bump(to, +1)
}

// bump applies a ±1 change to class k, updating the running D1 delta:
// for a count change c → c+s against target t, the squared-error change
// is s·(2(c−t)+s) with c the count including previously pending changes.
func (o *DegreeDistObjective) bump(k, s int) {
	c := float64(o.current[k] + o.pending[k])
	t := float64(o.target[k])
	o.delta += float64(s) * (2*(c-t) + float64(s))
	o.pending[k] += s
}

// Delta returns the D1 change of a depth-0 move: (U,V) loses an edge
// end at each endpoint, then (X,Y) gains one, with X's and Y's degrees
// read after (U,V) is removed. Double-edge swaps keep every degree.
func (o *DegreeDistObjective) Delta(g *graph.CSR, m Move) float64 {
	clear(o.pending)
	o.delta = 0
	if m.Depth > 0 {
		return 0
	}
	du, dv := g.Degree(m.U), g.Degree(m.V)
	o.moveNode(du, du-1)
	o.moveNode(dv, dv-1)
	dx, dy := g.Degree(m.X), g.Degree(m.Y)
	if m.X == m.U || m.X == m.V {
		dx--
	}
	if m.Y == m.U || m.Y == m.V {
		dy--
	}
	o.moveNode(dx, dx+1)
	o.moveNode(dy, dy+1)
	return o.delta
}

// Commit folds the pending changes into the tracked distribution.
func (o *DegreeDistObjective) Commit(Move) { addCounts(o.current, o.pending) }

// Current returns the tracked D1 value recomputed from state (test hook).
func (o *DegreeDistObjective) Current() float64 { return sqDist(o.current, o.target) }

// --- D2: JDD distance (2K-targeting, 1K-preserving) ---

// JDDObjective tracks the paper's D2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²
// under degree-preserving moves.
type JDDObjective struct {
	target  map[dk.DegPair]int
	current map[dk.DegPair]int
	pending map[dk.DegPair]int
	deg     []int
	delta   float64
}

// NewJDDObjective targets the given joint degree distribution.
func NewJDDObjective(target *dk.JDD) *JDDObjective {
	return &JDDObjective{target: target.Count}
}

// Init snapshots g's JDD and degree sequence.
func (o *JDDObjective) Init(g *graph.CSR) error {
	p, err := dk.Extract(g, 2)
	if err != nil {
		return err
	}
	o.current = p.Joint.Count
	o.pending = make(map[dk.DegPair]int)
	o.deg = g.DegreeSequence()
	return nil
}

func (o *JDDObjective) bump(u, v, s int) {
	p := dk.NewDegPair(o.deg[u], o.deg[v])
	c := float64(o.current[p] + o.pending[p])
	t := float64(o.target[p])
	o.delta += float64(s) * (2*(c-t) + float64(s))
	o.pending[p] += s
}

// Delta returns the D2 change of a double-edge swap: the degree-pair
// classes of (U,V) and (X,Y) lose an edge, those of (U,Y) and (X,V)
// gain one.
func (o *JDDObjective) Delta(_ *graph.CSR, m Move) float64 {
	clear(o.pending)
	o.delta = 0
	o.bump(m.U, m.V, -1)
	o.bump(m.X, m.Y, -1)
	o.bump(m.U, m.Y, +1)
	o.bump(m.X, m.V, +1)
	return o.delta
}

// Commit folds the pending changes into the tracked JDD.
func (o *JDDObjective) Commit(Move) { addCounts(o.current, o.pending) }

// Current recomputes D2 from tracked state (test hook).
func (o *JDDObjective) Current() float64 { return sqDist(o.current, o.target) }

// --- D3: wedge/triangle census distance (3K-targeting, 2K-preserving) ---

// swapCensus scores double-edge swaps by their exact census change
// through a subgraphs.Tracker: the read-only swap delta is drained into
// reusable record slices, and kept moves update the tracker's bitsets.
// Its moves must be 2K-preserving (depth-2 rewiring), the precondition of
// Tracker.SwapDeltaJDD.
type swapCensus struct {
	tracker *subgraphs.Tracker
	td      *subgraphs.TrackerDelta
	wedges  []subgraphs.WedgeCount    // pending wedge class changes
	tris    []subgraphs.TriangleCount // pending triangle class changes
}

func (c *swapCensus) init(g *graph.CSR) {
	c.tracker = subgraphs.NewTracker(g, g.DegreeSequence())
	c.td = c.tracker.NewDelta()
}

// delta records the census change of m in c.wedges and c.tris, valid
// until the next call.
func (c *swapCensus) delta(m Move) {
	c.tracker.SwapDeltaJDD(c.td, m.U, m.V, m.X, m.Y)
	c.wedges, c.tris = c.td.Drain(c.wedges[:0], c.tris[:0])
}

// commit syncs the tracker with the applied move.
func (c *swapCensus) commit(m Move) { c.tracker.ApplySwap(m.U, m.V, m.X, m.Y) }

// CensusObjective tracks the paper's D3 — squared count differences over
// wedge and triangle classes — under 2K-preserving moves, using the
// incremental census deltas of a subgraphs.Tracker. The current and
// target counts live in class-keyed maps built once in Init, because
// every move updates the current census in place.
type CensusObjective struct {
	target     *subgraphs.Census
	curW, tgtW map[subgraphs.WedgeKey]int64
	curT, tgtT map[subgraphs.TriangleKey]int64
	swaps      swapCensus
}

// NewCensusObjective targets the given wedge/triangle census.
func NewCensusObjective(target *subgraphs.Census) *CensusObjective {
	return &CensusObjective{target: target}
}

// Init counts g's census and builds the tracker over g.
func (o *CensusObjective) Init(g *graph.CSR) error {
	o.curW, o.curT = censusMaps(subgraphs.Count(g))
	o.tgtW, o.tgtT = censusMaps(o.target)
	o.swaps.init(g)
	return nil
}

// censusMaps copies a census into class-keyed count maps.
func censusMaps(c *subgraphs.Census) (map[subgraphs.WedgeKey]int64, map[subgraphs.TriangleKey]int64) {
	w := make(map[subgraphs.WedgeKey]int64, len(c.Wedges))
	for _, r := range c.Wedges {
		w[r.WedgeKey] = r.Count
	}
	t := make(map[subgraphs.TriangleKey]int64, len(c.Triangles))
	for _, r := range c.Triangles {
		t[r.TriangleKey] = r.Count
	}
	return w, t
}

// Delta returns the move's D3 change: for each class with pending
// change δ against current count c and target t, the squared-error change
// is δ·(2(c−t)+δ).
func (o *CensusObjective) Delta(_ *graph.CSR, m Move) float64 {
	o.swaps.delta(m)
	var sum float64
	for _, r := range o.swaps.wedges {
		c := float64(o.curW[r.WedgeKey])
		t := float64(o.tgtW[r.WedgeKey])
		sum += float64(r.Count) * (2*(c-t) + float64(r.Count))
	}
	for _, r := range o.swaps.tris {
		c := float64(o.curT[r.TriangleKey])
		t := float64(o.tgtT[r.TriangleKey])
		sum += float64(r.Count) * (2*(c-t) + float64(r.Count))
	}
	return sum
}

// Commit folds the pending census change into the tracked census.
func (o *CensusObjective) Commit(m Move) {
	for _, r := range o.swaps.wedges {
		addCount(o.curW, r.WedgeKey, r.Count)
	}
	for _, r := range o.swaps.tris {
		addCount(o.curT, r.TriangleKey, r.Count)
	}
	o.swaps.commit(m)
}

// Current recomputes D3 from tracked state (test hook).
func (o *CensusObjective) Current() float64 {
	return sqDist(o.curW, o.tgtW) + sqDist(o.curT, o.tgtT)
}

// --- Scalar exploration objectives ---

// LikelihoodObjective scores moves by the likelihood S = Σ_E d_u·d_v,
// the 1K-space exploration metric of Section 4.3. Degree-preserving moves
// only.
type LikelihoodObjective struct {
	deg []int
}

// Init caches the degree sequence.
func (o *LikelihoodObjective) Init(g *graph.CSR) error {
	o.deg = g.DegreeSequence()
	return nil
}

// Delta returns the swap's S change: the degree products of the two
// removed edges leave the sum, those of the two added edges enter it.
func (o *LikelihoodObjective) Delta(_ *graph.CSR, m Move) float64 {
	d := o.deg
	delta := -float64(d[m.U]) * float64(d[m.V])
	delta -= float64(d[m.X]) * float64(d[m.Y])
	delta += float64(d[m.U]) * float64(d[m.Y])
	delta += float64(d[m.X]) * float64(d[m.V])
	return delta
}

// Commit is a no-op: S is fully determined by the graph.
func (o *LikelihoodObjective) Commit(Move) {}

// S2Objective scores moves by the second-order likelihood
// S2 = Σ_{open wedges} d_end1·d_end2, via the census delta. 2K-preserving
// moves only.
type S2Objective struct {
	swaps swapCensus
}

// Init builds the tracker over g.
func (o *S2Objective) Init(g *graph.CSR) error {
	o.swaps.init(g)
	return nil
}

// Delta returns the move's S2 change: Σ over wedge classes of
// δ·K_lo·K_hi.
func (o *S2Objective) Delta(_ *graph.CSR, m Move) float64 {
	o.swaps.delta(m)
	var sum float64
	for _, r := range o.swaps.wedges {
		sum += float64(r.Count) * float64(r.KLo) * float64(r.KHi)
	}
	return sum
}

// Commit syncs the tracker with the applied move.
func (o *S2Objective) Commit(m Move) { o.swaps.commit(m) }

// ClusteringObjective scores moves by the mean clustering C̄ (average of
// c(v) = tri(v)/C(d_v,2) over nodes with degree ≥ 2). It maintains exact
// per-node triangle counts; degree-preserving moves only, so the set of
// degree-≥2 nodes — and hence the normalization — is constant.
type ClusteringObjective struct {
	tri     []int64
	pending map[int]int64
	deg     []int
	invPair []float64 // 2/(d·(d−1)) per node, 0 for degree < 2
	n2      float64   // number of nodes with degree >= 2
}

// Init counts triangles per node.
func (o *ClusteringObjective) Init(g *graph.CSR) error {
	o.deg = g.DegreeSequence()
	o.tri = make([]int64, g.N())
	o.invPair = make([]float64, g.N())
	o.pending = make(map[int]int64)
	o.n2 = 0
	for v, d := range o.deg {
		if d >= 2 {
			o.invPair[v] = 2 / (float64(d) * float64(d-1))
			o.n2++
		}
	}
	if o.n2 == 0 {
		return fmt.Errorf("generate: clustering objective needs a node of degree >= 2")
	}
	// One triangle pass.
	for u := 0; u < g.N(); u++ {
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			a, b := u, v
			if g.Degree(a) > g.Degree(b) {
				a, b = b, a
			}
			for _, w32 := range g.Neighbors(a) {
				w := int(w32)
				if w <= v {
					continue
				}
				if g.HasEdge(b, w) {
					o.tri[u]++
					o.tri[v]++
					o.tri[w]++
				}
			}
		}
	}
	return nil
}

// edgeChange accumulates the per-node triangle change of toggling edge
// (a,b) in a virtual state of g: the common neighbors of a and b other
// than ex1 and ex2, which the swap has already cut off from a or b.
func (o *ClusteringObjective) edgeChange(g *graph.CSR, a, b, ex1, ex2 int, sign int64) {
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	for _, w32 := range g.Neighbors(a) {
		w := int(w32)
		if w != b && w != ex1 && w != ex2 && g.HasEdge(w, b) {
			o.pending[a] += sign
			o.pending[b] += sign
			o.pending[w] += sign
		}
	}
}

// Delta returns the swap's C̄ change. Its four edge toggles are
// virtualized with the exclusion rule of subgraphs.Tracker.SwapDelta:
// (U,Y) is added with V already cut off from U and X from Y, and (X,V)
// with Y cut off from X and U from V. The pending contributions are summed in
// sorted node order: float addition is not associative, and map-order
// summation would make otherwise identical runs diverge at near-zero
// deltas, breaking seed determinism.
func (o *ClusteringObjective) Delta(g *graph.CSR, m Move) float64 {
	clear(o.pending)
	o.edgeChange(g, m.U, m.V, -1, -1, -1)
	o.edgeChange(g, m.X, m.Y, -1, -1, -1)
	o.edgeChange(g, m.U, m.Y, m.V, m.X, +1)
	o.edgeChange(g, m.X, m.V, m.Y, m.U, +1)
	keys := make([]int, 0, len(o.pending))
	for v := range o.pending {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	var sum float64
	for _, v := range keys {
		sum += float64(o.pending[v]) * o.invPair[v]
	}
	return sum / o.n2
}

// Commit folds the pending per-node triangle changes in.
func (o *ClusteringObjective) Commit(Move) {
	for v, d := range o.pending {
		o.tri[v] += d
	}
}

// Current returns the tracked C̄ value (test hook).
func (o *ClusteringObjective) Current() float64 {
	var sum float64
	for v, t := range o.tri {
		sum += float64(t) * o.invPair[v]
	}
	return sum / o.n2
}
