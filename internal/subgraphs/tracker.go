// Census tracking for rewiring: the one census-delta engine.
//
// Tracker scores double-edge swaps by their exact wedge/triangle census
// change. Degrees are interned into a compact class table once, count
// changes accumulate in degree-class-indexed arrays sized by the
// observed adjacent class pairs (Drain converts them to degree-keyed
// records), and common-neighbor classification runs directly
// on the CSR's sorted neighbor windows — a linear merge for ordinary
// nodes, O(1) bitset probes for nodes above a degree threshold. The CSR
// working representation IS the tracker's sorted adjacency; no second
// mirror copy is maintained.
//
// Because SwapDelta is read-only (edge toggles are virtualized instead of
// applied), many candidate swaps can be evaluated concurrently against one
// Tracker, each into its own TrackerDelta — the foundation of the batched
// parallel proposal loop in internal/generate, whose depth-3 census check
// and census-scored rewiring objectives both run on it.
package subgraphs

import (
	"repro/internal/graph"
)

// DefaultBitsetThreshold is the fixed degree at or above which a node
// additionally keeps a bitset for O(1) membership probes. Below it,
// sorted-merge and binary search win on cache locality.
const DefaultBitsetThreshold = 64

// denseLimit bounds the class-indexed accumulator size (entries per
// shape) and the ordered class-pair lookup table (nc² entries). Dense
// accumulators are sized by *observed* adjacent class pairs — npairs·nc
// entries, not nc³ — so even graphs with hundreds of degree classes
// stay on the dense path; genuinely extreme degree diversity falls back
// to packed-key maps, trading speed for bounded memory. Variable so
// tests can force the fallback path.
var denseLimit = 1 << 20

// Tracker holds the shared, read-only-during-evaluation state for dense
// census deltas over a graph with a fixed degree sequence: the degree
// class table, the observed class-pair index, per-hub bitsets, and
// per-node neighbor-class fingerprints. The
// degree sequence must be constant across all tracked mutations (true
// for double-edge swaps, the only moves a tracker evaluates), because
// census keys of intermediate states use the fixed degrees.
//
// Adjacency reads go straight to the CSR's sorted windows, so the graph
// itself is the mirror. The bitsets and fingerprints are the only
// derived adjacency state: every mutation of the underlying CSR must be
// paired with the matching Add/Remove/ApplySwap call to keep them
// coherent.
type Tracker struct {
	g        *graph.CSR
	nc       int        // degree class count
	dense    bool       // pair-sized arrays fit denseLimit, else map fallback
	cls      []int32    // node -> degree class (ascending in degree)
	classDeg []int      // degree class -> degree
	pid      []int32    // ordered class pair (a*nc+b) -> dense pair id, -1 unobserved
	pairA    []int32    // pair id -> first class of the ordered pair
	pairB    []int32    // pair id -> second class of the ordered pair
	npairs   int        // ordered observed pair count
	bits     [][]uint64 // per-node bitset for threshold-degree nodes, else nil
	// fp is each node's neighbor-class fingerprint: the sum, mod 2⁶⁴,
	// of classMix over its neighbors' classes — equal for two nodes
	// whose neighborhoods hold the same multiset of degree classes.
	fp []uint64
}

// NewTracker builds a Tracker over g with the fixed degree sequence deg
// (which must equal g.DegreeSequence()) and the default bitset threshold.
func NewTracker(g *graph.CSR, deg []int) *Tracker {
	return NewTrackerThreshold(g, deg, DefaultBitsetThreshold)
}

// NewTrackerThreshold is NewTracker with an explicit bitset degree
// threshold (0 or negative gives every non-isolated node a bitset).
func NewTrackerThreshold(g *graph.CSR, deg []int, threshold int) *Tracker {
	cls, classDeg := degreeClasses(deg)
	nc := len(classDeg)
	t := &Tracker{
		g:        g,
		nc:       nc,
		cls:      cls,
		classDeg: classDeg,
		bits:     hubBitsets(g, deg, threshold),
		fp:       make([]uint64, g.N()),
	}
	for u := range t.fp {
		for _, v := range g.Neighbors(u) {
			t.fp[u] += classMix(t.cls[v])
		}
	}
	// Index the observed adjacent class pairs, both orders. JDD-preserving
	// swaps can only ever create edges whose class pair is already
	// observed, so the dense accumulators need npairs·nc entries instead
	// of nc³; anything that does introduce a fresh pair (general swaps,
	// Add) routes through the per-delta overflow map.
	if nc*nc <= denseLimit {
		t.pid = make([]int32, nc*nc)
		for i := range t.pid {
			t.pid[i] = -1
		}
		for u := 0; u < g.N(); u++ {
			cu := t.cls[u]
			for _, v := range g.Neighbors(u) {
				if int(v) < u {
					continue
				}
				cv := t.cls[v]
				t.observePair(cu, cv)
				if cu != cv {
					t.observePair(cv, cu)
				}
			}
		}
		t.dense = t.npairs*nc <= denseLimit
	}
	return t
}

// observePair registers the ordered class pair (a,b) if unseen.
func (t *Tracker) observePair(a, b int32) {
	k := int(a)*t.nc + int(b)
	if t.pid[k] < 0 {
		t.pid[k] = int32(t.npairs)
		t.pairA = append(t.pairA, a)
		t.pairB = append(t.pairB, b)
		t.npairs++
	}
}

// adj returns u's sorted neighbor window — the CSR arena itself.
func (t *Tracker) adj(u int) []int32 { return t.g.Neighbors(u) }

// has reports adjacency, preferring a bitset probe from either side and
// falling back to binary search in the shorter sorted window.
func (t *Tracker) has(a, b int) bool {
	if bs := t.bits[b]; bs != nil {
		return bs[uint(a)>>6]&(1<<(uint(a)&63)) != 0
	}
	if bs := t.bits[a]; bs != nil {
		return bs[uint(b)>>6]&(1<<(uint(b)&63)) != 0
	}
	s, x := t.adj(a), int32(b)
	if sb := t.adj(b); len(sb) < len(s) {
		s, x = sb, int32(a)
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// classMix is the SplitMix64 finalizer of a degree class id — the
// per-neighbor term of the fingerprint.
func classMix(c int32) uint64 {
	z := uint64(c) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Add syncs the bitsets and fingerprints with an insertion of edge (u,v)
// into the CSR. The caller performs (or has performed) the matching
// graph mutation — the windows themselves are the graph's.
func (t *Tracker) Add(u, v int) {
	if bs := t.bits[u]; bs != nil {
		bs[uint(v)>>6] |= 1 << (uint(v) & 63)
	}
	if bs := t.bits[v]; bs != nil {
		bs[uint(u)>>6] |= 1 << (uint(u) & 63)
	}
	t.fp[u] += classMix(t.cls[v])
	t.fp[v] += classMix(t.cls[u])
}

// Remove syncs the bitsets and fingerprints with a deletion of edge
// (u,v) from the CSR.
func (t *Tracker) Remove(u, v int) {
	if bs := t.bits[u]; bs != nil {
		bs[uint(v)>>6] &^= 1 << (uint(v) & 63)
	}
	if bs := t.bits[v]; bs != nil {
		bs[uint(u)>>6] &^= 1 << (uint(u) & 63)
	}
	t.fp[u] -= classMix(t.cls[v])
	t.fp[v] -= classMix(t.cls[u])
}

// ApplySwap commits the double-edge swap (u,v),(x,y) → (u,y),(x,v) to
// the bitsets and fingerprints after the caller accepted it (and applied
// it to the CSR).
func (t *Tracker) ApplySwap(u, v, x, y int) {
	t.Remove(u, v)
	t.Remove(x, y)
	t.Add(u, y)
	t.Add(x, v)
}

// TrackerDelta accumulates signed census count changes in degree-class
// space. One TrackerDelta may be reused across many evaluations (Reset,
// or SwapDelta which resets implicitly); concurrent evaluations need one
// TrackerDelta per goroutine, all sharing the same Tracker.
type TrackerDelta struct {
	t *Tracker
	// Dense path: accumulators indexed by (observed ordered class pair,
	// third class) — npairs·nc entries — plus touched-index lists so
	// Reset and IsZero cost O(touched), not O(size). An index may appear
	// in the list more than once (a count that cancels to zero and is
	// touched again re-registers); IsZero and Reset tolerate that, and
	// Drain consumes entries destructively so duplicates cannot
	// double-count. Classes whose pair is not in the observed-pair index
	// overflow into lazily allocated packed-key maps, so generality is
	// kept without paying nc³ memory.
	wedges, tris   []int64
	wTouch, tTouch []int32
	mWedges, mTris map[uint64]int64 // fallback when !t.dense, overflow when dense
}

// NewDelta returns an empty accumulator bound to t.
func (t *Tracker) NewDelta() *TrackerDelta {
	d := &TrackerDelta{t: t}
	if t.dense {
		size := t.npairs * t.nc
		d.wedges = make([]int64, size)
		d.tris = make([]int64, size)
	} else {
		d.mWedges = make(map[uint64]int64)
		d.mTris = make(map[uint64]int64)
	}
	return d
}

// Reset clears the accumulator for reuse.
func (d *TrackerDelta) Reset() {
	if d.t.dense {
		for _, i := range d.wTouch {
			d.wedges[i] = 0
		}
		for _, i := range d.tTouch {
			d.tris[i] = 0
		}
		d.wTouch = d.wTouch[:0]
		d.tTouch = d.tTouch[:0]
	}
	if d.mWedges != nil {
		clear(d.mWedges)
	}
	if d.mTris != nil {
		clear(d.mTris)
	}
}

// IsZero reports whether every accumulated count change is zero — i.e.
// whether the recorded edge changes preserve the 3K-distribution.
func (d *TrackerDelta) IsZero() bool {
	if d.t.dense {
		for _, i := range d.wTouch {
			if d.wedges[i] != 0 {
				return false
			}
		}
		for _, i := range d.tTouch {
			if d.tris[i] != 0 {
				return false
			}
		}
	}
	return len(d.mWedges) == 0 && len(d.mTris) == 0
}

// Drain appends the accumulated changes to w and tr as degree-keyed
// records — one per class with a nonzero change, in no particular order —
// and returns the extended slices. It is the one place class indices
// convert back to degrees, and it leaves the accumulator empty (it
// consumes entries so that duplicate touched indices cannot
// double-apply).
func (d *TrackerDelta) Drain(w []WedgeCount, tr []TriangleCount) ([]WedgeCount, []TriangleCount) {
	t := d.t
	if t.dense {
		nc := t.nc
		for _, i := range d.wTouch {
			v := d.wedges[i]
			if v == 0 {
				continue
			}
			d.wedges[i] = 0
			hi := int(i) % nc
			p := int(i) / nc
			cc, lo := t.pairA[p], t.pairB[p]
			w = append(w, WedgeCount{WedgeKey{t.classDeg[lo], t.classDeg[cc], t.classDeg[hi]}, v})
		}
		for _, i := range d.tTouch {
			v := d.tris[i]
			if v == 0 {
				continue
			}
			d.tris[i] = 0
			c3 := int(i) % nc
			p := int(i) / nc
			c1, c2 := t.pairA[p], t.pairB[p]
			tr = append(tr, TriangleCount{TriangleKey{t.classDeg[c1], t.classDeg[c2], t.classDeg[c3]}, v})
		}
		d.wTouch = d.wTouch[:0]
		d.tTouch = d.tTouch[:0]
	}
	for key, v := range d.mWedges {
		lo, cc, hi := unpackKey(t.classDeg, key)
		w = append(w, WedgeCount{WedgeKey{lo, cc, hi}, v})
	}
	for key, v := range d.mTris {
		a, b, cc := unpackKey(t.classDeg, key)
		tr = append(tr, TriangleCount{TriangleKey{a, b, cc}, v})
	}
	if d.mWedges != nil {
		clear(d.mWedges)
	}
	if d.mTris != nil {
		clear(d.mTris)
	}
	return w, tr
}

// addCount adds v to m[k], deleting the entry when it reaches zero.
func addCount[K comparable](m map[K]int64, k K, v int64) {
	if nv := m[k] + v; nv == 0 {
		delete(m, k)
	} else {
		m[k] = nv
	}
}

const packMask = 1<<21 - 1

// packKey packs a class triple into the key a<<42|b<<21|c, whose integer
// order is the triple's lexicographic order.
func packKey(a, b, c int32) uint64 {
	return uint64(a)<<42 | uint64(b)<<21 | uint64(c)
}

// unpackKey decodes a packKey key back into the triple's degrees.
func unpackKey(classDeg []int, key uint64) (a, b, c int) {
	return classDeg[key>>42], classDeg[key>>21&packMask], classDeg[key&packMask]
}

// addWedge accumulates a wedge class change: ends e1, e2 (canonicalized;
// classDeg is ascending so class order is degree order), center cc. On
// the dense path the slot is indexed by the observed ordered pair
// (center, low end) — both of the wedge's edges have observed class
// pairs, so the lookup only misses when an edge change introduced a
// class pair absent from the initial graph; those overflow to the map.
func (d *TrackerDelta) addWedge(e1, cc, e2 int32, sign int64) {
	lo, hi := e1, e2
	if lo > hi {
		lo, hi = hi, lo
	}
	if d.t.dense {
		if p := d.t.pid[int(cc)*d.t.nc+int(lo)]; p >= 0 {
			idx := p*int32(d.t.nc) + hi
			if d.wedges[idx] == 0 {
				d.wTouch = append(d.wTouch, idx)
			}
			d.wedges[idx] += sign
			return
		}
		if d.mWedges == nil {
			d.mWedges = make(map[uint64]int64)
		}
	}
	addCount(d.mWedges, packKey(lo, cc, hi), sign)
}

// addTriangle accumulates a triangle class change for corners a, b, c.
// Dense slots are indexed by the observed ordered pair (a,b) of the
// sorted corner classes; a triangle's corners are pairwise adjacent, so
// the pair is observed unless an edge change introduced a new pair.
func (d *TrackerDelta) addTriangle(a, b, c int32, sign int64) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if d.t.dense {
		if p := d.t.pid[int(a)*d.t.nc+int(b)]; p >= 0 {
			idx := p*int32(d.t.nc) + c
			if d.tris[idx] == 0 {
				d.tTouch = append(d.tTouch, idx)
			}
			d.tris[idx] += sign
			return
		}
		if d.mTris == nil {
			d.mTris = make(map[uint64]int64)
		}
	}
	addCount(d.mTris, packKey(a, b, c), sign)
}

// AddEdgeDelta accumulates the census change of inserting edge (u,v)
// into the graph's current state ((u,v) must be absent). It does not
// reset d first, so single-edge deltas compose by telescoping.
func (t *Tracker) AddEdgeDelta(d *TrackerDelta, u, v int) {
	t.edgeChange(d, u, v, +1, -1, -1)
}

// RemoveEdgeDelta accumulates the census change of deleting edge (u,v)
// ((u,v) must be present in the graph).
func (t *Tracker) RemoveEdgeDelta(d *TrackerDelta, u, v int) {
	t.edgeChange(d, u, v, -1, -1, -1)
}

// SwapDelta resets d and accumulates the exact census change of the
// double-edge swap (u,v),(x,y) → (u,y),(x,v), read-only: the four edge
// toggles are virtualized against the graph instead of applied, so
// concurrent SwapDelta calls on one Tracker are safe (one TrackerDelta
// per goroutine). Preconditions (the structural validity the rewiring
// proposal already checks): u,v,x,y distinct, (u,v) and (x,y) present,
// (u,y) and (x,v) absent.
func (t *Tracker) SwapDelta(d *TrackerDelta, u, v, x, y int) {
	d.Reset()
	// Telescoped single-edge changes; each op's virtual state differs
	// from the graph only on swap pairs, and only pairs touching the
	// op's own endpoints matter, giving one excluded neighbor per side:
	//   remove (u,v): graph state exactly.
	//   remove (x,y): (u,v) gone, but it touches neither x nor y.
	//   add (u,y):    (u,v),(x,y) gone → v not a neighbor of u, x not of y.
	//   add (x,v):    likewise y not a neighbor of x, u not of v;
	//                 (u,y) now present but touches neither x nor v.
	t.edgeChange(d, u, v, -1, -1, -1)
	t.edgeChange(d, x, y, -1, -1, -1)
	t.edgeChange(d, u, y, +1, v, x)
	t.edgeChange(d, x, v, +1, y, u)
}

// SwapDeltaJDD is SwapDelta specialized to 2K-preserving swaps: those
// with deg v = deg y or deg u = deg x, which the depth-2 proposal filter
// guarantees. It picks the orientation itself: when deg v ≠ deg y it
// reads the swap from the other ends, (v,u),(y,x) → (v,x),(y,u), the
// same swap by symmetry. With the degrees of the replaced endpoints
// equal, the four telescoped edge ops of SwapDelta cancel class-wise
// everywhere except on the symmetric difference of N(v) and N(y): a
// common neighbor w sees edge w–v's and w–y's contexts trade places at
// identical class keys, so the whole merge over N(u) and N(x) — the
// expensive side when u or x is a hub — disappears, leaving one merged
// walk over adj(v) and adj(y) with membership probes only on the
// symmetric difference. Same preconditions as SwapDelta.
func (t *Tracker) SwapDeltaJDD(d *TrackerDelta, u, v, x, y int) {
	if t.cls[v] != t.cls[y] {
		u, v, x, y = v, u, y, x
	}
	d.Reset()
	a, b, c := t.cls[u], t.cls[v], t.cls[x]
	V, Y := t.adj(v), t.adj(y)
	i, j := 0, 0
	for i < len(V) || j < len(Y) {
		var w int32
		var ds int64 // +1: w ∈ N(y) only; -1: w ∈ N(v) only
		switch {
		case j >= len(Y) || (i < len(V) && V[i] < Y[j]):
			w, ds = V[i], -1
			i++
		case i >= len(V) || Y[j] < V[i]:
			w, ds = Y[j], +1
			j++
		default: // common neighbor of v and y: exact cancellation
			i++
			j++
			continue
		}
		switch int(w) {
		case u, x:
			// u appears only on the V side (the removed edge u–v; (u,y) is
			// absent) and x only on the Y side — both fully excluded by the
			// ops' exclusion parameters.
			continue
		case v, y:
			// Edge v–y exists: only the b-centered wedge ends survive.
			d.addWedge(a, b, b, ds)
			d.addWedge(c, b, b, -ds)
			continue
		}
		cw := t.cls[w]
		if t.has(int(w), u) {
			d.addTriangle(a, b, cw, ds)
			d.addWedge(a, cw, b, -ds)
			d.addWedge(b, a, cw, -ds)
		} else {
			d.addWedge(a, b, cw, ds)
		}
		if t.has(int(w), x) {
			d.addTriangle(c, b, cw, -ds)
			d.addWedge(c, cw, b, ds)
			d.addWedge(b, c, cw, ds)
		} else {
			d.addWedge(c, b, cw, -ds)
		}
	}
}

// SwapKeepsCensus reports whether the 2K-preserving swap
// (u,v),(x,y) → (u,y),(x,v) leaves the wedge/triangle census unchanged,
// using d as scratch: the O(1) fingerprintRejects test first, then the
// exact SwapDeltaJDD walk for the swaps it cannot decide. Same
// preconditions as SwapDeltaJDD.
func (t *Tracker) SwapKeepsCensus(d *TrackerDelta, u, v, x, y int) bool {
	if t.fingerprintRejects(u, v, x, y) {
		return false
	}
	t.SwapDeltaJDD(d, u, v, x, y)
	return d.IsZero()
}

// fingerprintRejects reports whether the neighbor-class fingerprints
// prove, in O(1), that the 2K-preserving swap (u,v),(x,y) → (u,y),(x,v)
// changes the census. False decides nothing. Same preconditions as
// SwapDeltaJDD.
//
// Oriented so that class v = class y, the swap trades v's neighbor u for
// x and y's neighbor x for u. The class-level count of 2-paths (open
// wedges plus each triangle once per corner) is a linear function of the
// census, and the swap changes its part centered at class(v) by
// Σ_c f(c)·({cx,c} − {cu,c}), where f(c) is the count of class c in
// N(v)\{u} minus that in N(y)\{x}. When cu ≠ cx that sum vanishes only
// if every f(c) does — the two residual neighborhoods hold the same
// class multiset, so their fingerprints agree. Differing fingerprints
// therefore prove the census changed. When cu = cx the swap exchanges
// same-class neighbors and the 2-path count says nothing.
func (t *Tracker) fingerprintRejects(u, v, x, y int) bool {
	if t.cls[v] != t.cls[y] {
		u, v, x, y = v, u, y, x
	}
	cu, cx := t.cls[u], t.cls[x]
	return cu != cx && t.fp[v]-classMix(cu) != t.fp[y]-classMix(cx)
}

// Has reports whether edge (a,b) is present — an O(1) bitset probe when
// either endpoint is above the degree threshold, a binary search in the
// shorter sorted window otherwise. It mirrors graph.HasEdge exactly as
// long as every graph mutation was paired with the matching bitset
// update.
func (t *Tracker) Has(a, b int) bool {
	return t.has(a, b)
}

// edgeChange enumerates the wedges and triangles whose existence toggles
// with edge (a,b), in class space: triangles through common neighbors (trading places with
// the wedge centered at the common neighbor), and wedges centered at a
// and at b through exclusive neighbors. exA/exB (-1 = none) name one
// node virtually not adjacent to a (resp. b), which is how SwapDelta
// expresses intermediate states without mutating the graph.
func (t *Tracker) edgeChange(d *TrackerDelta, a, b int, sign int64, exA, exB int) {
	if t.bits[a] == nil && t.bits[b] == nil {
		t.mergeChange(d, a, b, sign, exA, exB)
		return
	}
	ca, cb := t.cls[a], t.cls[b]
	for _, w32 := range t.adj(a) {
		w := int(w32)
		if w == b || w == exA {
			continue
		}
		if w != exB && t.has(w, b) {
			d.addTriangle(ca, cb, t.cls[w], sign)
			d.addWedge(ca, t.cls[w], cb, -sign)
		} else {
			d.addWedge(cb, ca, t.cls[w], sign)
		}
	}
	for _, w32 := range t.adj(b) {
		w := int(w32)
		if w == a || w == exB {
			continue
		}
		if w != exA && t.has(w, a) {
			continue // common neighbor, handled from a's side
		}
		d.addWedge(ca, cb, t.cls[w], sign)
	}
}

// mergeChange is edgeChange as a single linear merge of the two sorted
// neighbor windows — the ordinary-degree path, with no membership probes
// at all.
func (t *Tracker) mergeChange(d *TrackerDelta, a, b int, sign int64, exA, exB int) {
	ca, cb := t.cls[a], t.cls[b]
	A, B := t.adj(a), t.adj(b)
	i, j := 0, 0
	for i < len(A) && j < len(B) {
		wa, wb := int(A[i]), int(B[j])
		switch {
		case wa < wb:
			i++
			if wa != b && wa != exA {
				d.addWedge(cb, ca, t.cls[wa], sign)
			}
		case wb < wa:
			j++
			if wb != a && wb != exB {
				d.addWedge(ca, cb, t.cls[wb], sign)
			}
		default: // common neighbor
			i++
			j++
			w := wa
			aHas, bHas := w != exA, w != exB
			switch {
			case aHas && bHas:
				d.addTriangle(ca, cb, t.cls[w], sign)
				d.addWedge(ca, t.cls[w], cb, -sign)
			case aHas:
				d.addWedge(cb, ca, t.cls[w], sign)
			case bHas:
				d.addWedge(ca, cb, t.cls[w], sign)
			}
		}
	}
	for ; i < len(A); i++ {
		if w := int(A[i]); w != b && w != exA {
			d.addWedge(cb, ca, t.cls[w], sign)
		}
	}
	for ; j < len(B); j++ {
		if w := int(B[j]); w != a && w != exB {
			d.addWedge(ca, cb, t.cls[w], sign)
		}
	}
}
