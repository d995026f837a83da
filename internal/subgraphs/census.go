// Package subgraphs implements exact censuses of small connected subgraphs
// keyed by the degrees of their nodes — the raw material of the paper's
// 3K-distribution — together with the Tracker's incremental census deltas
// for double-edge swaps, which make 3K-preserving and 3K-targeting
// rewiring tractable (a full recount per rewiring step would be hopeless).
//
// Wedges are counted as induced open two-paths: a path a–c–b where a and b
// are not adjacent. Triangles are 3-cliques. With this convention the
// paper's inclusion identity holds exactly: summing wedge and triangle
// counts around an edge recovers the joint degree distribution (each
// (k1,k2)-edge is covered (k1−1) times from its k1 side).
package subgraphs

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// WedgeKey identifies a wedge class by node degrees: a path end–center–end
// with end degrees KLo <= KHi (swapping the two ends is an isomorphism, so
// the key is canonical).
type WedgeKey struct {
	KLo     int `json:"k_lo"`
	KCenter int `json:"k_center"`
	KHi     int `json:"k_hi"`
}

// NewWedgeKey canonicalizes (end1, center, end2) degree arguments.
func NewWedgeKey(kEnd1, kCenter, kEnd2 int) WedgeKey {
	if kEnd1 > kEnd2 {
		kEnd1, kEnd2 = kEnd2, kEnd1
	}
	return WedgeKey{kEnd1, kCenter, kEnd2}
}

// Compare orders wedge keys by (KCenter, KLo, KHi), the census order.
func (k WedgeKey) Compare(o WedgeKey) int {
	return cmp.Or(cmp.Compare(k.KCenter, o.KCenter), cmp.Compare(k.KLo, o.KLo), cmp.Compare(k.KHi, o.KHi))
}

// TriangleKey identifies a triangle class by sorted node degrees
// K1 <= K2 <= K3.
type TriangleKey struct {
	K1 int `json:"k1"`
	K2 int `json:"k2"`
	K3 int `json:"k3"`
}

// NewTriangleKey canonicalizes three degree arguments.
func NewTriangleKey(a, b, c int) TriangleKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return TriangleKey{a, b, c}
}

// Compare orders triangle keys by (K1, K2, K3), the census order.
func (k TriangleKey) Compare(o TriangleKey) int {
	return cmp.Or(cmp.Compare(k.K1, o.K1), cmp.Compare(k.K2, o.K2), cmp.Compare(k.K3, o.K3))
}

// WedgeCount is one wedge class of a census with its count.
type WedgeCount struct {
	WedgeKey
	Count int64 `json:"count"`
}

// TriangleCount is one triangle class of a census with its count.
type TriangleCount struct {
	TriangleKey
	Count int64 `json:"count"`
}

// Census holds degree-keyed counts of wedges and triangles — the paper's
// 3K-distribution in count form. Both slices are sorted in key order
// (WedgeKey.Compare, TriangleKey.Compare), hold each class at most once,
// and store no zero counts; Count and both decoders build them that way,
// so equality, lookup, distance and encoding are all linear scans or
// binary searches. The zero value is the empty census.
type Census struct {
	Wedges    []WedgeCount
	Triangles []TriangleCount
}

// TotalWedges returns the total number of wedges across all classes.
func (c *Census) TotalWedges() int64 {
	var t int64
	for _, w := range c.Wedges {
		t += w.Count
	}
	return t
}

// TotalTriangles returns the total number of triangles across all classes.
func (c *Census) TotalTriangles() int64 {
	var t int64
	for _, tr := range c.Triangles {
		t += tr.Count
	}
	return t
}

// Wedge returns the count of the canonical wedge class k (0 if absent).
func (c *Census) Wedge(k WedgeKey) int64 {
	i, ok := slices.BinarySearchFunc(c.Wedges, k, func(w WedgeCount, k WedgeKey) int { return w.Compare(k) })
	if !ok {
		return 0
	}
	return c.Wedges[i].Count
}

// Triangle returns the count of the canonical triangle class k (0 if
// absent).
func (c *Census) Triangle(k TriangleKey) int64 {
	i, ok := slices.BinarySearchFunc(c.Triangles, k, func(t TriangleCount, k TriangleKey) int { return t.Compare(k) })
	if !ok {
		return 0
	}
	return c.Triangles[i].Count
}

// Clone returns a deep copy.
func (c *Census) Clone() *Census {
	return &Census{Wedges: slices.Clone(c.Wedges), Triangles: slices.Clone(c.Triangles)}
}

// Equal reports whether two censuses have identical counts.
func (c *Census) Equal(o *Census) bool {
	return slices.Equal(c.Wedges, o.Wedges) && slices.Equal(c.Triangles, o.Triangles)
}

// Count computes the exact wedge/triangle census of s.
//
// Node degrees are interned into a compact class table ascending in
// degree, so class order is degree order and sorted class keys are
// sorted census keys. Triangles come from a linear merge of sorted CSR
// neighbor windows per canonical edge — with O(1) bitset probes once an
// endpoint reaches DefaultBitsetThreshold — collected as packed class
// keys, sorted and run-length encoded. Wedges are accumulated one center
// class at a time (centers grouped by a counting sort) into a single
// dense nc×nc row block: per center, a neighbor-class histogram turns
// every unordered neighbor pair into a class-pair count in
// O(deg + touched²), the class's triangle debits are subtracted to keep
// the induced (open two-path) convention, and the touched entries are
// emitted in sorted order. The distinct degrees of a graph with m edges
// satisfy nc(nc−1)/2 <= 2m, so the row block is O(m) whatever the
// degree diversity, and the census comes out already in its canonical
// sorted layout.
func Count(s *graph.CSR) *Census {
	n := s.N()
	deg := s.DegreeSequence()
	cls, classDeg := degreeClasses(deg)
	nc := len(classDeg)
	hub := hubBitsets(s, deg, DefaultBitsetThreshold)

	// Triangles: every canonical edge (u,v), u < v, contributes its common
	// neighbors w > v, so each triangle {u<v<w} is found exactly once (from
	// the edge between its two smallest nodes).
	var tris []uint64
	triangle := func(u, v int, w int32) {
		a, b, c := cls[u], cls[v], cls[w]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		tris = append(tris, packKey(a, b, c))
	}
	for u := 0; u < n; u++ {
		adjU := s.Neighbors(u)
		for i, v32 := range adjU {
			v := int(v32)
			if v <= u {
				continue
			}
			// Common neighbors w > v of u and v. adjU[i+1:] is already the
			// window > v on u's side (sorted, and v sits at index i).
			wu := adjU[i+1:]
			adjV := s.Neighbors(v)
			wv := adjV[searchPast(adjV, v32):]
			switch {
			case hub[u] != nil && (hub[v] == nil || len(wv) <= len(wu)):
				for _, w := range wv {
					if bsHas(hub[u], w) {
						triangle(u, v, w)
					}
				}
			case hub[v] != nil:
				for _, w := range wu {
					if bsHas(hub[v], w) {
						triangle(u, v, w)
					}
				}
			default:
				for len(wu) > 0 && len(wv) > 0 {
					switch {
					case wu[0] < wv[0]:
						wu = wu[1:]
					case wv[0] < wu[0]:
						wv = wv[1:]
					default:
						triangle(u, v, wu[0])
						wu, wv = wu[1:], wv[1:]
					}
				}
			}
		}
	}

	// Run-length encode the sorted triangle keys into the triangle census.
	// Each triangle class (a <= b <= c) with count t debits t from the
	// three wedge classes its adjacent end-pairs would otherwise inflate
	// in the histogram pass: (a; b,c), (b; a,c) and (c; a,b). A counting
	// sort files the debits by center class, so each center class finds
	// its debits as one contiguous run.
	slices.Sort(tris)
	dStart := make([]int, nc+1)
	runs := 0
	for i, key := range tris {
		if i == 0 || key != tris[i-1] {
			runs++
			dStart[key>>42+1]++
			dStart[key>>21&packMask+1]++
			dStart[key&packMask+1]++
		}
	}
	for k := range nc {
		dStart[k+1] += dStart[k]
	}
	c := &Census{Triangles: make([]TriangleCount, 0, runs)}
	debits := make([]debit, 3*runs)
	dNext := slices.Clone(dStart[:nc])
	for i := 0; i < len(tris); {
		j := i + 1
		for j < len(tris) && tris[j] == tris[i] {
			j++
		}
		key, t := tris[i], int64(j-i)
		a, b, cc := int(key>>42), int(key>>21&packMask), int(key&packMask)
		c.Triangles = append(c.Triangles, TriangleCount{TriangleKey{classDeg[a], classDeg[b], classDeg[cc]}, t})
		for _, d := range [3][3]int{{a, b, cc}, {b, a, cc}, {cc, a, b}} {
			debits[dNext[d[0]]] = debit{d[1]*nc + d[2], t}
			dNext[d[0]]++
		}
		i = j
	}
	tris = nil // not needed by the wedge pass

	// Wedges, one center class at a time, in class (= degree) order.
	start := make([]int32, nc+1)
	for _, k := range cls {
		start[k+1]++
	}
	for k := range nc {
		start[k+1] += start[k]
	}
	order := make([]int32, n)
	next := slices.Clone(start[:nc])
	for u, k := range cls {
		order[next[k]] = int32(u)
		next[k]++
	}
	// The row block holds the current center class's counts at index
	// lo·nc+hi, so index order is (lo, hi) order; mark flags the entries
	// written, and one scan of its words emits them sorted.
	row := make([]int64, nc*nc)
	mark := make([]uint64, (nc*nc+63)/64)
	add := func(lo, hi int32, v int64) {
		idx := int(lo)*nc + int(hi)
		row[idx] += v
		mark[idx>>6] |= 1 << (idx & 63)
	}
	// Wedge classes are emitted as packed (cc, lo, hi) keys into
	// fixed-size chunks and decoded into an exactly sized output at the
	// end: no growth copies of one huge slice, and a transient overhead
	// of half the output instead of a second copy of it.
	const chunkLen = 1 << 16
	var chunks [][]classCount
	cnt := make([]int64, nc)
	touched := make([]int32, 0, 64)
	for cc := range int32(nc) {
		if classDeg[cc] < 2 {
			continue // no wedge or debit is centered here
		}
		for _, center := range order[start[cc]:start[cc+1]] {
			for _, v := range s.Neighbors(int(center)) {
				k := cls[v]
				if cnt[k] == 0 {
					touched = append(touched, k)
				}
				cnt[k]++
			}
			for i, a := range touched {
				ha := cnt[a]
				if ha > 1 {
					add(a, a, ha*(ha-1)/2)
				}
				for _, b := range touched[i+1:] {
					add(min(a, b), max(a, b), ha*cnt[b])
				}
			}
			for _, a := range touched {
				cnt[a] = 0
			}
			touched = touched[:0]
		}
		// Every debit names a closed neighbor pair the histogram counted.
		for _, d := range debits[dStart[cc]:dStart[cc+1]] {
			row[d.idx] -= d.n
		}
		for wi, word := range mark {
			if word == 0 {
				continue
			}
			mark[wi] = 0
			for ; word != 0; word &= word - 1 {
				idx := wi<<6 | bits.TrailingZeros64(word)
				v := row[idx]
				if v == 0 {
					continue
				}
				row[idx] = 0
				if len(chunks) == 0 || len(chunks[len(chunks)-1]) == chunkLen {
					chunks = append(chunks, make([]classCount, 0, chunkLen))
				}
				last := &chunks[len(chunks)-1]
				*last = append(*last, classCount{packKey(cc, int32(idx/nc), int32(idx%nc)), v})
			}
		}
	}
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	c.Wedges = make([]WedgeCount, 0, total)
	for i, ch := range chunks {
		for _, r := range ch {
			cc, lo, hi := unpackKey(classDeg, r.key)
			c.Wedges = append(c.Wedges, WedgeCount{WedgeKey{lo, cc, hi}, r.n})
		}
		chunks[i] = nil // collectable once decoded
	}
	return c
}

// classCount is a packed class-triple key with a count.
type classCount struct {
	key uint64
	n   int64
}

// debit is a triangle's subtraction from a center class's row block
// entry idx = lo·nc+hi.
type debit struct {
	idx int
	n   int64
}

// degreeClasses interns the distinct values of deg into a class table
// ascending in degree, so class order is degree order (the wedge-end
// canonicalization relies on it), and returns each node's class.
func degreeClasses(deg []int) (cls []int32, classDeg []int) {
	maxDeg := 0
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	classOf := make([]int32, maxDeg+1)
	for i := range classOf {
		classOf[i] = -1
	}
	for _, d := range deg {
		classOf[d] = 0
	}
	classDeg = make([]int, 0, 16)
	for d, seen := range classOf {
		if seen == 0 {
			classOf[d] = int32(len(classDeg))
			classDeg = append(classDeg, d)
		}
	}
	cls = make([]int32, len(deg))
	for u, d := range deg {
		cls[u] = classOf[d]
	}
	return cls, classDeg
}

// hubBitsets returns an adjacency bitset for every node of g whose degree
// is at least threshold, and nil for the others.
func hubBitsets(g *graph.CSR, deg []int, threshold int) [][]uint64 {
	words := (g.N() + 63) / 64
	bits := make([][]uint64, g.N())
	for u, d := range deg {
		if d >= threshold {
			bs := make([]uint64, words)
			for _, v := range g.Neighbors(u) {
				bs[uint(v)>>6] |= 1 << (uint(v) & 63)
			}
			bits[u] = bs
		}
	}
	return bits
}

// bsHas probes membership of w in a node bitset.
func bsHas(bs []uint64, w int32) bool {
	return bs[uint(w)>>6]&(1<<(uint(w)&63)) != 0
}

// searchPast returns the index of the first element of the sorted slice a
// strictly greater than v.
func searchPast(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
