package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/pkg/dkapi"
)

// The benchmark builds every input itself from the workload seed, so a
// change to the program's own dataset synthesizers or RNG streams can
// never change what the benchmark measures. Each input is printed with
// its content hash (see inputDigest) so runs of two commits can be shown
// to have seen identical bytes.

// edgeText renders an edge list in the order given, one "u v" per line.
func edgeText(edges [][2]int32) string {
	var sb strings.Builder
	sb.Grow(len(edges) * 12)
	buf := make([]byte, 0, 24)
	for _, e := range edges {
		buf = strconv.AppendInt(buf[:0], int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
		sb.Write(buf)
	}
	return sb.String()
}

// inputDigest is the SHA-256 of an input's text, printed beside every
// input so that two runs provably saw the same bytes. It is the
// benchmark's own digest, independent of the program's content hash.
func inputDigest(text string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]
}

// holmeKim grows an AS-like topology: preferential attachment with
// triad formation (Holme & Kim 2002). Every new node brings edgesPerNode
// links on average (a mix of floor and ceil); after the first
// preferential link, each further link closes a triangle through a
// neighbor of the previous target with probability pTriad. The result
// is power-law, clustered and disassortative, like the paper's
// AS-level graphs.
func holmeKim(n int, edgesPerNode, pTriad float64, rng *rand.Rand) [][2]int32 {
	lo := int(edgesPerNode)
	fracHi := edgesPerNode - float64(lo)
	seedNodes := lo + 2
	adj := make([][]int32, n)
	// targets holds one entry per edge end, so a uniform draw from it is
	// a degree-proportional node draw.
	targets := make([]int32, 0, int(2*edgesPerNode*float64(n))+16)
	edges := make([][2]int32, 0, int(edgesPerNode*float64(n))+16)
	has := func(u, v int32) bool {
		a := adj[u]
		if len(adj[v]) < len(a) {
			a, v = adj[v], u
		}
		for _, w := range a {
			if w == v {
				return true
			}
		}
		return false
	}
	link := func(u, v int32) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		targets = append(targets, u, v)
		edges = append(edges, [2]int32{u, v})
	}
	for u := 0; u < seedNodes; u++ {
		for v := u + 1; v < seedNodes; v++ {
			link(int32(u), int32(v))
		}
	}
	for u := int32(seedNodes); int(u) < n; u++ {
		k := lo
		if rng.Float64() < fracHi {
			k++
		}
		var last int32 = -1
		for added := 0; added < k; {
			var v int32 = -1
			if last >= 0 && rng.Float64() < pTriad {
				nb := adj[last]
				v = nb[rng.Intn(len(nb))]
			}
			if v < 0 || v == u || has(u, v) {
				v = targets[rng.Intn(len(targets))]
			}
			if v == u || has(u, v) {
				continue
			}
			link(u, v)
			last = v
			added++
		}
	}
	return edges
}

// powerLawDegrees draws n degrees from P(k) ∝ k^-gamma on [1, kMax] by
// inverse-CDF lookup, bumping one degree if needed so the stub count is
// even. The draws are stratified — draw i falls in the i-th of n equal
// slices of the CDF — and then shuffled over the nodes: an independent
// γ = 2 sample puts a few hubs anywhere up to kMax, which makes the
// cost of one graph's 3K census swing by tens of percent from seed to
// seed, while a stratified sample keeps the hub tail of every seed
// close to the distribution's.
func powerLawDegrees(n int, gamma float64, kMax int, rng *rand.Rand) []int {
	cdf := make([]float64, kMax+1)
	for k := 1; k <= kMax; k++ {
		cdf[k] = cdf[k-1] + math.Pow(float64(k), -gamma)
	}
	total := cdf[kMax]
	deg := make([]int, n)
	sum := 0
	for i := range deg {
		x := (float64(i) + rng.Float64()) / float64(n) * total
		deg[i] = sort.SearchFloat64s(cdf[1:], x) + 1
		if deg[i] > kMax {
			deg[i] = kMax
		}
		sum += deg[i]
	}
	rng.Shuffle(n, func(i, j int) { deg[i], deg[j] = deg[j], deg[i] })
	if sum%2 == 1 {
		deg[rng.Intn(n)]++
	}
	return deg
}

// erasedConfiguration pairs the stubs of a degree sequence uniformly at
// random and erases self-loops and repeated pairs — the erased
// configuration model. Nodes left with degree 0 simply do not appear in
// the edge list.
func erasedConfiguration(deg []int, rng *rand.Rand) [][2]int32 {
	stubs := make([]int32, 0, 2*len(deg))
	for u, k := range deg {
		for i := 0; i < k; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := make(map[uint64]struct{}, len(stubs)/2)
	edges := make([][2]int32, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, [2]int32{u, v})
	}
	return edges
}

// cutoffPowerLaw is one member of the census pool: an erased
// configuration model over a γ = 2 power-law sequence whose maximum
// degree sits near the structural cutoff, k_max = 3√n.
func cutoffPowerLaw(n int, rng *rand.Rand) [][2]int32 {
	kMax := int(3 * math.Sqrt(float64(n)))
	return erasedConfiguration(powerLawDegrees(n, 2.0, kMax, rng), rng)
}

// degreePairs is Σ_v C(k_v, 2) over a generated edge list: the
// neighbor-pair count every 3K census of it must account for as
// wedges + 3·triangles. The generators emit no loops or repeated pairs.
func degreePairs(edges [][2]int32) int64 {
	deg := map[int32]int64{}
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	var pairs int64
	for _, k := range deg {
		pairs += k * (k - 1) / 2
	}
	return pairs
}

// checkCensus checks the 3K census identity against the input's own
// neighbor-pair count and returns the number of census classes.
func checkCensus(p *dkapi.Profile, pairs int64) (int, error) {
	if p == nil || p.Census == nil {
		return 0, fmt.Errorf("census missing from the profile")
	}
	got := p.Census.TotalWedges() + 3*p.Census.TotalTriangles()
	if got != pairs {
		return 0, fmt.Errorf("census: wedges + 3·triangles = %d, want Σ C(k,2) = %d", got, pairs)
	}
	return len(p.Census.Wedges) + len(p.Census.Triangles), nil
}
