package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func build(t testing.TB, n int, edges [][2]int) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func complete(t testing.TB, n int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func cycle(t testing.TB, n int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func connectedRandom(rng *rand.Rand, n, extra int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	// Cap extra edges by the remaining simple-graph capacity so the
	// rejection loop below always terminates.
	if cap := n*(n-1)/2 - g.M(); extra > cap {
		extra = cap
	}
	for added := 0; added < extra; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
		added++
	}
	return g
}

func TestTridiagKnownEigenvalues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	ev := TridiagEigenvalues([]float64{2, 2}, []float64{1})
	if math.Abs(ev[0]-1) > 1e-12 || math.Abs(ev[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [1 3]", ev)
	}
	// Diagonal matrix.
	ev = TridiagEigenvalues([]float64{3, 1, 2}, []float64{0, 0})
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(ev[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalues = %v, want %v", ev, want)
		}
	}
}

func TestTridiagMatchesJacobiProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			dense[i][i] = d[i]
		}
		for i := range e {
			dense[i][i+1] = e[i]
			dense[i+1][i] = e[i]
		}
		tri := TridiagEigenvalues(d, e)
		jac := Jacobi(dense)
		for i := range tri {
			if math.Abs(tri[i]-jac[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJacobiKnown(t *testing.T) {
	// [[0,1],[1,0]] → ±1.
	ev := Jacobi([][]float64{{0, 1}, {1, 0}})
	if math.Abs(ev[0]+1) > 1e-10 || math.Abs(ev[1]-1) > 1e-10 {
		t.Errorf("eigenvalues = %v, want [-1 1]", ev)
	}
}

// Normalized Laplacian of K_n: eigenvalue 0 once and n/(n−1) with
// multiplicity n−1.
func TestExtremesCompleteGraph(t *testing.T) {
	for _, n := range []int{4, 9, 30} {
		s := complete(t, n)
		l1, ln, err := Extremes(s, rand.New(rand.NewSource(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n) / float64(n-1)
		if math.Abs(l1-want) > 1e-8 {
			t.Errorf("K%d: λ1 = %v, want %v", n, l1, want)
		}
		if math.Abs(ln-want) > 1e-8 {
			t.Errorf("K%d: λn−1 = %v, want %v", n, ln, want)
		}
	}
}

// Normalized Laplacian eigenvalues of the cycle C_n are 1 − cos(2πk/n).
func TestExtremesCycle(t *testing.T) {
	n := 40
	s := cycle(t, n)
	l1, ln, err := Extremes(s, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLo := 1 - math.Cos(2*math.Pi/float64(n))
	// Largest: k = n/2 (even n) → 1 − cos(π) = 2.
	if math.Abs(l1-wantLo) > 1e-8 {
		t.Errorf("C%d: λ1 = %v, want %v", n, l1, wantLo)
	}
	if math.Abs(ln-2) > 1e-8 {
		t.Errorf("C%d: λn−1 = %v, want 2", n, ln)
	}
}

// Star K_{1,n−1}: normalized Laplacian eigenvalues are 0, 1 (multiplicity
// n−2), and 2.
func TestExtremesStar(t *testing.T) {
	n := 50
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	l1, ln, err := Extremes(g, rand.New(rand.NewSource(3)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-1) > 1e-8 {
		t.Errorf("star: λ1 = %v, want 1", l1)
	}
	if math.Abs(ln-2) > 1e-8 {
		t.Errorf("star: λn−1 = %v, want 2", ln)
	}
}

// TestLanczosMatchesJacobi cross-validates the two solvers on random
// connected graphs just above the dense threshold by calling the Lanczos
// path directly.
func TestLanczosMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		s := connectedRandom(rng, 120, 300)
		l, err := NewLaplacian(s)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := lanczosExtremes(l, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		vals := Jacobi(l.Dense())
		if math.Abs(lo-vals[1]) > 1e-6 {
			t.Errorf("trial %d: Lanczos λ1 = %v, Jacobi = %v", trial, lo, vals[1])
		}
		if math.Abs(hi-vals[len(vals)-1]) > 1e-6 {
			t.Errorf("trial %d: Lanczos λn−1 = %v, Jacobi = %v", trial, hi, vals[len(vals)-1])
		}
	}
}

func TestExtremesLargePath(t *testing.T) {
	// Exercise the Lanczos path (n > dense threshold) on a graph with a
	// tiny spectral gap: λ1 of the path P_n is ≈ (π/n)²·(1/2)... just
	// check bounds and ordering rather than the closed form.
	n := 500
	g := graph.NewCSR(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	l1, ln, err := Extremes(g, rand.New(rand.NewSource(4)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1 <= 0 || l1 > 0.01 {
		t.Errorf("path: λ1 = %v, want small positive", l1)
	}
	if ln < 1.9 || ln > 2+1e-9 {
		t.Errorf("path: λn−1 = %v, want ≈ 2", ln)
	}
}

func TestLaplacianValidation(t *testing.T) {
	if _, err := NewLaplacian(graph.NewCSR(0)); err == nil {
		t.Error("empty graph accepted")
	}
	g := graph.NewCSR(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLaplacian(g); err == nil {
		t.Error("degree-0 node accepted")
	}
	if _, _, err := Extremes(build(t, 4, [][2]int{{0, 1}, {2, 3}}), rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestEigenvaluesInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		s := connectedRandom(rng, n, rng.Intn(2*n))
		l1, ln, err := Extremes(s, rng, 0)
		if err != nil {
			return false
		}
		return l1 > -1e-9 && ln <= 2+1e-9 && l1 <= ln
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBipartiteLargestEigenvalue checks the classical theorem: the largest
// normalized-Laplacian eigenvalue equals 2 exactly when the graph is
// bipartite (even cycles, paths, stars) and is strictly below 2 otherwise
// (odd cycles).
func TestBipartiteLargestEigenvalue(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, evenMax, err := Extremes(cycle(t, 12), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evenMax-2) > 1e-8 {
		t.Errorf("even cycle λmax = %v, want 2", evenMax)
	}
	_, oddMax, err := Extremes(cycle(t, 13), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oddMax >= 2-1e-6 {
		t.Errorf("odd cycle λmax = %v, want < 2", oddMax)
	}
	_, triMax, err := Extremes(complete(t, 3), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(triMax-1.5) > 1e-8 {
		t.Errorf("triangle λmax = %v, want 1.5", triMax)
	}
}
