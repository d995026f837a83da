package datasets

import (
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func TestPaw(t *testing.T) {
	g := Paw()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("paw: n=%d m=%d", g.N(), g.M())
	}
	p, err := dk.Extract(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Joint.Count[dk.NewDegPair(2, 3)] != 2 {
		t.Errorf("paper example P(2,3) = %d, want 2", p.Joint.Count[dk.NewDegPair(2, 3)])
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen: n=%d m=%d", g.N(), g.M())
	}
	for u := 0; u < 10; u++ {
		if g.Degree(u) != 3 {
			t.Errorf("degree(%d) = %d, want 3", u, g.Degree(u))
		}
	}
	if !graph.IsConnected(g) {
		t.Error("petersen disconnected")
	}
}

func TestHOTSignature(t *testing.T) {
	g, roles, err := HOT(PaperScaleHOT(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 939 {
		t.Errorf("n = %d, want 939", g.N())
	}
	if g.M() < 960 || g.M() > 1010 {
		t.Errorf("m = %d, want ≈ 988", g.M())
	}
	if !graph.IsConnected(g) {
		t.Fatal("HOT graph disconnected")
	}
	kbar := g.AvgDegree()
	if kbar < 1.9 || kbar > 2.3 {
		t.Errorf("k̄ = %v, want ≈ 2.1", kbar)
	}
	// Near-tree: almost no clustering.
	if c := metrics.MeanClustering(g); c > 0.05 {
		t.Errorf("C̄ = %v, want ≈ 0", c)
	}
	// Disassortative.
	if r := metrics.Assortativity(g); r > -0.1 {
		t.Errorf("r = %v, want strongly negative", r)
	}
	// The HOT signature: the highest-degree nodes are access routers
	// (periphery), not core nodes.
	maxDeg, maxNode := 0, -1
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg, maxNode = d, u
		}
	}
	isAccess := false
	for _, a := range roles.Access {
		if a == maxNode {
			isAccess = true
			break
		}
	}
	if !isAccess {
		t.Errorf("highest-degree node %d (deg %d) is not an access router", maxNode, maxDeg)
	}
	// Core nodes stay low-degree.
	for _, c := range roles.Core {
		if g.Degree(c) > 12 {
			t.Errorf("core node %d has degree %d; core must stay low-degree", c, g.Degree(c))
		}
	}
}

func TestHOTDeterministicPerSeed(t *testing.T) {
	a, _, err := HOT(HOTConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := HOT(HOTConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different HOT graphs")
	}
	c, _, err := HOT(HOTConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical HOT graphs")
	}
}

func TestHOTValidation(t *testing.T) {
	if _, _, err := HOT(HOTConfig{CoreSize: 2, Hosts: 10, Gateways: 1, AccessRouters: 1, ExtraLinks: 1}); err == nil {
		t.Error("degenerate core accepted")
	}
}

func TestSkitterSignature(t *testing.T) {
	g, err := Skitter(SkitterConfig{N: 900, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("skitter-like graph disconnected")
	}
	if g.N() < 700 {
		t.Errorf("GCC too small: %d of 900", g.N())
	}
	if r := metrics.Assortativity(g); r > -0.1 {
		t.Errorf("r = %v, want ≤ −0.1 (disassortative)", r)
	}
	if c := metrics.MeanClustering(g); c < 0.2 {
		t.Errorf("C̄ = %v, want ≥ 0.2 (strong clustering)", c)
	}
	// Power-law-ish: max degree far above mean.
	if maxd := g.MaxDegree(); float64(maxd) < 5*g.AvgDegree() {
		t.Errorf("max degree %d vs k̄ %v: tail too thin", maxd, g.AvgDegree())
	}
}

func TestSkitterDeterministicPerSeed(t *testing.T) {
	a, err := Skitter(SkitterConfig{N: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Skitter(SkitterConfig{N: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different skitter graphs")
	}
}
