package dk_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/stats"
)

// cutoffPowerLawGraph is an erased configuration model over a γ = 2
// power-law degree sequence with maximum degree near the structural
// cutoff 3√n: stubs are shuffled and paired, and loops and repeated
// pairs are dropped. At n = 20000 it has well over 101 degree classes.
func cutoffPowerLawGraph(t *testing.T, n int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(float64(n))))
	if err != nil {
		t.Fatal(err)
	}
	var stubs []int
	for v, k := range pl.DegreeSequence(rng, n) {
		for ; k > 0; k-- {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.NewCSR(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// distinctDegrees counts the degree classes of g.
func distinctDegrees(g *graph.CSR) int {
	seen := map[int]bool{}
	for _, k := range g.DegreeSequence() {
		seen[k] = true
	}
	return len(seen)
}

// TestProfileWireGolden pins the JSON and DKPB bytes of two depth-3
// profiles by SHA-256, so the census layout can change without moving a
// single byte on the wire: the default skitter topology and a cutoff
// power-law graph with more than 101 degree classes.
func TestProfileWireGolden(t *testing.T) {
	cases := []struct {
		name       string
		build      func(t *testing.T) *graph.CSR
		json, dkpb string
	}{
		{
			name: "skitter-2000-seed2",
			build: func(t *testing.T) *graph.CSR {
				g, err := datasets.Skitter(datasets.SkitterConfig{N: 2000, Seed: 2})
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			json: "d4ae00716856346ff8d043e33dcf561132f61739c4194ec941e5977bc07c4c2e",
			dkpb: "276905c42902ddb14a2da79965577376c5c6bf1472718cf5f6b5dcfcf7ef4256",
		},
		{
			name: "powerlaw-20000-seed5",
			build: func(t *testing.T) *graph.CSR {
				g := cutoffPowerLawGraph(t, 20000, 5)
				if nc := distinctDegrees(g); nc <= 101 {
					t.Fatalf("only %d degree classes; want > 101", nc)
				}
				return g
			},
			json: "98637eff27d2722b43798ee697d47631d2e37590a0048081ab33da6d6c7aacb3",
			dkpb: "6d6487613c409509b224a5d247a591ee7e004b7034bb61202cfe1da9cee98117",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := dk.Extract(tc.build(t), 3)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var bin bytes.Buffer
			if err := dk.WriteProfileBinary(&bin, p); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(js); got != tc.json {
				t.Errorf("JSON sha256 = %s, want %s", got, tc.json)
			}
			if got := sha256Hex(bin.Bytes()); got != tc.dkpb {
				t.Errorf("DKPB sha256 = %s, want %s", got, tc.dkpb)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
