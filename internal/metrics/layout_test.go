package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/subgraphs"
)

// fragmentedGraph builds a connected graph by incremental AddEdge on an
// unreserved CSR, then removes some chords. Windows start with zero
// capacity, so every growing node relocates to the arena tail (leaving
// dead space behind) and removals leave slack inside windows: the arena
// layout differs from the compact one Clone produces.
func fragmentedGraph(t *testing.T, n, chords, removals int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tree, extra []graph.Edge
	ends := []int{0} // degree-biased endpoint pool, so hubs form
	for v := 1; v < n; v++ {
		u := ends[rng.Intn(len(ends))]
		tree = append(tree, graph.Edge{U: u, V: v})
		ends = append(ends, u, v)
	}
	for len(extra) < chords {
		u, v := ends[rng.Intn(len(ends))], rng.Intn(n)
		extra = append(extra, graph.Edge{U: u, V: v})
	}
	all := append(tree, extra...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	g := graph.NewCSR(n)
	for _, e := range all {
		_ = g.AddEdge(e.U, e.V) // self-loops and duplicate chords are skipped
	}
	isTree := make(map[graph.Edge]bool, len(tree))
	for _, e := range tree {
		isTree[e.Canon()] = true
	}
	for removed := 0; removed < removals; {
		if e := g.EdgeAt(rng.Intn(g.M())); !isTree[e] {
			g.RemoveEdge(e.U, e.V)
			removed++
		}
	}
	if !graph.IsConnected(g) {
		t.Fatal("fragmented test graph is disconnected")
	}
	return g
}

func sameFloatBits(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// TestAnalysisLayoutIndependent pins every read-only analysis to the
// graph's edge set, not its arena layout: a relocated, slack-filled CSR
// and its compacted Clone must give bit-identical results.
func TestAnalysisLayoutIndependent(t *testing.T) {
	frag := fragmentedGraph(t, 400, 500, 60, 12)
	compact := frag.Clone()

	sf, err := Summarize(frag, SummaryOptions{Spectral: true, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Summarize(compact, SummaryOptions{Spectral: true, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloatBits(sf, sc) {
		t.Errorf("Summarize differs across layouts:\n%+v\n%+v", sf, sc)
	}

	fracs := []float64{0, 0.05, 0.1, 0.2, 0.4}
	for _, targeted := range []bool{true, false} {
		rf, err := netsim.Robustness(frag, fracs, targeted, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := netsim.Robustness(compact, fracs, targeted, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rf {
			if !sameFloatBits(rf[i], rc[i]) {
				t.Errorf("Robustness(targeted=%v)[%d] differs: %+v vs %+v", targeted, i, rf[i], rc[i])
			}
		}
	}

	if bf, bc := graph.Bridges(frag), graph.Bridges(compact); !reflect.DeepEqual(bf, bc) {
		t.Errorf("Bridges differ across layouts: %v vs %v", bf, bc)
	}
	if cf, cc := subgraphs.CountSize4(frag), subgraphs.CountSize4(compact); cf != cc {
		t.Errorf("CountSize4 differs across layouts: %+v vs %+v", cf, cc)
	}
}
