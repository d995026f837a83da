package dk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// jsonFixtureGraph builds a small irregular graph with nontrivial wedge
// and triangle structure for codec tests.
func jsonFixtureGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(7)
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 2}, {5, 6}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestProfileJSONRoundTrip(t *testing.T) {
	g := jsonFixtureGraph(t)
	for d := 0; d <= 3; d++ {
		p, err := Extract(g, d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("d=%d: marshal: %v", d, err)
		}
		var q Profile
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatalf("d=%d: unmarshal: %v", d, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("d=%d: round-tripped profile fails validation: %v", d, err)
		}
		dist, err := Distance(p, &q, d)
		if err != nil {
			t.Fatal(err)
		}
		if dist != 0 {
			t.Fatalf("d=%d: D_%d(original, round-tripped) = %v, want 0", d, d, dist)
		}
	}
}

func TestProfileJSONStable(t *testing.T) {
	// Map-backed distributions iterate in random order; the codec must
	// still produce identical bytes across marshals and across
	// separately-extracted copies of the same graph.
	g := jsonFixtureGraph(t)
	var prev []byte
	for i := 0; i < 5; i++ {
		p, err := Extract(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("marshal %d produced different bytes:\n%s\nvs\n%s", i, prev, b)
		}
		prev = b
	}
}

func TestProfileJSONSortedClasses(t *testing.T) {
	g := jsonFixtureGraph(t)
	p, err := Extract(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	// Degree classes must appear in increasing k order.
	if strings.Index(s, `"k":1`) > strings.Index(s, `"k":2`) {
		t.Fatalf("degree classes not sorted: %s", s)
	}
	for _, field := range []string{`"d":`, `"avg_degree":`, `"degrees":`, `"joint":`, `"census":`, `"wedges":`, `"triangles":`} {
		if !strings.Contains(s, field) {
			t.Fatalf("encoding missing %s: %s", field, s)
		}
	}
}

func TestProfileJSONDepthConsistency(t *testing.T) {
	cases := []string{
		`{"d":4,"n":1,"m":0,"avg_degree":0}`,
		`{"d":-1,"n":1,"m":0,"avg_degree":0}`,
		`{"d":1,"n":1,"m":0,"avg_degree":0}`,                                                           // degrees missing
		`{"d":2,"n":1,"m":0,"avg_degree":0,"degrees":{"n":1,"classes":[]}}`,                            // joint missing
		`{"d":1,"n":2,"m":0,"avg_degree":0,"degrees":{"n":2,"classes":[{"k":0,"n":1},{"k":0,"n":1}]}}`, // dup class
	}
	for _, in := range cases {
		var p Profile
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Fatalf("invalid profile %s decoded without error", in)
		}
	}
}

func TestJDDJSONRecomputesTotal(t *testing.T) {
	// A hand-written JDD with a wrong "m" total gets the total recomputed
	// from its classes.
	in := `{"m":999,"classes":[{"k1":2,"k2":1,"m":3},{"k1":2,"k2":2,"m":1}]}`
	var j JDD
	if err := json.Unmarshal([]byte(in), &j); err != nil {
		t.Fatal(err)
	}
	if j.M != 4 {
		t.Fatalf("M = %d, want 4 (recomputed)", j.M)
	}
	// Pair (2,1) must have been canonicalized to (1,2).
	if j.Count[DegPair{1, 2}] != 3 {
		t.Fatalf("canonicalization lost class (1,2): %+v", j.Count)
	}
}

func TestProfileJSONFromRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := graph.NewCSR(20)
		for i := 0; i < 40; i++ {
			u, v := rng.Intn(20), rng.Intn(20)
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := Extract(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Profile
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatal(err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestJSONRejectsNegativeCounts: the JSON decoders refuse negative counts
// the way the DKPB decoders refuse non-positive ones. The census case is
// a paw profile whose totals still satisfy Validate — a compensating
// −1 wedge class used to slip through.
func TestJSONRejectsNegativeCounts(t *testing.T) {
	var dd DegreeDist
	for _, in := range []string{
		`{"n":-1,"classes":[]}`,
		`{"n":1,"classes":[{"k":1,"n":-1}]}`,
	} {
		if err := json.Unmarshal([]byte(in), &dd); err == nil {
			t.Errorf("degree distribution %s decoded without error", in)
		}
	}
	var j JDD
	for _, in := range []string{
		`{"m":-1,"classes":[]}`,
		`{"m":1,"classes":[{"k1":1,"k2":2,"m":2},{"k1":2,"k2":2,"m":-1}]}`,
	} {
		if err := json.Unmarshal([]byte(in), &j); err == nil {
			t.Errorf("JDD %s decoded without error", in)
		}
	}

	const paw = `{"d":3,"n":4,"m":4,"avg_degree":2,` +
		`"degrees":{"n":4,"classes":[{"k":1,"n":1},{"k":2,"n":2},{"k":3,"n":1}]},` +
		`"joint":{"m":4,"classes":[{"k1":1,"k2":3,"m":1},{"k1":2,"k2":2,"m":1},{"k1":2,"k2":3,"m":2}]},` +
		`"census":{"wedges":[%s],"triangles":[{"k1":2,"k2":2,"k3":3,"count":1}]}}`
	var p Profile
	valid := fmt.Sprintf(paw, `{"k_lo":1,"k_center":3,"k_hi":2,"count":2}`)
	if err := json.Unmarshal([]byte(valid), &p); err != nil {
		t.Fatalf("paw profile: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("paw profile: %v", err)
	}
	negative := fmt.Sprintf(paw, `{"k_lo":1,"k_center":2,"k_hi":1,"count":-1},{"k_lo":1,"k_center":3,"k_hi":2,"count":3}`)
	if err := json.Unmarshal([]byte(negative), &p); err == nil {
		t.Fatal("profile with a negative wedge count decoded without error")
	}
}
