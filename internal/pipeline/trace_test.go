package pipeline

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// memHandle is a Handle over an in-memory graph that caches profiles by
// depth, so a repeated extraction reports a cache hit.
type memHandle struct {
	g        *graph.CSR
	profiles map[int]*dk.Profile
}

func (h *memHandle) Graph() *graph.CSR     { return h.g }
func (h *memHandle) Info() dkapi.GraphInfo { return dkapi.GraphInfo{N: h.g.N(), M: h.g.M()} }

func (h *memHandle) Profile(d int) (*dk.Profile, bool, error) {
	if p, ok := h.profiles[d]; ok {
		return p, true, nil
	}
	p, err := dk.Extract(h.g, d)
	if err != nil {
		return nil, false, err
	}
	h.profiles[d] = p
	return p, false, nil
}

func (h *memHandle) Summary(bool, int, int64) (metrics.Summary, bool, error) {
	return metrics.Summary{}, false, nil
}

// memBackend resolves dataset references to a fixed set of handles.
type memBackend map[string]*memHandle

func (b memBackend) Resolve(ref dkapi.GraphRef) (Handle, error) {
	if h, ok := b[ref.Dataset]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("unknown dataset %q", ref.Dataset)
}

func (b memBackend) Intern(g *graph.CSR) Handle {
	return &memHandle{g: g, profiles: map[int]*dk.Profile{}}
}

// TestExtractSpanCensusClasses: an extract phase span that ran a 3K
// census carries census_classes, the wedge + triangle classes it
// computed (summed over both sides of a compare); cache hits and
// shallower extractions leave the attribute off.
func TestExtractSpanCensusClasses(t *testing.T) {
	k4 := graph.NewCSR(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := k4.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := memBackend{}
	for name, g := range map[string]*graph.CSR{"paw": datasets.Paw(), "petersen": datasets.Petersen(), "k4": k4} {
		b[name] = b.Intern(g).(*memHandle)
	}
	ref := func(name string) *dkapi.GraphRef { return &dkapi.GraphRef{Dataset: name} }
	two := 2
	req := dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "cmp", Op: dkapi.OpCompare, A: ref("paw"), B: ref("petersen")},
		{ID: "again", Op: dkapi.OpExtract, Source: ref("paw")},
		{ID: "shallow", Op: dkapi.OpExtract, Source: ref("k4"), D: &two},
		{ID: "census", Op: dkapi.OpCensus, Source: ref("k4")},
	}}
	// paw: wedge (1,3,2) and triangle (2,2,3); Petersen: wedge (3,3,3);
	// K4: triangle (3,3,3).
	want := map[string]string{"cmp": "3", "again": "", "shallow": "", "census": "1"}

	tr := trace.New("t", "run")
	if _, err := RunTraced(context.Background(), b, req, nil, nil, tr.Root()); err != nil {
		t.Fatal(err)
	}
	stepOf := map[int]string{}
	got := map[string]string{}
	for _, r := range tr.Records() {
		if r.Kind != "span" {
			continue
		}
		switch r.Name {
		case "step":
			stepOf[r.ID] = r.Attrs["id"]
		case "extract":
			id, ok := stepOf[r.Parent]
			if !ok {
				t.Fatalf("extract span %d has no step parent", r.ID)
			}
			got[id] = r.Attrs["census_classes"]
		}
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			t.Errorf("step %s: extract census_classes = %q (span found: %v), want %q", id, g, ok, w)
		}
	}
}
