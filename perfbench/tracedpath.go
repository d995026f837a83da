package main

import (
	"fmt"
	"strings"

	dkprof "repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/subgraphs"
)

// The traced path of the pkg/dk workloads. pkg/dk runs several layers
// inside one Session call, so a traced job makes those layer calls
// itself, each inside a span. Where a layer has an entry point that
// pkg/dk itself calls, the span wraps that entry point:
//
//   - ingest is dk.ParseGraph: text → CSR → canonical order → content hash;
//   - each Session call's intern is service.Cache.Intern, and each
//     replica's is service.NewDetachedEntry, as the session backend does;
//   - profiles at d ≤ 2 and metric summaries are service.Entry.Profile
//     and service.Entry.Summary, which the pipeline executor calls.
//
// So a change to the parser, the cache or the summary path reaches the
// traced figures without a change here. The rest copies the executor's
// calls: the rewiring and pseudograph fan-outs, D_d distances, and the
// d = 3 extraction, which calls dk.Extract's two halves separately so
// that the census gets a span of its own. pkg/dk does not hand out its
// parsed CSR, so the interns take a copy of the same graph parsed in
// setup; the traced job checks that its hash matches the one
// dk.ParseGraph computed.

// sessionCacheEntries is a default Session's cache size.
const sessionCacheEntries = 64

// parseCSR parses an edge list into a CSR in canonical edge order, as
// pkg/dk holds it, for the traced path's interns.
func parseCSR(text string) (*graph.CSR, []int, error) {
	g, labels, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	c := g.CSR()
	if !c.EdgesCanonicallyOrdered() {
		c = c.CanonicalClone()
	}
	return c, labels, nil
}

// internTraced interns a graph as a Session call does, in a span, and
// checks the cache computed the hash pkg/dk did.
func internTraced(rec *recorder, parent int, c *service.Cache, g *graph.CSR, labels []int, want string) (*service.Entry, error) {
	var e *service.Entry
	rec.do(parent, spanHash, func() { e, _ = c.Intern(g, labels) })
	if got := string(e.Hash()); got != want {
		return nil, fmt.Errorf("intern: cache hash %s, pkg/dk hash %s", got, want)
	}
	return e, nil
}

// warmEntry interns a source and caches its 3K profile and its sampled
// summary, as a session's warm-up extract does.
func warmEntry(c *service.Cache, g *graph.CSR, labels []int, want string, sample int) error {
	e, err := internTraced(nil, 0, c, g, labels, want)
	if err != nil {
		return err
	}
	if _, _, err := e.Profile(3); err != nil {
		return err
	}
	_, _, err = e.Summary(false, sample, 1)
	return err
}

// extractTraced extracts an entry's profile at depth d in a dk.extract
// span. At d ≤ 2 that is the entry's own Profile. At d = 3 it makes
// dk.Extract's two calls — the d ≤ 2 distributions, then the census — with
// the census in a child span; the entry does not keep this profile.
func extractTraced(rec *recorder, parent int, e *service.Entry, d int) (*dkprof.Profile, error) {
	id, end := rec.begin(parent, spanExtract)
	defer end()
	if d < 3 {
		p, _, err := e.Profile(d)
		return p, err
	}
	p, err := dkprof.Extract(e.Graph(), 2)
	if err != nil {
		return nil, err
	}
	var c *subgraphs.Census
	rec.do(id, spanCensus, func() { c = subgraphs.Count(e.Graph()) })
	rec.count(func(n *counters) { n.censusClasses += len(c.Wedges) + len(c.Triangles) })
	p.D, p.Census = 3, c
	return p, nil
}

// summaryTraced computes an entry's sampled metric summary (seed 1, the
// analysis default) in a metrics.summary span.
func summaryTraced(rec *recorder, parent int, e *service.Entry, sample int) error {
	var err error
	rec.do(parent, spanSummary, func() { _, _, err = e.Summary(false, sample, 1) })
	return err
}
