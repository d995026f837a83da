package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	dkprof "repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

// as-ensemble is the paper's central experiment: dK-random ensembles at
// d = 0..3 of a measured AS-like topology, each compared with it. One
// closed-loop caller runs rounds of five jobs, one per depth with d = 2
// twice (weights 1:1:2:1), in a seeded order; ingest and the sources'
// 3K census happen once, in setup.
//
// The sources are a family of asGraphs topologies grown from the seed,
// and each slot of a round visits them in turn, one source further each
// round: the cost of d = 2 rewiring varies by about ±15% between single
// AS-like graphs of one size, so with one graph per run the seed, not
// the program, would set the result. With as many sources as a window
// has rounds, every source gets the same jobs — one each at d = 0, 1
// and 3 and two at d = 2 — so which source is cheapest does not decide
// which depth is cheap.

const (
	asReplicas      = 2
	asCompareSample = 256
	asGraphs        = 6
	// asRoundTime is a round's nominal duration, about what one took on
	// the reference machine (see README.md); it sets the window's round
	// count (see windowRounds): six rounds, 30 jobs, at 30 s. The job
	// median falls among the d = 2 jobs, of which four rounds hold only
	// eight; their latency drifts by ±15% within a run, and the median
	// of eight moved by a quarter between runs of one set.
	asRoundTime = 5 * time.Second
)

// asRound is the depth mix of one round.
var asRound = []int{0, 1, 2, 2, 3}

type asJob struct {
	D     int
	Graph int // source index
	Seed  int64
}

// asStream is the job stream: a pure function of the workload seed.
type asStream struct {
	rng    *rand.Rand
	rounds int
}

func newASStream(seed int64) *asStream {
	return &asStream{rng: rand.New(rand.NewSource(seed ^ 0x61732d656e73))}
}

// round returns the next round's jobs.
func (s *asStream) round() []asJob {
	jobs := make([]asJob, len(asRound))
	for i, p := range s.rng.Perm(len(asRound)) {
		jobs[i] = asJob{D: asRound[p], Graph: (p + s.rounds) % asGraphs, Seed: s.rng.Int63()}
	}
	s.rounds++
	return jobs
}

// asSource is one source topology: in the session, and as the parsed
// CSR the traced path interns into its own cache.
type asSource struct {
	g      *dk.Graph
	csr    *graph.CSR
	labels []int
}

type asBench struct {
	srcs []asSource
	sess *dk.Session
	seed int64
	// cache stands in for the session's cache on the traced path; nil on
	// untraced runs.
	cache *service.Cache
}

func asSize(tiny bool) int {
	if tiny {
		return 400
	}
	return 9000
}

func setupASEnsemble(cfg config) (bench, error) {
	b := &asBench{sess: dk.NewSession(), seed: cfg.seed}
	if cfg.trace {
		b.cache = service.NewCache(sessionCacheEntries)
	}
	for i := 0; i < asGraphs; i++ {
		edges := holmeKim(asSize(cfg.tiny), 2.55, 0.6, rand.New(rand.NewSource(cfg.seed*1000+int64(i))))
		text := edgeText(edges)
		g, err := dk.ParseGraph(text)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "input as-%d n=%d m=%d bytes=%d sha256=%s\n", i, g.N(), g.M(), len(text), inputDigest(text))
		// Warm-up: the source's 3K census and the sampled summary every
		// compare reuses, both cached in the session.
		ext, err := b.sess.Extract(context.Background(), g, dk.ExtractOptions{D: dkapi.Int(3), Metrics: true, Sample: asCompareSample})
		if err != nil {
			return nil, err
		}
		if _, err := checkCensus(ext.Profile, degreePairs(edges)); err != nil {
			return nil, err
		}
		src := asSource{g: g}
		if b.cache != nil {
			if src.csr, src.labels, err = parseCSR(text); err != nil {
				return nil, err
			}
			if err := warmEntry(b.cache, src.csr, src.labels, g.Hash(), asCompareSample); err != nil {
				return nil, err
			}
		}
		b.srcs = append(b.srcs, src)
	}
	return b, nil
}

func (b *asBench) close() error { return nil }

func (b *asBench) measure(minDur time.Duration, rounds int, rec *recorder) *window {
	w := &window{}
	stream := newASStream(b.seed)
	want := windowRounds(rounds, minDur, asRoundTime)
	clk := startClock()
	for w.rounds < want {
		for _, job := range stream.round() {
			start := time.Now()
			var err error
			var layer time.Duration
			if rec == nil {
				err = b.job(job)
			} else {
				id, end := rec.begin(0, spanJob)
				rec.attr(id, "d", fmt.Sprint(job.D))
				err = b.tracedJob(job, rec, id)
				end()
				layer = rec.childTime(id)
			}
			w.record(fmt.Sprintf("d%d", job.D), time.Since(start), layer, err)
		}
		w.rounds++
	}
	clk.stop(w)
	return w
}

// job is one caller request through pkg/dk: a compared ensemble of two
// replicas, then a sampled compare of the source with the first one.
func (b *asBench) job(j asJob) error {
	ctx := context.Background()
	src := b.srcs[j.Graph].g
	out, err := b.sess.Generate(ctx, src, dk.GenerateOptions{D: dkapi.Int(j.D), Replicas: asReplicas, Compare: true, Seed: j.Seed})
	if err != nil {
		return err
	}
	if err := b.checkEnsemble(j, out.Result.Replicas); err != nil {
		return err
	}
	cmp, err := b.sess.Compare(ctx, src, out.Graphs[0], dk.CompareOptions{D: dkapi.Int(j.D), Sample: asCompareSample})
	if err != nil {
		return err
	}
	return checkDistances(j.D, cmp.Distances)
}

func (b *asBench) checkEnsemble(j asJob, reps []dkapi.ReplicaInfo) error {
	if len(reps) != asReplicas {
		return fmt.Errorf("d=%d: %d replicas, asked for %d", j.D, len(reps), asReplicas)
	}
	src := b.srcs[j.Graph].g
	for _, r := range reps {
		if r.N != src.N() || r.M != src.M() {
			return fmt.Errorf("d=%d replica %d: n=%d m=%d, source n=%d m=%d", j.D, r.Index, r.N, r.M, src.N(), src.M())
		}
		if r.Distance == nil || *r.Distance != 0 {
			return fmt.Errorf("d=%d replica %d: D_d = %v, want 0", j.D, r.Index, r.Distance)
		}
	}
	return nil
}

// checkDistances requires D_d = 0 at the compared replica's own depth.
func checkDistances(d int, ds []dkapi.DistanceEntry) error {
	if len(ds) != d+1 {
		return fmt.Errorf("compare: %d distances, want %d", len(ds), d+1)
	}
	if ds[d].Value != 0 {
		return fmt.Errorf("compare: D_%d = %v, want 0", d, ds[d].Value)
	}
	return nil
}

// tracedJob does the same work as job on the traced path, with a span
// around each layer call (see tracedpath.go). It makes the calls pkg/dk's
// executor makes for the two Session calls: intern the source, take its
// cached profile, rewire the replicas in parallel, intern each replica
// as a detached entry and extract and compare its profile; then intern
// the source and the first replica for the compare, extract the
// replica's profile afresh and summarize it. Cached work — the source's
// profile and summary — costs what a cache hit costs, as in the session.
func (b *asBench) tracedJob(j asJob, rec *recorder, job int) error {
	s := &b.srcs[j.Graph]
	src, err := internTraced(rec, job, b.cache, s.csr, s.labels, s.g.Hash())
	if err != nil {
		return err
	}
	var prof *dkprof.Profile
	rec.do(job, spanExtract, func() { prof, _, err = src.Profile(j.D) })
	if err != nil {
		return err
	}
	var stats []generate.RewireStats
	var reps []*graph.CSR
	rec.do(job, rewireSpan(j.D), func() {
		reps, stats, err = generate.RandomizeReplicas(src.Graph(), j.D, asReplicas, j.Seed, generate.RandomizeOptions{})
	})
	if err != nil {
		return err
	}
	infos := make([]dkapi.ReplicaInfo, len(reps))
	var first *graph.CSR
	for i, g := range reps {
		var rep *service.Entry
		rec.do(job, spanHash, func() { rep = service.NewDetachedEntry(g) })
		if i == 0 {
			first = rep.Graph()
		}
		p, err := extractTraced(rec, job, rep, j.D)
		if err != nil {
			return err
		}
		var dist float64
		rec.do(job, spanExtract, func() { dist, err = dkprof.Distance(prof, p, j.D) })
		if err != nil {
			return err
		}
		infos[i] = dkapi.ReplicaInfo{Index: i, N: g.N(), M: g.M(), Distance: &dist}
		rec.addRewire(stats[i])
	}
	if err := b.checkEnsemble(j, infos); err != nil {
		return err
	}
	if _, err := internTraced(rec, job, b.cache, s.csr, s.labels, s.g.Hash()); err != nil {
		return err
	}
	var cmp *service.Entry
	rec.do(job, spanHash, func() { cmp, _ = b.cache.Intern(first, nil) })
	p, err := extractTraced(rec, job, cmp, j.D)
	if err != nil {
		return err
	}
	var ds []dkapi.DistanceEntry
	rec.do(job, spanExtract, func() {
		for dd := 0; dd <= j.D && err == nil; dd++ {
			var v float64
			v, err = dkprof.Distance(prof, p, dd)
			ds = append(ds, dkapi.DistanceEntry{D: dd, Value: v})
		}
	})
	if err != nil {
		return err
	}
	if err := summaryTraced(rec, job, cmp, asCompareSample); err != nil {
		return err
	}
	return checkDistances(j.D, ds)
}
